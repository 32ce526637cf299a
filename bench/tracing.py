"""Layer spans recorded from outside the program.

`Tracer.installed()` replaces each layer entry point, in every `treewaves`
module namespace that binds it, with a wrapper that records a span: layer
name, start, end, parent span, op id and pass.  Counts come from the call's
arguments and return value only.  Spans stay in memory; the runner writes them
out when the run ends.  `layer_metrics` turns one list of spans into the
per-layer metrics of BENCHMARK.json.

A layer whose entry points are all missing (renamed by a later refactor) is
reported absent, as are the count metrics of a layer whose counter no longer
fits the call; the run carries on.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _out_bytes(a, _result):
    total = 0
    for arg in a["argv"]:
        flag, _, path = arg.partition("=")
        if flag in ("--out", "--out-chain") and os.path.isfile(path):
            total += os.path.getsize(path)
    return {"bytes_out": total}


def _smc(a, result):
    """Particle steps, and surviving over attempted particle steps, from the
    per-batch prefix products of the returned curve."""
    be = result.batch_estimates
    per = result.particles / result.batches
    prev = be[:, :-1]
    live = prev > 0.0
    survived = be[:, 0].sum() + (be[:, 1:][live] / prev[live]).sum()
    tried = be.shape[0] + live.sum()
    return {"particle_steps": result.particles * a["n_max"],
            "survived": survived * per, "tried": tried * per}


def _gibbs(a, _result):
    return {"updates": a["chains"] * a["sweeps"] * a["plan"].n}


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    entries: tuple[str, ...]
    count: Callable | None = None


LAYERS = (
    Layer("spectral.build_profile", "spectral", ("build_profile",)),
    Layer("tree.enumerate_ball", "tree", ("enumerate_ball",),
          lambda a, r: {"vertices": len(r)}),
    Layer("tree.pairwise_distances", "tree", ("pairwise_distances",),
          lambda a, r: {"pairs": len(a["vertices"]) * (len(a["vertices"]) - 1) // 2}),
    Layer("gaussian.assemble_covariance", "gaussian", ("assemble_covariance",),
          lambda a, r: {"entries": len(a["vertices"]) ** 2}),
    Layer("gaussian.factor_psd", "gaussian", ("factor_psd",),
          lambda a, r: {"rank": r.rank, "dim": len(a["matrix"])}),
    Layer("gaussian.orthant_edge_probability", "gaussian", ("orthant_edge_probability",)),
    Layer("sampler.sample_ball_recursive", "sampler", ("sample_ball_recursive",),
          lambda a, r: {"vertices": len(r.values)}),
    Layer("sampler.sample_ball_dense", "sampler", ("sample_ball_dense",)),
    Layer("sampler.verify_eigen_residual", "sampler", ("verify_eigen_residual",)),
    Layer("sampler.verify_sphere_sums", "sampler", ("verify_sphere_sums",)),
    Layer("conditioned.build_gibbs_plan", "conditioned", ("build_gibbs_plan",)),
    # gibbs_run is the library entry point; the CLI calls the array kernel.
    Layer("conditioned.gibbs", "conditioned", ("gibbs_run", "_gibbs_run_matrix"), _gibbs),
    Layer("levelset.extract_components", "levelset", ("extract_components",),
          lambda a, r: {"vertices": len(a["sample"].values)}),
    Layer("levelset.survival_curve_smc", "levelset", ("survival_curve_smc",), _smc),
    Layer("levelset.survival_direct", "levelset", ("survival_direct",),
          lambda a, r: {"draws": a["reps"]}),
    Layer("levelset.transfer_rate", "levelset", ("transfer_rate",),
          lambda a, r: {"kernel_bytes": 8 * a["m"] ** 3}),
    Layer("levelset.critical_threshold", "levelset", ("critical_threshold",)),
    Layer("levelset.haggstrom_alpha", "levelset", ("haggstrom_alpha",)),
    Layer("cli", "cli", ("run",), _out_bytes),
)


@dataclass
class Aggregate:
    """One layer over one list of spans.  Only outermost spans count as calls:
    a span nested in a span of the same layer adds no call, busy time or counts."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    errors: int = 0
    nested_rate_evals: int = 0
    counts: dict | None = field(default_factory=dict)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# (metric, unit, better, layer, value from the layer's Aggregate).  A metric
# whose value needs counts the layer could not supply is reported absent.
METRICS = (
    ("spectral.build_profile.busy_s", "s", "lower", "spectral.build_profile", lambda g: g.busy),
    ("tree.enumerate_ball.calls", "count", "lower", "tree.enumerate_ball", lambda g: g.calls),
    ("tree.enumerate_ball.vertices", "count", "lower", "tree.enumerate_ball",
     lambda g: g.counts["vertices"]),
    ("tree.enumerate_ball.busy_s", "s", "lower", "tree.enumerate_ball", lambda g: g.busy),
    ("tree.pairwise_distances.pairs", "count", "lower", "tree.pairwise_distances",
     lambda g: g.counts["pairs"]),
    ("tree.pairwise_distances.busy_s", "s", "lower", "tree.pairwise_distances", lambda g: g.busy),
    ("gaussian.assemble_covariance.entries", "count", "lower", "gaussian.assemble_covariance",
     lambda g: g.counts["entries"]),
    ("gaussian.assemble_covariance.self_s", "s", "lower", "gaussian.assemble_covariance",
     lambda g: g.self_time),
    ("gaussian.factor_psd.calls", "count", "lower", "gaussian.factor_psd", lambda g: g.calls),
    ("gaussian.factor_psd.busy_s", "s", "lower", "gaussian.factor_psd", lambda g: g.busy),
    ("gaussian.factor_psd.rank_frac", "ratio", "higher", "gaussian.factor_psd",
     lambda g: _ratio(g.counts["rank"], g.counts["dim"])),
    ("gaussian.orthant_edge_probability.calls", "count", "lower",
     "gaussian.orthant_edge_probability", lambda g: g.calls),
    ("gaussian.orthant_edge_probability.busy_s", "s", "lower",
     "gaussian.orthant_edge_probability", lambda g: g.busy),
    ("sampler.sample_ball_recursive.vertices", "count", "lower", "sampler.sample_ball_recursive",
     lambda g: g.counts["vertices"]),
    ("sampler.sample_ball_recursive.self_s", "s", "lower", "sampler.sample_ball_recursive",
     lambda g: g.self_time),
    ("sampler.sample_ball_recursive.vertices_per_s", "1/s", "higher",
     "sampler.sample_ball_recursive", lambda g: _ratio(g.counts["vertices"], g.busy)),
    ("sampler.sample_ball_dense.self_s", "s", "lower", "sampler.sample_ball_dense",
     lambda g: g.self_time),
    ("sampler.verify_eigen_residual.busy_s", "s", "lower", "sampler.verify_eigen_residual",
     lambda g: g.busy),
    ("sampler.verify_sphere_sums.busy_s", "s", "lower", "sampler.verify_sphere_sums",
     lambda g: g.busy),
    ("conditioned.build_gibbs_plan.busy_s", "s", "lower", "conditioned.build_gibbs_plan",
     lambda g: g.busy),
    ("conditioned.gibbs.updates", "count", "lower", "conditioned.gibbs",
     lambda g: g.counts["updates"]),
    ("conditioned.gibbs.busy_s", "s", "lower", "conditioned.gibbs", lambda g: g.busy),
    ("conditioned.gibbs.updates_per_s", "1/s", "higher", "conditioned.gibbs",
     lambda g: _ratio(g.counts["updates"], g.busy)),
    ("levelset.extract_components.busy_s", "s", "lower", "levelset.extract_components",
     lambda g: g.busy),
    ("levelset.extract_components.vertices_per_s", "1/s", "higher",
     "levelset.extract_components", lambda g: _ratio(g.counts["vertices"], g.busy)),
    ("levelset.survival_curve_smc.particle_steps", "count", "lower",
     "levelset.survival_curve_smc", lambda g: g.counts["particle_steps"]),
    ("levelset.survival_curve_smc.busy_s", "s", "lower", "levelset.survival_curve_smc",
     lambda g: g.busy),
    ("levelset.survival_curve_smc.particle_steps_per_s", "1/s", "higher",
     "levelset.survival_curve_smc", lambda g: _ratio(g.counts["particle_steps"], g.busy)),
    ("levelset.survival_curve_smc.survive_frac", "ratio", "higher",
     "levelset.survival_curve_smc", lambda g: _ratio(g.counts["survived"], g.counts["tried"])),
    ("levelset.survival_direct.busy_s", "s", "lower", "levelset.survival_direct",
     lambda g: g.busy),
    ("levelset.survival_direct.path_draws_per_s", "1/s", "higher", "levelset.survival_direct",
     lambda g: _ratio(g.counts["draws"], g.busy)),
    ("levelset.transfer_rate.calls", "count", "lower", "levelset.transfer_rate",
     lambda g: g.calls),
    ("levelset.transfer_rate.busy_s", "s", "lower", "levelset.transfer_rate", lambda g: g.busy),
    # Computed from m (8 m^3 bytes per call, averaged over calls), not measured.
    ("levelset.transfer_rate.kernel_mb", "MB", "lower", "levelset.transfer_rate",
     lambda g: _ratio(g.counts["kernel_bytes"] / 1e6, g.calls)),
    ("levelset.critical_threshold.busy_s", "s", "lower", "levelset.critical_threshold",
     lambda g: g.busy),
    ("levelset.critical_threshold.rate_evals", "count", "lower", "levelset.critical_threshold",
     lambda g: g.nested_rate_evals),
    ("levelset.critical_threshold.errors", "count", "lower", "levelset.critical_threshold",
     lambda g: g.errors),
    ("levelset.haggstrom_alpha.busy_s", "s", "lower", "levelset.haggstrom_alpha",
     lambda g: g.busy),
    ("cli.self_s", "s", "lower", "cli", lambda g: g.self_time),
    ("cli.bytes_out", "bytes", "lower", "cli", lambda g: g.counts["bytes_out"]),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: set[str] = set()  # layers with no entry point to wrap
        self.op: int | None = None
        self.pass_no: int | None = None
        self._stack: list[int] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "layer": layer.name,
                   "parent": stack[-1] if stack else None,
                   "op": self.op, "pass": self.pass_no, "error": False}
            spans.append(rec)
            stack.append(rec["id"])
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if layer.count is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec["counts"] = layer.count(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    rec["counts"] = None
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "treewaves" or name.startswith("treewaves."))]
        undo = []
        self.missing = set()
        try:
            for layer in LAYERS:
                home = sys.modules.get(f"treewaves.{layer.module}")
                found = False
                for entry in layer.entries:
                    fn = getattr(home, entry, None)
                    if not callable(fn):
                        continue
                    found = True
                    wrapper = self._wrap(layer, fn)
                    for mod in modules:
                        if mod.__dict__.get(entry) is fn:
                            undo.append((mod, entry, fn))
                            setattr(mod, entry, wrapper)
                if not found:
                    self.missing.add(layer.name)
            yield self
        finally:
            for mod, entry, fn in reversed(undo):
                setattr(mod, entry, fn)


def aggregate(spans: list[dict]) -> dict[str, Aggregate]:
    """Per-layer calls, busy and self time, errors and counts."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, Aggregate] = defaultdict(Aggregate)
    for s in spans:
        g = out[s["layer"]]
        dur = s["end"] - s["start"]
        g.self_time += dur - child_time[s["id"]]
        ancestors = []
        parent = s["parent"]
        while parent is not None:
            ancestors.append(by_id[parent]["layer"])
            parent = by_id[parent]["parent"]
        if s["layer"] == "levelset.transfer_rate" and "levelset.critical_threshold" in ancestors:
            out["levelset.critical_threshold"].nested_rate_evals += 1
        if s["layer"] in ancestors:
            continue
        g.calls += 1
        g.busy += dur
        g.errors += s["error"]
        if "counts" in s and g.counts is not None:
            if s["counts"] is None:
                g.counts = None
            else:
                for key, val in s["counts"].items():
                    g.counts[key] = g.counts.get(key, 0) + val
    return dict(out)


def layer_metrics(aggs: dict[str, Aggregate]) -> dict[str, float]:
    """Every per-layer metric computable from `aggs`; the rest are absent."""
    out = {}
    for name, _unit, _better, layer, value in METRICS:
        g = aggs.get(layer)
        if g is None:
            continue
        try:
            out[name] = float(value(g))
        except (KeyError, TypeError):
            continue
    return out
