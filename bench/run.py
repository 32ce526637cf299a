"""treewaves benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's seeded op list (bench/workloads.py) in this process
through `treewaves.cli.run` and the library's public names, with the package
imported from this checkout's `src/`.  The op list is repeated in passes for
about S seconds (at least three passes, so every op is rerun and its output
compared byte for byte).  The first pass checks every output outside the timed
region (bench/checks.py).

--trace 0 prints the end-to-end metrics; set-up is timed in fresh processes.
--trace 1 alternates plain and traced passes and prints the per-layer metrics
(bench/tracing.py) plus trace.overhead_s; spans are written to
.bench_out/spans-<workload>-<seed>.jsonl.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it, starting with "report ", holds the
environment, code size, tail percentile, failure list and absent metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5  # at least; one more is taken after every pass
# Times are scaled to a machine on which probe() takes PROBE_REF_S: on a shared
# host the same op list ran up to 35% slower in one process than in the next,
# and a pure-Python loop timed next to each op tracks that (README.md).
PROBE_REF_S = 0.0035
MIN_PASSES = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import treewaves, treewaves.cli, workloads
workloads.generate({workload!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""


def _pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy loads.  The program's
    matrices are small (eigh of at most a few hundred rows), and on them extra
    OpenBLAS threads add synchronisation cost and run-to-run variance, not
    speed."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _git_commit() -> str:
    """HEAD from .git in this checkout, without running git (which would search
    parent directories when the checkout is not a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
    }


def code_size() -> dict:
    sizes = {}
    for path in sorted(glob.glob(os.path.join(SRC, "treewaves", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sizes[os.path.basename(path)] = sum(1 for _ in fh)
    return sizes


@dataclass
class Outcome:
    seconds: float
    ok: bool
    error: str
    argv: list
    out: str | None = None
    chain: str | None = None
    result: object = None

    def digest(self) -> str:
        h = hashlib.sha256(self.error.encode())
        if self.result is not None:
            values, eigen, sphere, summaries = self.result
            h.update(values.tobytes())
            h.update(repr((eigen, sphere, summaries)).encode())
        for path in (self.out, self.chain):
            if self.ok and path is not None:
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


class Runner:
    """Runs ops; only the op itself lies inside the timed region."""

    def __init__(self, tmp: str) -> None:
        import numpy as np
        import treewaves
        from treewaves import cli

        import checks
        import workloads

        self.np, self.tw, self.cli = np, treewaves, cli
        self.checks, self.workloads = checks, workloads
        self.tmp = tmp

    def run(self, op) -> Outcome:
        if op.cmd == "pipeline":
            return self._pipeline(op)
        out = os.path.join(self.tmp, f"op{op.id}.out")
        chain = os.path.join(self.tmp, f"op{op.id}.chain.csv") if op.cmd == "gibbs" else None
        argv = self.workloads.cli_argv(op, out, chain)
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.run(argv)
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
        error = err.getvalue().strip() if rc != 0 else ""
        if rc != 0 and not error:
            error = f"exit code {rc}"
        return Outcome(seconds, rc == 0, error, argv, out, chain)

    def _pipeline(self, op) -> Outcome:
        tw, np, p = self.tw, self.np, op.params
        argv = [f"pipeline {key}={val!r}" for key, val in p.items()]
        t0 = perf_counter()
        try:
            prof = tw.build_profile(tw.SpectralPoint(p["d"], p["lam"]), max(2, 2 * p["radius"]))
            rng = np.random.default_rng(np.random.SeedSequence(p["seed"]))
            sample = tw.sample_ball_recursive(prof, p["radius"], rng)
            result = (sample.values, tw.verify_eigen_residual(sample),
                      tw.verify_sphere_sums(sample),
                      [tw.extract_components(sample, a) for a in p["levels"]])
        except Exception as exc:  # a crash is a failed op, not a failed run
            return Outcome(perf_counter() - t0, False, f"{type(exc).__name__}: {exc}", argv)
        return Outcome(perf_counter() - t0, True, "", argv, result=result)

    def check(self, op, o: Outcome) -> str:
        """The reason the output is wrong, or '' when it is right."""
        try:
            if o.result is not None:
                self.checks.check_pipeline(op, o.result)
            else:
                self.checks.check_cli(op, o.out, o.chain)
        except (self.checks.CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs that failed a check or differed from the first pass


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now,
    measured without the program under test."""
    t0 = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i % 7
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two probes, at the reference machine speed."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def run_pass(runner: Runner, ops, digests: dict, tally: Tally, failures: dict,
             tracer=None) -> tuple[list[float], list[float]]:
    """One pass over the op list; returns each op's measured and scaled
    latency.  The first time an op is seen its output is checked; later
    passes must reproduce the same bytes."""
    raw, latencies = [], []
    before = probe()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        o = runner.run(op)
        after = probe()
        raw.append(o.seconds)
        latencies.append(scaled(o.seconds, before, after))
        before = after
        tally.attempted += 1
        problem = "" if o.ok else o.error
        if op.id not in digests:
            digests[op.id] = o.digest()
            if o.ok:
                problem = runner.check(op, o)
                tally.wrong += bool(problem)
        elif o.digest() != digests[op.id]:
            problem = "output differs from the first run of this op"
            tally.wrong += 1
        if problem:
            tally.failed += 1
            failures.setdefault(op.id, {"op": op.id, "argv": o.argv, "error": problem})
    if tracer is not None:
        tracer.op = None
    return raw, latencies


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(measured, scaled) set-up time of `repeats` fresh processes."""
    code = SETUP_CHILD.format(src=SRC, bench=BENCH, workload=workload, seed=seed)
    times = []
    before = probe()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        after = probe()
        seconds = float(proc.stdout.strip().splitlines()[-1])
        times.append((seconds, scaled(seconds, before, after)))
        before = after
    return times


def tail(latencies: list[float], ops_per_pass: int) -> tuple[float, float]:
    """(quantile, latency) at the highest quantile that leaves TAIL_BEYOND ops
    beyond it in a run of MIN_PASSES passes.  The quantile is fixed per
    workload, so a faster program that fits more passes reads the same one;
    interpolating between neighbouring samples keeps it from jumping between
    op kinds when the pass count changes."""
    q = 1.0 - TAIL_BEYOND / (MIN_PASSES * ops_per_pass)
    ordered = sorted(latencies)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return q, ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def untraced(runner: Runner, ops, args, report: dict) -> tuple[Tally, dict]:
    # Set-up is timed between passes, so its samples span the run like the
    # passes do instead of catching the machine in one moment.
    setup = measure_setup(args.workload, args.seed, 2)
    digests, failures, tally = {}, {}, Tally()
    walls, raw_walls, latencies, raw_latencies = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        raw, lats = run_pass(runner, ops, digests, tally, failures)
        walls.append(sum(lats))
        raw_walls.append(sum(raw))
        latencies += lats
        raw_latencies += raw
        setup += measure_setup(args.workload, args.seed, 1)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + (perf_counter() - t0) > args.seconds:
            break
    setup += measure_setup(args.workload, args.seed, max(0, SETUP_REPEATS - len(setup)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q, tail_s = tail(latencies, len(ops))
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report.update(
        passes=len(walls),
        wall_s_per_pass=walls,
        measured={
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(raw_walls),
            "op_p50_ms": 1e3 * statistics.median(raw_latencies),
            "op_tail_ms": 1e3 * tail(raw_latencies, len(ops))[1],
        },
        setup_s_samples=[t for _, t in setup],
        op_tail_quantile=q,
        op_latency_samples=len(latencies),
        failed_frac=tally.failed / tally.attempted,
        failures=list(failures.values()),
    )
    return tally, metrics


def traced(runner: Runner, ops, args, report: dict) -> tuple[Tally, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    digests, failures, tally = {}, {}, Tally()
    walls = {False: [], True: []}
    per_pass = []
    start = perf_counter()
    i = 0
    while True:
        t0 = perf_counter()
        on = i % 2 == 1
        if on:
            tracer.pass_no = i
            with tracer.installed():
                _, lats = run_pass(runner, ops, digests, tally, failures, tracer)
            per_pass.append(tracing.aggregate([s for s in tracer.spans if s["pass"] == i]))
        else:
            _, lats = run_pass(runner, ops, digests, tally, failures)
        walls[on].append(sum(lats))
        i += 1
        # Stop after a traced pass when another untraced/traced pair won't fit.
        elapsed = perf_counter() - start
        if on and elapsed + 2 * (perf_counter() - t0) > args.seconds:
            break
    reached = set(per_pass[0])
    samples = [tracing.layer_metrics(aggs) for aggs in per_pass]
    values = {name: statistics.median(s[name] for s in samples)
              for name in samples[0] if all(name in s for s in samples)}
    # Layers the workload never reaches are measured on the probe ops.
    tracer.pass_no = "probe"
    with tracer.installed():
        run_pass(runner, workloads.PROBE_OPS, {}, Tally(), {}, tracer)
    probe = tracing.aggregate([s for s in tracer.spans if s["pass"] == "probe"])
    probed = sorted(set(probe) - reached)
    probe_values = tracing.layer_metrics({k: probe[k] for k in probed})
    metrics, absent = {}, []
    for name, unit, _better, layer, _value in tracing.METRICS:
        value = values.get(name) if layer in reached else probe_values.get(name)
        if value is None:
            absent.append(name)
        else:
            metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, default=float) + "\n")
    report.update(
        passes={"untraced": len(walls[False]), "traced": len(walls[True])},
        wall_s_untraced=walls[False],
        wall_s_traced=walls[True],
        probed_layers=probed,
        missing_layers=sorted(tracer.missing),
        absent_metrics=absent,
        spans=os.path.relpath(spans_path, ROOT),
        failed_frac=tally.failed / tally.attempted,
        failures=list(failures.values()),
    )
    return tally, metrics


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "treewaves", "__init__.py")):
        print(f"error: no treewaves package under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [SRC, BENCH]
    import workloads

    parser = argparse.ArgumentParser(description="treewaves benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import treewaves

    if os.path.dirname(os.path.abspath(treewaves.__file__)) != os.path.join(SRC, "treewaves"):
        print(f"error: treewaves imported from {treewaves.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops_per_pass": len(ops), "environment": environment(),
              "code_lines": code_size()}
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR)
    try:
        runner = Runner(tmp)
        tally, metrics = (traced if args.trace else untraced)(runner, ops, args, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:14.6g} {unit}")
    print(f"{'failed_frac':46s} {report['failed_frac']:14.6g} ratio"
          f"  ({tally.failed} of {tally.attempted} ops)")
    for f in report["failures"]:
        print(f"failed op {f['op']}: {' '.join(f['argv'])}: {f['error']}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
