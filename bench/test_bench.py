"""Self-tests of the benchmark: python3 -m pytest -q bench"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import treewaves as tw  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

COST_KEYS = ("d", "radius", "n", "particles", "reps", "sweeps", "burnin", "thin",
             "chains", "m", "method", "sampler")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(workload):
    first = workloads.generate(workload, 5)
    assert first == workloads.generate(workload, 5)
    other = workloads.generate(workload, 6)
    assert first != other
    # Seeds move inputs, not work: commands and cost-setting sizes stay put.
    if workload != "path":  # path draws d per op; its sizes are still fixed
        assert [(op.cmd, {k: op.params.get(k) for k in COST_KEYS}) for op in first] == \
               [(op.cmd, {k: op.params.get(k) for k in COST_KEYS}) for op in other]
    fracs = [op.params["lam"] / workloads.spectral_edge(op.params["d"]) for op in first]
    assert min(fracs) == -1.0 and max(fracs) == 1.0


@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path))


def _corrupt_csv_value(path, row):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("vertex,"))
    cells = lines[first + 1 + row].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    lines[first + 1 + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("sampler", ["recursive", "dense"])
def test_sample_ball_check_rejects_one_perturbed_value(runner, sampler):
    op = Op(0, "sample-ball", {"d": 3, "lam": 0.7, "radius": 4, "sampler": sampler, "seed": 3})
    o = runner.run(op)
    assert o.ok and runner.check(op, o) == ""
    _corrupt_csv_value(o.out, 17)
    assert "residual" in runner.check(op, o)


def test_pipeline_check_rejects_wrong_clusters(runner):
    op = Op(0, "pipeline", {"d": 3, "lam": -0.4, "radius": 6, "levels": (0.0, 0.8), "seed": 2})
    o = runner.run(op)
    assert o.ok and runner.check(op, o) == ""
    values, eigen, sphere, summaries = o.result
    swapped = (values, eigen, sphere, summaries[::-1])
    assert "clusters" in runner.check(op, run.Outcome(0.0, True, "", [], result=swapped))


def test_threshold_check_rejects_alpha_c_outside_bracket(runner):
    op = Op(0, "threshold", {"d": 3, "lam": 0.0, "tol": 1e-3})
    o = runner.run(op)
    assert o.ok and runner.check(op, o) == ""
    doc = checks.read_json(o.out)
    doc["alpha_c"] = doc["bracket"]["expdec"] + 0.1
    with open(o.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert "outside its bracket" in runner.check(op, o)


def test_rate_check_rejects_increasing_rate(runner):
    op = Op(0, "rate", {"d": 4, "lam": 1.0, "alphas": (-0.5, 0.0, 0.5), "m": 32})
    o = runner.run(op)
    assert o.ok and runner.check(op, o) == ""
    with open(o.out, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    a, b = lines[-2].split(","), lines[-1].split(",")
    a[1], b[1] = b[1], a[1]
    lines[-2], lines[-1] = ",".join(a), ",".join(b)
    with open(o.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert "not decreasing" in runner.check(op, o)


def test_direct_survival_check_uses_closed_form(runner):
    op = Op(0, "survival", {"d": 3, "lam": 1.0, "alpha": 0.3, "n": 2, "method": "direct",
                            "reps": 100_000, "seed": 4})
    o = runner.run(op)
    assert o.ok and runner.check(op, o) == ""
    doc = checks.read_json(o.out)
    doc["p_hat"] += 10 * math.sqrt(doc["p_hat"] / 100_000)
    with open(o.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert "exact" in runner.check(op, o)


def test_failing_op_is_counted_not_raised(runner):
    edge = workloads.spectral_edge(3)
    ops = [Op(0, "threshold", {"d": 3, "lam": -edge, "tol": 1e-4}),
           Op(1, "bounds", {"d": 3, "lam": 0.0})]
    digests, failures, tally = {}, {}, run.Tally()
    run.run_pass(runner, ops, digests, tally, failures)
    run.run_pass(runner, ops, digests, tally, failures)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 0)
    assert "collapsed" in failures[0]["error"]
    assert failures[0]["argv"][0] == "threshold"


def test_changed_rerun_is_wrong(runner):
    op = Op(0, "bounds", {"d": 3, "lam": 0.0})
    digests, failures, tally = {op.id: "stale"}, {}, run.Tally()
    run.run_pass(runner, [op], digests, tally, failures)
    assert (tally.failed, tally.wrong) == (1, 1)


def test_tracer_wraps_every_binding_and_restores():
    original = tw.enumerate_ball
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tw.enumerate_ball is not original
        assert tw.tree.enumerate_ball is tw.enumerate_ball
        prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 4)
        tw.sample_ball_recursive(prof, 2, np.random.default_rng(0))
    assert tw.enumerate_ball is original and tw.sampler.enumerate_ball is original
    aggs = tracing.aggregate(tracer.spans)
    assert aggs["tree.enumerate_ball"].counts == {"vertices": 10}
    metrics = tracing.layer_metrics(aggs)
    assert metrics["sampler.sample_ball_recursive.vertices"] == 10
    assert "conditioned.gibbs.busy_s" not in metrics  # layer not reached: absent
    assert not tracer.missing


def test_missing_layer_is_absent(monkeypatch):
    monkeypatch.delattr(tw.levelset, "haggstrom_alpha")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {"levelset.haggstrom_alpha"}


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
    layer = [(m[0], m[1], m[2]) for m in tracing.METRICS] + [("trace.overhead_s", "s", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "path", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_leaves_ten_ops_beyond_in_the_shortest_run():
    ops = 20
    latencies = [float(i) for i in range(run.MIN_PASSES * ops)]
    q, value = run.tail(latencies, ops)
    assert sum(x > value for x in latencies) >= run.TAIL_BEYOND
    assert q == 1.0 - run.TAIL_BEYOND / (run.MIN_PASSES * ops)
    # More passes of the same latencies read the same quantile.
    assert run.tail(latencies * 2, ops) == pytest.approx((q, value), rel=0.02)
