"""The benchmark binds the package by name: `bench/*.py` calls `tw.<name>`,
and the tracer in `bench/tracing.py` wraps the entry points listed in
`LAYERS`.  The tracer skips a missing entry without failing, so a renamed or
deleted function would drop out of the measurements unnoticed; the first two
tests read the benchmark sources and fail instead.

A layer can also vanish while its entry point still exists, when no op calls
it any more: the benchmark measures the layers a workload never reaches on its
probe ops, so the last test runs those ops under the tracer (importing the
benchmark modules, never editing them) and fails when a layer or a per-layer
metric goes missing.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import treewaves as tw
import treewaves.cli  # noqa: F401  (bench/run.py imports it, binding tw.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layers() -> list[tuple[str, str, tuple[str, ...]]]:
    """(name, module, entry points) of every Layer(...) in tracing.LAYERS."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [
                (call.args[0].value, call.args[1].value,
                 tuple(e.value for e in call.args[2].elts))
                for call in node.value.elts
            ]
    raise AssertionError("bench/tracing.py defines no LAYERS")


def test_bench_names_exist_on_the_package():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        names |= set(re.findall(r"\b(?:tw|treewaves)\.([A-Za-z_]\w*)", path.read_text()))
    assert names  # the pattern still matches how the benchmark binds the package
    assert sorted(n for n in names if not hasattr(tw, n)) == []


def test_every_traced_layer_has_an_entry_point():
    layers = _layers()
    assert layers
    missing = [
        name for name, module, entries in layers
        if not any(callable(getattr(importlib.import_module(f"treewaves.{module}"), e, None))
                   for e in entries)
    ]
    assert missing == []


def test_probe_ops_reach_every_traced_layer(monkeypatch, tmp_path):
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        import run
        import tracing
        import workloads

        runner = run.Runner(str(tmp_path))
        tracer = tracing.Tracer()
        with tracer.installed():
            outcomes = [runner.run(op) for op in workloads.PROBE_OPS]
    finally:  # the benchmark modules have generic names; unbind them again
        for name in {path.stem for path in BENCH.glob("*.py")} - before:
            sys.modules.pop(name, None)
    # Output checks are not run: some probe ops are too small to pass them,
    # and the benchmark discards probe tallies.
    assert [o.error for o in outcomes if not o.ok] == []
    assert tracer.missing == set()
    spanned = {span["layer"] for span in tracer.spans}
    assert sorted(layer.name for layer in tracing.LAYERS if layer.name not in spanned) == []
    metrics = tracing.layer_metrics(tracing.aggregate(tracer.spans))
    assert sorted(m[0] for m in tracing.METRICS if m[0] not in metrics) == []
