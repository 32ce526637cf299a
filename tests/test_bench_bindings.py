"""The benchmark binds the package by name: `bench/*.py` calls `tw.<name>`,
and the tracer in `bench/tracing.py` wraps the entry points listed in
`LAYERS`.  The tracer skips a missing entry without failing, so a renamed or
deleted function would drop out of the measurements unnoticed; these tests
read the benchmark sources, without importing or editing them, and fail
instead.
"""

import ast
import importlib
import re
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
