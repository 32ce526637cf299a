"""The package namespace: what `from treewaves import *` binds."""

import types

import treewaves as tw


def test_all_lists_no_submodule():
    for name in tw.__all__:
        assert not isinstance(getattr(tw, name), types.ModuleType), name
    ns: dict = {}
    exec("from treewaves import *", ns)
    assert "build_profile" in ns and "retained_sweeps" in ns
    assert "levelset" not in ns and "errors" not in ns
