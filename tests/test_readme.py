"""The README's examples run as written and state what they return."""

import argparse
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import treewaves as tw
from treewaves.cli import _build_parser, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_lines() -> list[str]:
    text = "\n".join(_blocks("sh")).replace("\\\n", " ")
    return [ln for ln in text.splitlines() if ln.startswith("treewaves ")]


def test_readme_shows_every_subcommand():
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {line.split()[1] for line in _cli_lines()} == set(subs.choices)


def _cli_ids() -> list[str]:
    """Each line's subcommand; a repeated one adds its --method value."""
    ids: list[str] = []
    for line in _cli_lines():
        words = shlex.split(line, comments=True)
        name = words[1]
        if name in ids and "--method" in words:
            name += "-" + words[words.index("--method") + 1]
        ids.append(name)
    return ids


@pytest.mark.parametrize("line", _cli_lines(), ids=_cli_ids())
def test_readme_cli_line_runs(line, tmp_path):
    argv = shlex.split(line, comments=True)[1:]
    argv = [str(tmp_path / a) if a == "chain.csv" else a for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_readme_library_quick_start():
    (block,) = _blocks("python")
    ns: dict = {}
    exec(block, ns)
    # the values the block's comments state
    assert "1, 0, -0.5, 0" in block
    np.testing.assert_allclose(ns["prof"].phi[:4], [1.0, 0.0, -0.5, 0.0], rtol=0, atol=1e-12)
    assert "3.0" in block
    assert ns["prof"].big_phi == pytest.approx(3.0, abs=1e-9)
    assert "(4, 300, 20)" in block
    assert ns["states"].shape == (4, 300, 20)
    assert "1000 uniforms back to 4e-15" in block
    u = np.random.default_rng(1).random(1000)
    np.testing.assert_allclose(tw.kesten_mckay_cdf(3, ns["lams"]), u, rtol=0, atol=4e-15)
