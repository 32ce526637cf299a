"""Contracts of the command's output and peak memory that CI once checked in
inline scripts, run here with the same commands and checks so that they also
fail locally."""

import json
import re

import pytest

import fresh
from test_readme import _cli_ids, _cli_lines
from tree_reference import ball_addresses, to_string

import treewaves as tw
from treewaves.cli import run


def test_large_csv_tables_read_back_field_by_field(tmp_path):
    # every field of a radius-14 ball and of a 32-chain Gibbs table reads back to its
    # own text, and the ball's vertex column is the plain-Python BFS of its addresses
    ball, chain = tmp_path / "ball.csv", tmp_path / "chain.csv"
    assert run(["sample-ball", "--d", "3", "--lambda", "0", "--radius", "14",
                "--sampler", "recursive", "--out", str(ball)]) == 0
    assert run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "40",
                "--sweeps", "2000", "--burnin", "100", "--thin", "5", "--chains", "32",
                "--out", str(tmp_path / "gibbs.json"), "--out-chain", str(chain)]) == 0
    for path in (ball, chain):
        header, *rows = [ln.split(",") for ln in path.read_text().splitlines()
                         if not ln.startswith("#")]
        assert {len(row) for row in rows} == {len(header)}
        if path == ball:
            assert [row[0] for row in rows] == [to_string(a) for a in ball_addresses(3, 14)]
        for col, fields in zip(header, zip(*rows)):
            if col == "value":
                bad = [f for f in fields if "%.17g" % float(f) != f]
            else:
                bad = [f for f in fields if col != "vertex" and str(int(f)) != f]
            assert bad == [], (path.name, col, bad[:10])


@pytest.mark.parametrize("argv", [
    ["--d", "3", "--lambda", "0"],
    ["--d", "3", "--lambda", "0", "--m", "128"],
    ["--d", "4", f"--lambda={-tw.spectral_edge(4)!r}"],
], ids=["d3", "d3-m128", "d4-lower-edge"])
def test_threshold_and_rate_print_the_same_rate_at_alpha_c(capsys, argv):
    # the rate `threshold` prints at alpha_c is, as text, the `r` that `rate` prints
    # at the printed alpha_c with the same --m
    assert run(["threshold", *argv]) == 0
    doc = capsys.readouterr().out
    alpha_c, rate = (re.search(rf'^  "{key}": (\S+),$', doc, re.M).group(1)
                     for key in ("alpha_c", "rate_at_alpha_c"))
    assert run(["rate", *argv, f"--alphas={alpha_c}"]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split(",")[1] == rate, f"alpha_c {alpha_c}: threshold rate {rate}, rate row {row}"


@pytest.mark.parametrize("line", _cli_lines(), ids=_cli_ids())
def test_readme_cli_line_raises_no_numerical_warning(line):
    # the line in a fresh interpreter with RuntimeWarning as an error exits 0
    # and writes nothing to stderr
    done = fresh.line_run(line)
    assert done.returncode == 0 and done.stderr == "", done.stderr[-500:]


def _same_bytes(line, **factor):
    """The line writes the same bytes in its baseline run and with one factor changed."""
    one, two = fresh.line_run(line), fresh.line_run(line, **factor)
    for done in (one, two):
        assert done.returncode == 0, done.stderr[-500:]
    assert one.outputs == two.outputs


@pytest.mark.parametrize("line", _cli_lines(), ids=_cli_ids())
def test_readme_cli_output_does_not_depend_on_the_hash_seed(line):
    _same_bytes(line, hash_seed="2")


# The README lines that never call the dense sampler's eigendecomposition, whose
# bits may follow the BLAS thread count.
OFF_DENSE = [(line.replace("--sampler both", "--sampler recursive"), name)
             for line, name in zip(_cli_lines(), _cli_ids())
             if line.split()[1] in ("sample-ball", "verify", "survival", "gibbs")]


def test_five_readme_lines_run_off_the_dense_sampler():
    assert len(OFF_DENSE) == 5 and not any("dense" in line for line, _ in OFF_DENSE)


# Lines whose rates come from transfer_rate at m = 256 and 512, where matmul
# runs on more than one BLAS thread when it has them.
TRANSFER = [("treewaves rate --d 3 --lambda 0 --alphas=-0.5,0,0.5 --m 256", "rate-m256"),
            ("treewaves threshold --d 3 --lambda 0 --m 512", "threshold-m512")]


@pytest.mark.parametrize("line", [line for line, _ in OFF_DENSE + TRANSFER],
                         ids=[n for _, n in OFF_DENSE + TRANSFER])
def test_recursive_and_path_output_does_not_depend_on_the_blas_thread_count(line):
    _same_bytes(line, blas_threads="2")


def _checked_verify(out):
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("argv, ceiling_mb, check", [
    (["verify", "--d", "3", "--lambda", "0", "--radius", "16", "--reps", "100",
      "--sampler", "recursive"], 200, _checked_verify),
    (["sample-path", "--d", "3", "--lambda", "0", "--n", "10000"], 64, None),
    (["survival", "--d", "3", "--lambda", "0", "--alpha", "0.25", "--n", "50",
      "--method", "smc", "--particles", "1000000"], 128, None),
], ids=["verify-radius-16", "sample-path-n-10000", "survival-smc-10^6"])
def test_command_peak_rss_stays_under_its_ceiling(argv, ceiling_mb, check):
    out, rss_mb = fresh.peak_rss_mb(argv)
    if check is not None:
        check(out)
    assert rss_mb < ceiling_mb, f"{argv[0]} peaked at {rss_mb:.0f} MB"
