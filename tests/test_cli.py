import json

import numpy as np
import pytest
from scipy.special import ndtr

import treewaves as tw
from treewaves.cli import run

GOLDEN_PROFILE = (
    "# schema_version=1\n"
    "# tool=treewaves 0.1.0\n"
    "# d=3\n"
    "# lambda=0\n"
    "# seed=0\n"
    "# big_phi=2.9999999999999964\n"
    "n,phi\n"
    "0,1\n"
    "1,0\n"
    "2,-0.5\n"
    "3,-0\n"
    "4,0.25\n"
)


def test_profile_golden_output(tmp_path):
    out = tmp_path / "prof.csv"
    assert run(["profile", "--d", "3", "--lambda", "0", "--n", "4", "--out", str(out)]) == 0
    assert out.read_text() == GOLDEN_PROFILE


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["profile", "--d", "4", "--lambda", "1.5", "--n", "6"]
    assert run(argv) == 0
    shown = capsys.readouterr().out
    out = tmp_path / "p.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert shown == out.read_text()


def test_exit_codes(tmp_path, monkeypatch):
    assert run(["profile", "--d", "2", "--lambda", "0", "--n", "4"]) == 2
    assert run(["profile", "--d", "3", "--lambda", "99", "--n", "4"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["profile", "--d", "3", "--lambda", "0", "--n", "4", "--bogus"]) == 2

    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "critical_threshold", boom)
    assert run(["threshold", "--d", "3", "--lambda", "0"]) == 1


def test_deterministic_commands_take_no_seed(tmp_path):
    for argv in (
        ["bounds", "--d", "3", "--lambda", "0"],
        ["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-2", "--m", "16"],
        ["rate", "--d", "3", "--lambda", "0", "--alphas=0", "--m", "16"],
    ):
        assert run(argv + ["--seed", "1"]) == 2
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        assert "seed" in out.read_text()  # metadata still records the default 0


def test_reruns_byte_identical(tmp_path):
    for argv in (
        ["profile", "--d", "5", "--lambda", "-2.0", "--n", "12"],
        ["sample-ball", "--d", "3", "--lambda", "1.0", "--radius", "3", "--seed", "4", "--sampler", "recursive"],
        ["verify", "--d", "3", "--lambda", "0", "--radius", "2", "--reps", "50", "--seed", "2", "--sampler", "both"],
        ["bounds", "--d", "4", "--lambda", "1.0"],
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_outputs_carry_metadata_and_no_timestamps(tmp_path):
    out = tmp_path / "ball.csv"
    run(["sample-ball", "--d", "3", "--lambda", "1.0", "--radius", "2", "--seed", "4", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "# tool=treewaves 0.1.0"
    assert not any(ch.isalpha() and ":" in ln for ln in lines for ch in ln if ln.startswith("#") and "T" in ln)
    joined = "\n".join(lines)
    assert "202" not in joined.split("tool=")[0]  # no dates anywhere in the header


def test_sample_ball_csv_contents(tmp_path):
    out = tmp_path / "ball.csv"
    run(["sample-ball", "--d", "3", "--lambda", "0.5", "--radius", "2", "--seed", "6", "--out", str(out)])
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "vertex,depth,value"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == tw.ball_vertex_count(3, 2)
    for vertex, depth, value in body:
        v = tw.VertexId.from_string(3, vertex)
        assert v.depth == int(depth)
        float(value)

    other = tmp_path / "dense.csv"
    run(["sample-ball", "--d", "3", "--lambda", "0.5", "--radius", "2", "--seed", "6",
         "--sampler", "dense", "--out", str(other)])
    dense_rows = [ln for ln in other.read_text().splitlines() if not ln.startswith("#")]
    assert [r.split(",")[0] for r in dense_rows[1:]] == [r[0] for r in body]


def test_verify_json_passes(tmp_path):
    out = tmp_path / "v.json"
    run(["verify", "--d", "4", "--lambda", "-1.0", "--radius", "2", "--reps", "100",
         "--seed", "3", "--sampler", "both", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert {r["sampler"] for r in doc["results"]} == {"dense", "recursive"}
    for r in doc["results"]:
        assert r["pass"] is True
        assert r["max_eigen_residual"] <= r["tolerance"]
        assert r["max_sphere_residual"] <= r["tolerance"]


def test_survival_direct_json_accuracy(tmp_path):
    out = tmp_path / "s.json"
    run(["survival", "--d", "3", "--lambda", "0", "--alpha", "0.5", "--n", "1",
         "--method", "direct", "--reps", "100000", "--seed", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    q = float(ndtr(-0.5))
    assert abs(doc["p_hat"] - q) <= 4.5 * doc["stderr"]
    assert doc["method"] == "direct"
    assert doc["collapsed"] is False


def test_gibbs_json_and_chain_csv(tmp_path):
    out = tmp_path / "g.json"
    chain_csv = tmp_path / "g.csv"
    run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "4",
         "--sweeps", "60", "--burnin", "20", "--thin", "4", "--chains", "2",
         "--seed", "5", "--out", str(out), "--out-chain", str(chain_csv)])
    doc = json.loads(out.read_text())
    kept = (60 - 20) // 4
    assert doc["retained"] == 2 * kept
    assert doc["center_coordinate"] == 2  # (n + 1) // 2 with 1-based labels
    assert doc["ess"] > 0
    assert all(p["p_hat"] <= 1.0 for p in doc["tail"])

    rows = [ln for ln in chain_csv.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "chain,sweep,coordinate,value"
    assert len(rows) - 1 == 2 * kept * 4
    for r in rows[1:]:
        chain, sweep, coord, value = r.split(",")
        assert int(chain) in (0, 1)
        assert int(sweep) > 20
        assert 1 <= int(coord) <= 4
        assert float(value) > 0.0  # every retained coordinate is above the level

    single = tmp_path / "g1.csv"
    run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "4",
         "--sweeps", "60", "--burnin", "20", "--thin", "4",
         "--seed", "5", "--out-chain", str(single)])
    rows1 = [ln for ln in single.read_text().splitlines() if not ln.startswith("#")]
    assert rows1[0] == "sweep,coordinate,value"  # no chain column for a single chain


def test_rate_csv(tmp_path):
    out = tmp_path / "r.csv"
    run(["rate", "--d", "3", "--lambda", "0", "--alphas=-0.5,0,0.5", "--m", "32", "--out", str(out)])
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "alpha,r,stderr_or_tol"
    vals = [tuple(map(float, r.split(","))) for r in rows[1:]]
    assert [v[0] for v in vals] == [-0.5, 0.0, 0.5]
    assert vals[0][1] > vals[1][1] > vals[2][1]

    grid = tmp_path / "rg.csv"
    run(["rate", "--d", "3", "--lambda", "0", "--alpha-min", "0", "--alpha-max", "1",
         "--alpha-steps", "3", "--m", "32", "--out", str(grid)])
    rows = [ln for ln in grid.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 4


def test_threshold_json_keys(tmp_path):
    out = tmp_path / "t.json"
    run(["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["bracket"]["haggstrom"] < doc["alpha_c"] < doc["bracket"]["expdec"]
    assert doc["target_rate"] == 0.5
    assert abs(doc["rate_at_alpha_c"] - 0.5) < 0.05
    assert doc["quadrature"]["m"] == 64


def test_bounds_json(tmp_path):
    out = tmp_path / "b.json"
    run(["bounds", "--d", "3", "--lambda", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["haggstrom_alpha"] == pytest.approx(-0.90209418401443608, abs=1e-9)
    assert doc["expdec_alpha"] == pytest.approx(np.sqrt(12.0), rel=1e-9)
    assert doc["big_phi"] == pytest.approx(3.0, abs=1e-9)
