import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import treewaves as tw
from treewaves import cli, levelset, textio
from treewaves.cli import (
    DIRECT_MAX_REPS,
    GIBBS_MAX_VALUES,
    PATH_CSV_MAX_N,
    PATH_MAX_N,
    RATE_MAX_STEPS,
    SMC_MAX_PARTICLES,
    _VERIFY_BLOCK_VALUES,
    _build_parser,
    run,
)

from tree_reference import ball_addresses, to_string

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

    # malformed comma lists are invalid input, not runtime failures
    assert run(["rate", "--d", "3", "--lambda", "0", "--alphas=0,x", "--m", "16"]) == 2
    assert run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "4",
                "--sweeps", "40", "--tail-grid", "1,,2", "--out", str(tmp_path / "g")]) == 2

    # verify with no reps has nothing to check: invalid, rejected before any work
    monkeypatch.setattr(cli_mod, "build_profile", boom)
    for reps in ("0", "-5"):
        assert run(["verify", "--d", "3", "--lambda", "0", "--radius", "2", "--reps", reps]) == 2


def test_sample_path_budget_rejected_before_any_work(monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    for n in (PATH_CSV_MAX_N + 1, 10**9):
        assert run(["sample-path", "--d", "3", "--lambda", "0", "--n", str(n)]) == 2
        assert "budget" in capsys.readouterr().err
    # an n inside the budget does reach the (patched) work
    assert run(["sample-path", "--d", "3", "--lambda", "0", "--n", "5"]) == 1


def test_path_budget_rejected_before_any_work(monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    commands = (
        ["survival", "--method", "direct", "--reps", "1"],
        ["survival", "--method", "smc"],
        ["gibbs", "--sweeps", "2", "--burnin", "0", "--thin", "1"],
    )
    for command in commands:
        argv = command + ["--d", "3", "--lambda", "0", "--alpha", "0", "--n"]
        for n in (PATH_MAX_N + 1, 10**8):
            assert run(argv + [str(n)]) == 2
            err = capsys.readouterr().err
            assert "budget" in err and "--n" in err
        # an n inside the budget does reach the (patched) work
        assert run(argv + ["5"]) == 1


def test_particle_and_step_budgets_rejected_before_any_work(monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    # (command, the last flag's largest value inside the budget, budget)
    cases = (
        (["survival", "--method", "smc", "--alpha", "0", "--n", "5", "--particles"],
         SMC_MAX_PARTICLES, SMC_MAX_PARTICLES),
        (["rate", "--alpha-steps"], RATE_MAX_STEPS, RATE_MAX_STEPS),
        (["survival", "--method", "direct", "--alpha", "0", "--n", "5", "--reps"],
         DIRECT_MAX_REPS, DIRECT_MAX_REPS),
        # one coordinate and one retained sweep: (1 + 4) state + 1 output values per chain
        (["gibbs", "--alpha", "0", "--n", "1", "--sweeps", "1", "--burnin", "0", "--thin",
          "1", "--chains"], GIBBS_MAX_VALUES // 6, GIBBS_MAX_VALUES),
    )
    for command, largest, budget in cases:
        argv = command[:1] + ["--d", "3", "--lambda", "0"] + command[1:]
        for value in (largest + 1, 10**9):
            assert run(argv + [str(value)]) == 2
            assert f"over the budget of {budget}" in capsys.readouterr().err
        # a value at the budget does reach the (patched) work
        assert run(argv + [str(largest)]) == 1
    # direct survival needs a draw
    for reps in ("0", "-5"):
        assert run(["survival", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "5",
                    "--method", "direct", "--reps", reps]) == 2
        assert "--reps" in capsys.readouterr().err


def test_negative_seed_rejected_before_any_work(monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    monkeypatch.setattr(cli_mod, "shell_sizes", boom)
    for argv in (
        ["sample-ball", "--radius", "2"],
        ["sample-path", "--n", "5"],
        ["verify", "--radius", "2"],
        ["gibbs", "--n", "5", "--alpha", "0", "--sweeps", "20", "--burnin", "0", "--thin", "1"],
        ["survival", "--n", "5", "--alpha", "0"],
    ):
        assert run(argv + ["--d", "3", "--lambda", "0", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        # seed 0 does reach the (patched) work
        assert run(argv + ["--d", "3", "--lambda", "0", "--seed", "0"]) == 1


def test_gibbs_without_retained_sweeps_rejected_before_any_sweep(monkeypatch, capsys):
    import treewaves.conditioned as conditioned_mod

    def boom(*a, **k):
        raise RuntimeError("sweep ran")

    monkeypatch.setattr(conditioned_mod, "_truncated_inverse", boom)
    argv = ["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "40",
            "--sweeps", "20000", "--burnin", "19995", "--thin", "10", "--chains", "8"]
    assert run(argv) == 2
    assert "no retained sweeps" in capsys.readouterr().err


@pytest.mark.parametrize("flags, rule", [
    (["--sweeps", "1"], "no retained sweeps"),
    (["--sweeps", "1010", "--chains", "0"], "chains must be >= 1"),
    (["--sweeps", "1010", "--thin", "0"], "thin must be >= 1"),
    (["--sweeps", "1010", "--alpha", "nan"], "--alpha: 'nan' is not a finite number"),
], ids=["no-retained-sweep", "chains", "thin", "alpha"])
def test_gibbs_schedule_and_level_rejected_before_the_plan(flags, rule, monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("plan built")

    monkeypatch.setattr(cli_mod, "build_gibbs_plan", boom)
    argv = ["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "1000000"]
    assert run(argv + flags) == 2
    assert rule in capsys.readouterr().err
    # a valid schedule does reach the (patched) plan
    assert run(argv + ["--sweeps", "1010"]) == 1


def test_dense_ball_budget_rejected_before_covariance(tmp_path, monkeypatch, capsys):
    import treewaves.sampler as sampler_mod

    def boom(*a, **k):
        raise RuntimeError("covariance assembled")

    monkeypatch.setattr(sampler_mod, "assemble_covariance", boom)
    for argv in (
        ["sample-ball", "--d", "3", "--lambda", "0", "--radius", "10", "--sampler", "dense"],
        ["verify", "--d", "3", "--lambda", "0", "--radius", "10", "--reps", "1",
         "--sampler", "dense"],
    ):
        assert run(argv) == 2
        assert "budget" in capsys.readouterr().err
    # r=9 (1534 vertices) is inside the dense budget and reaches the (patched)
    # assembly; the recursive sampler takes r=10
    assert run(["sample-ball", "--d", "3", "--lambda", "0", "--radius", "9",
                "--sampler", "dense"]) == 1
    assert run(["sample-ball", "--d", "3", "--lambda", "0", "--radius", "10",
                "--sampler", "recursive", "--out", str(tmp_path / "b.csv")]) == 0


@pytest.mark.parametrize("argv", [
    ["sample-ball", "--sampler", "dense"],
    ["sample-ball", "--sampler", "recursive"],
    ["verify", "--reps", "1"],
    ["verify", "--reps", "1", "--sampler", "recursive"],
], ids=["sample-ball-dense", "sample-ball-recursive", "verify", "verify-recursive"])
def test_huge_radius_rejected_with_a_short_message(argv, monkeypatch, capsys):
    # the exact vertex count at this radius has 301030 digits, and the
    # profile to distance 2 * radius would take seconds: neither is computed
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("profile built")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    assert run(argv[:1] + ["--d", "3", "--lambda", "0", "--radius", "1000000"] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    assert len(err) < 200


def test_path_commands_build_the_profile_to_two(monkeypatch, tmp_path):
    # the path step table reads phi(1) and phi(2) only
    import treewaves.cli as cli_mod

    built = []
    real = cli_mod.build_profile
    monkeypatch.setattr(cli_mod, "build_profile",
                        lambda point, n_max: built.append(n_max) or real(point, n_max))
    common = ["--d", "3", "--lambda", "0", "--n", "50", "--out", str(tmp_path / "o")]
    assert run(["sample-path"] + common) == 0
    assert run(["survival", "--alpha", "0", "--particles", "1000"] + common) == 0
    assert run(["survival", "--alpha", "0", "--method", "direct", "--reps", "100"] + common) == 0
    assert run(["gibbs", "--alpha", "0", "--sweeps", "20", "--burnin", "10", "--thin", "1"]
               + common) == 0
    assert built == [2, 2, 2, 2]


def test_quadrature_size_over_the_cap_rejected_before_any_nodes(monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("nodes built")

    monkeypatch.setattr(levelset, "leggauss", boom)
    for argv in (
        ["rate", "--d", "3", "--lambda", "0", "--alphas=0", "--m", "1025"],
        ["threshold", "--d", "3", "--lambda", "0", "--m", "100000"],
    ):
        assert run(argv) == 2
        assert "quadrature size m" in capsys.readouterr().err


def test_rate_rejects_a_level_with_more_kernel_blocks_than_nodes(capsys):
    # at d = 3, +edge, alpha = -1e9 needs 8.7e8 blocks: exit 2 before any block edge is built
    for alpha in ("-1e9", "-100"):
        argv = ["rate", "--d", "3", f"--lambda={tw.spectral_edge(3)!r}", f"--alphas={alpha}"]
        assert run(argv + ["--m", "64"]) == 2
        assert f"alpha={float(alpha)!r} needs" in capsys.readouterr().err


def test_threshold_search_errors(monkeypatch):
    # --m is checked before the search computes its bracket
    assert run(["threshold", "--d", "3", "--lambda", "0", "--m", "8"]) == 2
    # a rate that never crosses 1/(d-1) leaves brentq without a sign change
    monkeypatch.setattr(levelset, "transfer_rate", lambda *a, **k: 0.9)
    with pytest.raises(ValueError):
        tw.critical_threshold(tw.build_profile(tw.SpectralPoint(3, 0.0), 2))
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
        ["sample-path", "--d", "4", "--lambda", "-1.0", "--n", "30", "--seed", "3"],
        ["sample-ball", "--d", "4", "--lambda", "0.5", "--radius", "3", "--seed", "4", "--sampler", "dense"],
        ["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "6", "--sweeps", "50",
         "--burnin", "10", "--thin", "2", "--chains", "3", "--seed", "7"],
    ):
        written = []
        for name in ("a", "b"):
            files = [tmp_path / name, tmp_path / f"{name}.chain"]
            chain = ["--out-chain", str(files[1])] if argv[0] == "gibbs" else []
            assert run(argv + chain + ["--out", str(files[0])]) == 0
            written.append([f.read_bytes() for f in files if f.exists()])
        assert written[0] == written[1]


def test_shared_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    # run reuses one parser; each output equals a run through a newly built one
    import treewaves.cli as cli_mod

    assert _build_parser() is _build_parser()
    argvs = [
        ["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-2", "--m", "16"],
        ["rate", "--d", "4", "--lambda", "1.0", "--alphas=0,1", "--m", "16"],
        ["bounds", "--d", "5", "--lambda", "-1.0"],
        ["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-2", "--m", "16"],
    ]
    shared = []
    for k, argv in enumerate(argvs):
        assert run(argv + ["--out", str(tmp_path / f"shared{k}")]) == 0
        shared.append((tmp_path / f"shared{k}").read_bytes())
    monkeypatch.setattr(cli_mod, "_build_parser", _build_parser.__wrapped__)
    for k, argv in enumerate(argvs):
        assert run(argv + ["--out", str(tmp_path / f"fresh{k}")]) == 0
        assert (tmp_path / f"fresh{k}").read_bytes() == shared[k]
    monkeypatch.undo()
    capsys.readouterr()
    for _ in range(2):
        assert run(["bounds", "--d", "3", "--lambda", "0", "--bogus"]) == 2
        assert "--bogus" in capsys.readouterr().err
        assert run(["--version"]) == 0
        assert capsys.readouterr().out == "treewaves 0.1.0\n"


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
    ref = ball_addresses(3, 2)
    assert [(vertex, int(depth)) for vertex, depth, _ in body] == [
        (to_string(a), len(a)) for a in ref
    ]
    for _, _, value in body:
        float(value)

    other = tmp_path / "dense.csv"
    run(["sample-ball", "--d", "3", "--lambda", "0.5", "--radius", "2", "--seed", "6",
         "--sampler", "dense", "--out", str(other)])
    dense_rows = [ln for ln in other.read_text().splitlines() if not ln.startswith("#")]
    assert [r.split(",")[0] for r in dense_rows[1:]] == [r[0] for r in body]


def test_sample_ball_csv_with_two_digit_labels(tmp_path):
    out = tmp_path / "ball11.csv"
    run(["sample-ball", "--d", "11", "--lambda", "0", "--radius", "3", "--sampler", "recursive",
         "--out", str(out)])
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    body = [r.split(",") for r in rows[1:]]
    ref = ball_addresses(11, 3)
    assert len(body) == len(ref) == 1222
    assert [(vertex, int(depth)) for vertex, depth, _ in body] == [
        (to_string(a), len(a)) for a in ref
    ]


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


def test_verify_reports_the_per_rep_maxima_in_draw_order(tmp_path):
    # dense: one sample_ball_dense draw per rep; recursive: right after them,
    # sample_ball_recursive_many blocks of at most _VERIFY_BLOCK_VALUES values
    d, lam, r, reps, seed = 3, 0.7, 8, 700, 8
    out = tmp_path / "v.json"
    assert run(["verify", "--d", str(d), "--lambda", str(lam), "--radius", str(r),
                "--reps", str(reps), "--seed", str(seed), "--sampler", "both",
                "--out", str(out)]) == 0
    dense, recursive = json.loads(out.read_text())["results"]

    prof = tw.build_profile(tw.SpectralPoint(d, lam), 2 * r)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    samples = [tw.sample_ball_dense(prof, r, rng) for _ in range(reps)]
    rows = _VERIFY_BLOCK_VALUES // tw.ball_vertex_count(d, r)
    assert 1 < rows < reps  # several recursive blocks, the last one short
    for lo in range(0, reps, rows):
        ball, block = tw.sample_ball_recursive_many(prof, r, min(rows, reps - lo), rng)
        samples += [tw.BallSample(profile=prof, ball=ball, values=v, sampler="recursive")
                    for v in block]
    for res, part in ((dense, samples[:reps]), (recursive, samples[reps:])):
        assert res["max_eigen_residual"] == max(map(tw.verify_eigen_residual, part))
        assert res["max_sphere_residual"] == max(map(tw.verify_sphere_sums, part))
        assert res["scale"] == max(map(tw.sample_scale, part))
        assert res["pass"] is True


def test_verify_recursive_blocks_bound_memory(tmp_path):
    # 40 reps of a 49150-vertex ball: one block of every rep peaks over
    # 40 MiB under tracemalloc, blocks of at most 2^18 values under 10 MiB
    out = tmp_path / "v.json"
    tracemalloc.start()
    try:
        rc = run(["verify", "--d", "3", "--lambda", "0.3", "--radius", "14", "--reps", "40",
                  "--sampler", "recursive", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and json.loads(out.read_text())["pass"] is True
    assert peak < 16 * 2**20


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
    # every row against the library run at the same seed, chain-major
    prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 4)
    states = tw.gibbs_run(tw.build_gibbs_plan(prof, 4), 0.0, 60, 20, 4,
                          np.random.default_rng(np.random.SeedSequence(5)), 2)
    expect = [f"{c},{20 + (i + 1) * 4},{k + 1},{states[c, i, k]:.17g}"
              for c in range(2) for i in range(kept) for k in range(4)]
    assert rows[1:] == expect

    single = tmp_path / "g1.csv"
    run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "4",
         "--sweeps", "60", "--burnin", "20", "--thin", "4",
         "--seed", "5", "--out-chain", str(single)])
    rows1 = [ln for ln in single.read_text().splitlines() if not ln.startswith("#")]
    assert rows1[0] == "sweep,coordinate,value"  # no chain column for a single chain
    states = tw.gibbs_run(tw.build_gibbs_plan(prof, 4), 0.0, 60, 20, 4,
                          np.random.default_rng(np.random.SeedSequence(5)), 1)
    assert rows1[1:] == [f"{20 + (i + 1) * 4},{k + 1},{states[0, i, k]:.17g}"
                         for i in range(kept) for k in range(4)]


def test_gibbs_chain_csv_builds_its_index_columns_per_block(tmp_path):
    # 5 * 10^6 retained values: whole-table index columns took the peak RSS
    # from 93 MB (no --out-chain) to 289 MB; built per block it stays under 150 MB.
    chain = tmp_path / "chain.csv"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    peak = ("import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    argv = ["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "1000", "--sweeps", "5100",
            "--burnin", "100", "--thin", "1", "--seed", "1", "--out-chain", str(chain)]
    proc = subprocess.run([sys.executable, "-c", peak, sys.executable, "-m", "treewaves", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 150
    # the rows are the bytes per-value `%` formatting of the whole table wrote
    text = chain.read_bytes()
    rows = text[text.index(b"\nsweep,coordinate,value\n") + 1:]
    assert rows.count(b"\n") == 1 + 5 * 10**6
    assert hashlib.sha256(rows).hexdigest()[:16] == "677f57768f26da1d"


def test_sample_path_csv_contents(tmp_path, monkeypatch):
    out = tmp_path / "path.csv"
    assert run(["sample-path", "--d", "4", "--lambda", "1.5", "--n", "7", "--seed", "8",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# sampler=path" in lines and "# n=7" in lines
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert rows[0] == ["vertex", "depth", "value"]
    assert [r[0] for r in rows[1:]] == ["", "0", "0/0", "0/0/0", "0/0/0/0", "0/0/0/0/0", "0/0/0/0/0/0"]
    assert [int(r[1]) for r in rows[1:]] == list(range(7))
    prof = tw.build_profile(tw.SpectralPoint(4, 1.5), 6)
    values = tw.sample_path_many(prof, 7, 1, np.random.default_rng(np.random.SeedSequence(8)))[0]
    assert [r[2] for r in rows[1:]] == [f"{v:.17g}" for v in values]

    # rows formatted in blocks of 3 and of 1 give the same bytes
    for block in (3, 1):
        monkeypatch.setattr(textio, "CSV_BLOCK_ROWS", block)
        other = tmp_path / f"path{block}.csv"
        assert run(["sample-path", "--d", "4", "--lambda", "1.5", "--n", "7", "--seed", "8",
                    "--out", str(other)]) == 0
        assert other.read_bytes() == out.read_bytes()


def test_sample_path_address_column_is_built_block_by_block(tmp_path, monkeypatch):
    # the n^2-character address column is never held whole: with 64 KB blocks the
    # n = 2000 run (a 4 MB file) peaks under 1 MB of Python allocations
    argv = ["sample-path", "--d", "3", "--lambda", "0.5", "--n", "2000", "--seed", "2"]
    out, small = tmp_path / "path.csv", tmp_path / "small.csv"
    assert run(argv + ["--out", str(out)]) == 0
    monkeypatch.setattr(textio, "_CSV_BLOCK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        assert run(argv + ["--out", str(small)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small.read_bytes() == out.read_bytes()
    assert peak < 1 << 20
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert [r[0] for r in rows[1:]] == [""] + ["0" + "/0" * (k - 1) for k in range(1, 2000)]


@pytest.mark.parametrize("block", [1, 3, None])
def test_csv_rows_match_per_value_formatting(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(textio, "CSV_BLOCK_ROWS", block)
    values = np.array([-0.0, 5e-324, 1e-5, 1e16, 1e17, 0.1, -2.5])
    columns = {"vertex": ["", "0", "0/1", "2/0/1", "1", "0/0", "2"],
               "depth": np.array([0, 1, 2, 3, 1, 2, -1]), "value": values}
    text = "".join(textio.csv_chunks({"d": 3, "lambda": 0.0, "seed": 0, "n": 7}, columns))
    body = text.split("vertex,depth,value\n", 1)[1]
    ref = "".join(",".join((a, str(k), f"{v:.17g}")) + "\n"
                  for a, k, v in zip(columns["vertex"], columns["depth"].tolist(), values.tolist()))
    assert body == ref
    assert body.splitlines()[:2] == [",0,-0", "0,1,4.9406564584124654e-324"]


@pytest.mark.parametrize("rows", [7, 300])
def test_csv_bytes_column_matches_per_value_formatting(rows):
    # an S array with NULs inside its rows, as Ball.address_bytes gives at d >= 11:
    # under _CSV_SMALL_ROWS rows it takes the `%` branch, from 256 rows the numpy one
    cells = [b"", b"0\0", b"10", b"3\0/0", b"10/9", b"7\0/10\0/1", b"0\0/0"]
    vertex = np.array((cells * rows)[:rows], "S9")
    depth = np.arange(rows) - 3
    values = np.random.default_rng(2).standard_normal(rows) * 10.0 ** (np.arange(rows) % 9 - 4)
    header = {"d": 11, "lambda": 0.0, "seed": 0, "n": rows}
    text = "".join(textio.csv_chunks(header, {"vertex": vertex, "depth": depth, "value": values}))
    body = text.split("vertex,depth,value\n", 1)[1]
    strings = [a.replace(b"\0", b"").decode() for a in vertex.tolist()]
    ref = "".join("%s,%d,%.17g\n" % row for row in zip(strings, depth.tolist(), values.tolist()))
    assert body == ref
    assert (rows < textio._CSV_SMALL_ROWS) == (rows == 7)


def test_library_tables_get_the_command_bytes(tmp_path):
    # csv_chunks, given a header dict and the arrays of a library draw, writes the
    # bytes of the command that makes the same draw
    header = {"schema_version": 1, "tool": f"treewaves {tw.__version__}", "d": 3,
              "lambda": 0.5, "seed": 4}
    prof = tw.build_profile(tw.SpectralPoint(3, 0.5), 10)
    ball, chain = tmp_path / "ball.csv", tmp_path / "chain.csv"
    assert run(["sample-ball", "--d", "3", "--lambda", "0.5", "--radius", "5", "--seed", "4",
                "--sampler", "recursive", "--out", str(ball)]) == 0
    sample = tw.sample_ball_recursive(prof, 5, np.random.default_rng(np.random.SeedSequence(4)))
    columns = {"vertex": sample.ball.address_bytes(), "depth": sample.ball.depth,
               "value": sample.values}
    text = "".join(textio.csv_chunks({**header, "sampler": "recursive", "radius": 5}, columns))
    assert text.encode() == ball.read_bytes()

    assert run(["gibbs", "--d", "3", "--lambda", "0.5", "--alpha", "0", "--n", "6",
                "--sweeps", "40", "--burnin", "10", "--thin", "3", "--chains", "2", "--seed", "4",
                "--out", str(tmp_path / "gibbs.json"), "--out-chain", str(chain)]) == 0
    plan = tw.build_gibbs_plan(prof, 6)
    states = tw.gibbs_run(plan, 0.0, 40, 10, 3, np.random.default_rng(np.random.SeedSequence(4)), 2)
    index = np.indices(states.shape).reshape(3, -1)
    columns = {"chain": index[0], "sweep": 10 + 3 * (index[1] + 1), "coordinate": index[2] + 1,
               "value": states.ravel()}
    meta = {"n": 6, "alpha": 0.0, "sweeps": 40, "burnin": 10, "thin": 3, "chains": 2}
    assert "".join(textio.csv_chunks({**header, **meta}, columns)).encode() == chain.read_bytes()


def test_gibbs_writes_its_chain_before_its_summary(tmp_path, capsys):
    # a chain path that cannot be opened fails the command before --out is written
    summary = tmp_path / "j.json"
    assert run(["gibbs", "--d", "3", "--lambda", "0", "--alpha", "0", "--n", "5",
                "--sweeps", "30", "--burnin", "10", "--thin", "2",
                "--out-chain", str(tmp_path / "missing" / "c.csv"), "--out", str(summary)]) == 1
    assert "failure" in capsys.readouterr().err
    assert not summary.exists()


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


def test_rate_at_the_smallest_rule_compares_with_m_32(tmp_path):
    # m // 2 would clamp back to 16 and compare the rule with itself
    out = tmp_path / "r16.csv"
    run(["rate", "--d", "3", "--lambda", "0", "--alphas=-0.5", "--m", "16", "--out", str(out)])
    row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
    _, r, gap = map(float, row.split(","))
    prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 2)
    r16, r32 = (tw.transfer_rate(prof, -0.5, m) for m in (16, 32))
    assert r == r16
    assert gap == abs(r16 - r32) > 0.0


def test_threshold_json_keys(tmp_path):
    out = tmp_path / "t.json"
    run(["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-3", "--out", str(out)])
    doc = json.loads(out.read_text())
    bracket = doc["bracket"]
    assert list(bracket) == ["haggstrom", "expdec", "site", "union"]
    assert bracket["haggstrom"] < bracket["site"] < doc["alpha_c"]
    assert doc["alpha_c"] < bracket["union"] < bracket["expdec"]
    assert doc["target_rate"] == 0.5
    assert abs(doc["rate_at_alpha_c"] - 0.5) < 0.05
    assert doc["quadrature"]["m"] == 64
    # the search's own diagnostics: its rule, its evaluations, and its rate's gap to --m's
    assert doc["quadrature"]["search_m"] == 32
    prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 2)
    search_rate = tw.transfer_rate(prof, doc["alpha_c"], 32)
    assert doc["rate_gap"] == abs(doc["rate_at_alpha_c"] - search_rate)
    assert 0.0 < doc["rate_gap"] < 1e-12
    rates = {}
    assert tw.critical_threshold(prof, 1e-3, rates=rates) == doc["alpha_c"]
    assert doc["rate_evals"] == len(rates)


def _count_rate_levels(monkeypatch) -> list:
    """(level, m) of every transfer_rate call, through the library's name and the CLI's."""
    levels = []
    rate = levelset.transfer_rate

    def counting_rate(profile, alpha, m, *args):
        levels.append((alpha, m))
        return rate(profile, alpha, m, *args)

    monkeypatch.setattr(levelset, "transfer_rate", counting_rate)
    monkeypatch.setattr(cli, "transfer_rate", counting_rate)
    return levels


@pytest.mark.parametrize("tol", ["1e-4", "1e-8"])
@pytest.mark.parametrize(
    "d, lam_frac",
    [(d, f) for d in (3, 4, 5, 16, 1000) for f in (-0.5, 0.0, 1.0)] + [(4, -1.0)],
)
def test_threshold_repeats_no_rate_evaluation(monkeypatch, capsys, d, lam_frac, tol):
    lam = lam_frac * tw.spectral_edge(d)
    levels = _count_rate_levels(monkeypatch)
    assert run(["threshold", "--d", str(d), f"--lambda={lam!r}", "--tol", tol]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(set(levels)) == len(levels)
    prof = tw.build_profile(tw.SpectralPoint(d, lam), 2)
    assert doc["rate_at_alpha_c"] == tw.transfer_rate(prof, doc["alpha_c"], 64, 8.0)


def test_threshold_at_m16_reuses_the_search_rate(monkeypatch, capsys):
    # up to --m 32 the search rule is --m itself, so the rate at alpha_c is the search's
    levels = _count_rate_levels(monkeypatch)
    assert run(["threshold", "--d", "3", "--lambda", "0", "--m", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(set(levels)) == len(levels) == doc["rate_evals"]
    assert {m for _, m in levels} == {16}
    assert doc["quadrature"]["search_m"] == 16
    assert doc["rate_gap"] == 0.0
    prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 2)
    assert doc["rate_at_alpha_c"] == tw.transfer_rate(prof, doc["alpha_c"], 16, 8.0)


def test_bounds_json(tmp_path):
    out = tmp_path / "b.json"
    run(["bounds", "--d", "3", "--lambda", "0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["haggstrom_alpha"] == pytest.approx(-0.90209418401443608, abs=1e-9)
    assert doc["expdec_alpha"] == pytest.approx(np.sqrt(12.0), rel=1e-9)
    assert doc["big_phi"] == pytest.approx(3.0, abs=1e-9)
    assert doc["site_alpha"] == pytest.approx(-0.4307, abs=1e-4)
    assert doc["union_alpha"] == pytest.approx(np.sqrt(6.0 * np.log(2.0)), rel=1e-9)


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "treewaves", "bounds", "--d", "3", "--lambda", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["haggstrom_alpha"] == pytest.approx(-0.90209418401443608, abs=1e-9)


@pytest.mark.parametrize("argv, flag", [
    (["gibbs", "--alpha", "0", "--n", "40", "--sweeps", "20000", "--tail-grid", "1,,2"],
     "--tail-grid"),
    (["gibbs", "--alpha", "0", "--n", "40", "--sweeps", "20000", "--tail-grid", "nan"],
     "--tail-grid"),
    (["gibbs", "--alpha", "0", "--n", "40", "--sweeps", "20000", "--tail-grid", "1,inf"],
     "--tail-grid"),
    (["rate", "--alphas=0,inf"], "--alphas"),
    (["rate", "--alpha-min=-inf"], "--alpha-min"),
    (["rate", "--alpha-max=inf"], "--alpha-max"),
    (["gibbs", "--alpha", "0", "--n", "40", "--sweeps", "20000", "--tail-grid="],
     "--tail-grid"),
    (["rate", "--alphas="], "--alphas"),
    (["profile", "--n", "1000001"], "--n"),
], ids=["tail-grid-empty-entry", "tail-grid-nan", "tail-grid-inf", "alphas-inf",
        "alpha-min-inf", "alpha-max-inf", "tail-grid-empty", "alphas-empty",
        "profile-n-over-budget"])
def test_invalid_grids_rejected_before_any_work(argv, flag, monkeypatch, capsys):
    # a non-finite grid bound used to reach np.linspace, whose RuntimeWarning
    # the test filter turns into a runtime failure (exit 1)
    import treewaves.cli as cli_mod
    import treewaves.conditioned as conditioned_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli_mod, "build_profile", boom)
    monkeypatch.setattr(conditioned_mod, "_truncated_inverse", boom)
    assert run(argv[:1] + ["--d", "3", "--lambda", "0"] + argv[1:]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rate", "--d", "3", "--lambda", "0", "--alphas=0", "--m", "16", "--u-max-offset", "inf"],
    ["threshold", "--d", "3", "--lambda", "0", "--m", "16", "--u-max-offset", "nan"],
], ids=lambda argv: argv[0])
def test_non_finite_u_max_offset_is_invalid(argv, capsys):
    assert run(argv) == 2
    assert "u_max_offset" in capsys.readouterr().err


SMALL_ARGV = {
    "profile": ["--n", "4"],
    "sample-ball": ["--radius", "2", "--sampler", "recursive"],
    "sample-path": ["--n", "5"],
    "verify": ["--radius", "2", "--reps", "2"],
    "gibbs": ["--alpha", "0", "--n", "5", "--sweeps", "30", "--burnin", "10", "--thin", "2",
              "--chains", "2", "--out-chain", "chain.csv"],
    "survival": ["--alpha", "0", "--n", "5", "--particles", "200", "--batches", "4"],
    "rate": ["--alphas=0,1", "--m", "16"],
    "threshold": ["--tol", "1e-2", "--m", "16"],
    "bounds": [],
}


def _subcommands() -> list[str]:
    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(subs.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_subcommands_return_documents_and_write_nothing(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--d", "3", "--lambda", "0", "--out", "out.txt"] + SMALL_ARGV[command]
    args = _build_parser().parse_args(argv)
    doc = args.func(args)
    if isinstance(doc, tuple):
        meta, columns = doc
        assert isinstance(meta, dict) and isinstance(columns, dict)
    else:
        assert isinstance(doc, dict)
    assert capsys.readouterr().out == ""
    # --out and gibbs --out-chain belong to run alone
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def _range_checked_flags() -> list:
    """(subcommand, flag, out-of-range value) for every flag the parser range-checks:
    each `_bounded` type and each comma list."""
    import treewaves.cli as cli_mod

    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command, sub in subs.choices.items():
        for action in sub._actions:
            if action.type is cli_mod._float_list:
                value = "1,nan"
            elif getattr(action.type, "__qualname__", "").startswith("_bounded."):
                bound = inspect.getclosurevars(action.type).nonlocals
                value = ("nan" if bound["lo"] is None and bound["hi"] is None
                         else str(bound["hi"] + 1) if bound["hi"] is not None
                         else str(bound["lo"] - 1))
            else:
                continue
            flag = action.option_strings[0]
            cases.append(pytest.param(command, flag, value, id=command + flag))
    return cases


@pytest.mark.parametrize("command, flag, value", _range_checked_flags())
def test_every_range_checked_flag_exits_2_before_any_work(command, flag, value, tmp_path,
                                                          monkeypatch, capsys):
    import treewaves.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("work started")

    for name in ("build_profile", "shell_sizes", "build_gibbs_plan", "haggstrom_alpha"):
        monkeypatch.setattr(cli_mod, name, boom)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--d", "3", "--lambda", "0"] + SMALL_ARGV[command]
    # in range, the same command reaches the (patched) work
    assert run(argv) == 1
    capsys.readouterr()
    assert run(argv + [f"{flag}={value}"]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["sample-path"],
    ["gibbs", "--alpha", "0", "--sweeps", "20", "--burnin", "0", "--thin", "1"],
    ["survival", "--alpha", "0", "--method", "direct"],
    ["survival", "--alpha", "0", "--method", "smc"],
], ids=["sample-path", "gibbs", "survival-direct", "survival-smc"])
def test_every_path_command_rejects_a_length_with_one_message(command, n, capsys):
    # the path step table owns the rule; no command checks the length itself
    assert run(command + ["--d", "3", "--lambda", "0", "--n", n]) == 2
    assert capsys.readouterr().err == f"error: path length must be >= 1, got {n}\n"


@pytest.mark.parametrize("lo, hi", [("1", "1"), ("2", "1")], ids=["equal", "reversed"])
def test_rate_grid_with_no_width_is_invalid(lo, hi, capsys):
    assert run(["rate", "--d", "3", "--lambda", "0", "--alpha-min", lo, "--alpha-max", hi]) == 2
    assert capsys.readouterr().err == "error: --alpha-max must exceed --alpha-min\n"
