"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion NN (<name>): PASS" line on success (FAIL before the traceback
on failure), so the suite output doubles as a checklist. Tolerances and
seeds are fixed; every expected number was produced by an independent
route (closed forms, quadrature, or hand counts) before being frozen here.
"""

import contextlib
import time

import numpy as np
import pytest
from scipy.special import ndtr

import treewaves as tw
from treewaves.cli import run

# quadrature values for the level-conditioned path at d = 3, lambda = 0,
# alpha = 0: mean of the middle coordinate (0-based n // 2)
EXACT_CENTER_MEAN_N10 = 0.5010661815344436
EXACT_CENTER_MEAN_N40 = 0.4987588734075828


@contextlib.contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def _profile(d, lam, n_max=4):
    return tw.build_profile(tw.SpectralPoint(d, lam), n_max)


def test_criterion_01_covariance_recursion():
    with _criterion("criterion 01 (covariance recursion identities)"):
        t0 = time.monotonic()
        for d in (3, 4, 5, 10):
            edge = tw.spectral_edge(d)
            for lam in np.linspace(-edge, edge, 21):
                lam = float(lam)
                # construction itself cross-checks the recursion against the
                # closed form and raises if the routes disagree beyond 1e-10
                prof = tw.build_profile(tw.SpectralPoint(d, lam), 30)
                phi = prof.phi
                assert phi[0] == 1.0
                assert abs(d * phi[1] - lam) <= 1e-12 * max(1.0, abs(lam))
                assert abs(phi[2] - (lam * lam - d) / (d * (d - 1))) <= 1e-12
                for k in range(1, 30):
                    resid = abs(lam * phi[k] - phi[k - 1] - (d - 1) * phi[k + 1])
                    scale = max(1.0, abs(lam * phi[k]), abs(phi[k - 1]), (d - 1) * abs(phi[k + 1]))
                    assert resid <= 1e-12 * scale
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_ball_identities_hundred_draws():
    with _criterion("criterion 02 (100 random ball draws satisfy exact identities)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        for i in range(100):
            d = int(rng.integers(3, 7))
            r = int(rng.integers(1, 5 if d == 3 else 4))
            lam = tw.sample_lambda(d, rng)
            prof = tw.build_profile(tw.SpectralPoint(d, lam), max(2, 2 * r))
            fn = tw.sample_ball_dense if i % 2 == 0 else tw.sample_ball_recursive
            s = fn(prof, r, rng)
            scale = max(1.0, tw.sample_scale(s))
            assert tw.verify_sphere_sums(s) <= 1e-8 * scale
            assert tw.verify_eigen_residual(s) <= 1e-8 * scale
        assert time.monotonic() - t0 < 30.0


def test_criterion_03_dense_and_recursive_agree():
    with _criterion("criterion 03 (dense and recursive samplers share one law)"):
        t0 = time.monotonic()
        prof = _profile(3, 0.0)
        reps = 100_000
        ball, dv = tw.sample_ball_dense_many(prof, 2, reps, np.random.default_rng(11))
        _, rv = tw.sample_ball_recursive_many(prof, 2, reps, np.random.default_rng(12))
        cov = tw.assemble_covariance(prof, ball)
        se = np.sqrt((1.0 + cov**2) / reps)
        np.fill_diagonal(se, np.sqrt(2.0 / reps))
        for vals in (dv, rv):
            emp = vals.T @ vals / reps
            assert np.abs((emp - cov) / se).max() <= 4.0
        assert time.monotonic() - t0 < 120.0


def test_criterion_04_ball_covariance_rank():
    with _criterion("criterion 04 (ball covariance rank equals outer sphere size)"):
        t0 = time.monotonic()
        for d, lam in ((3, 0.0), (3, 0.7), (4, 1.1)):
            for r in (1, 2, 3):
                prof = tw.build_profile(tw.SpectralPoint(d, lam), 2 * r)
                cov = tw.assemble_covariance(prof, tw.enumerate_ball(d, r))
                expect = tw.ball_vertex_count(d, r) - tw.ball_vertex_count(d, r - 1)
                assert tw.factor_psd(cov).rank == expect
        assert time.monotonic() - t0 < 10.0


def test_criterion_05_survival_closed_forms():
    with _criterion("criterion 05 (one- and two-vertex survival match closed forms)"):
        t0 = time.monotonic()
        prof = _profile(3, 0.0)
        rng = np.random.default_rng(6)
        for alpha in (-1.0, 0.0, 1.0):
            e1 = tw.survival_direct(prof, 1, alpha, 1_000_000, rng)
            e2 = tw.survival_direct(prof, 2, alpha, 1_000_000, rng)
            assert abs(e1.p_hat - float(ndtr(-alpha))) <= 3.0 * e1.stderr
            pair = tw.orthant_edge_probability(prof.phi[1], alpha)
            assert abs(e2.p_hat - pair) <= 3.0 * e2.stderr
        assert time.monotonic() - t0 < 60.0


def test_criterion_06_transfer_rate_matches_smc_decay():
    with _criterion("criterion 06 (transfer-operator rate matches simulated decay)"):
        t0 = time.monotonic()
        for d, lam in ((3, 0.0), (3, 1.5), (4, 1.0)):
            prof = _profile(d, lam)
            for alpha in (-0.1, 0.2, 0.5):
                r64 = tw.transfer_rate(prof, alpha, m=64)
                r128 = tw.transfer_rate(prof, alpha, m=128)
                assert abs(r64 - r128) <= 1e-6
                curve = tw.survival_curve_smc(prof, 50, alpha, 200_000, np.random.default_rng(3))
                ns = np.arange(20, 51)
                slope = np.polyfit(ns, np.log(curve.p_hat[19:50]), 1)[0]
                assert abs(slope - np.log(r64)) <= 0.02
        assert time.monotonic() - t0 < 600.0


def test_criterion_07_critical_threshold():
    with _criterion("criterion 07 (critical level sits inside proven bounds)"):
        t0 = time.monotonic()
        for d, lam in ((3, 0.0), (3, 2.5456), (4, 1.0)):
            prof = _profile(d, lam)
            lo = tw.haggstrom_alpha(prof)
            hi = tw.expdec_alpha(prof)
            ac = tw.critical_threshold(prof, tol=1e-5)
            assert lo < ac < hi
            assert tw.transfer_rate(prof, ac) == pytest.approx(1.0 / (d - 1), abs=1e-3)
        prof = _profile(3, 0.0)
        assert tw.haggstrom_alpha(prof) == pytest.approx(-0.902, abs=1e-3)
        assert tw.expdec_alpha(prof) == pytest.approx(3.4641, abs=1e-3)
        assert time.monotonic() - t0 < 300.0


def test_criterion_08_exponential_upper_bound():
    with _criterion("criterion 08 (survival obeys the exponential upper bound)"):
        t0 = time.monotonic()
        prof = _profile(3, 0.0)
        beta = 1.0 / (2.0 * prof.big_phi)  # = 1/6 here
        for alpha in (0.5, 1.0):
            curve = tw.survival_curve_smc(prof, 30, alpha, 40_000, np.random.default_rng(31))
            for n in range(1, 31):
                p, se = curve.p_hat[n - 1], curve.stderr[n - 1]
                if p == 0.0:
                    continue
                bound = np.exp(-alpha * alpha * beta * n) * (1.0 + 3.0 * se / p)
                assert p <= bound
        assert time.monotonic() - t0 < 120.0


def test_criterion_09_conditioned_path_statistics():
    with _criterion("criterion 09 (conditioned path: stable mean, log-concave tail)"):
        t0 = time.monotonic()
        prof = _profile(3, 0.0)
        chains = 32
        results = {}
        for n in (10, 40):
            plan = tw.build_gibbs_plan(prof, n)
            states = tw.gibbs_run(
                plan, 0.0, 7000, burnin=500, thin=2,
                rng=np.random.default_rng(100 + n), chains=chains,
            )
            center = states[:, :, n // 2]
            means = center.mean(axis=1)
            results[n] = (means.mean(), means.std(ddof=1) / np.sqrt(chains), states)

        m10, se10, _ = results[10]
        m40, se40, states40 = results[40]
        assert m10 == pytest.approx(EXACT_CENTER_MEAN_N10, abs=4.5 * se10)
        assert m40 == pytest.approx(EXACT_CENTER_MEAN_N40, abs=4.5 * se40)
        assert abs(m10 - m40) <= 3.0 * np.hypot(se10, se40)

        # upper tail of the middle coordinate: log-probability decreasing in x^2
        grid = np.array([2.0, 2.2, 2.4, 2.6])
        tail = tw.repulsion_tail(states40, 21, grid)
        p = np.array([pt.p_hat for pt in tail.points])
        se = np.array([pt.stderr for pt in tail.points])
        assert (p > 0).all()
        x = grid**2
        y = np.log(p)
        w = (p / se) ** 2  # delta method: var(log p) = (se / p)^2
        xbar = np.average(x, weights=w)
        slope = np.sum(w * (x - xbar) * y) / np.sum(w * (x - xbar) ** 2)
        slope_se = 1.0 / np.sqrt(np.sum(w * (x - xbar) ** 2))
        assert slope + 1.645 * slope_se < 0.0  # negative at one-sided 95%
        assert time.monotonic() - t0 < 300.0


def test_criterion_10_survival_ratio_bounds():
    with _criterion("criterion 10 (survival ratios stay uniformly bounded)"):
        t0 = time.monotonic()
        prof = _profile(3, 0.0)
        rep = tw.survival_ratio_bounds(
            prof, 0.0, [5, 10, 20], [5, 10, 20], 200_000, np.random.default_rng(21)
        )
        assert len(rep.entries) == 9
        for e in rep.entries:
            assert np.isfinite(e.ratio) and e.ratio > 0
        assert rep.bound < 10.0
        assert time.monotonic() - t0 < 300.0


def test_criterion_11_cli_determinism(tmp_path):
    with _criterion("criterion 11 (CLI reruns are byte-identical)"):
        t0 = time.monotonic()
        jobs = (
            ["threshold", "--d", "3", "--lambda", "0", "--tol", "1e-4"],
            ["survival", "--d", "3", "--lambda", "0", "--alpha", "0.25", "--n", "20",
             "--method", "smc", "--particles", "20000", "--seed", "9"],
        )
        for i, argv in enumerate(jobs):
            a = tmp_path / f"a{i}.json"
            b = tmp_path / f"b{i}.json"
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
        assert time.monotonic() - t0 < 60.0
