import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

import treewaves as tw
from treewaves import levelset
from treewaves.errors import NumericalError, ValidationError

from transfer_reference import transfer_rate_tensor
from tree_reference import address_index, ball_addresses

HAGGSTROM_D3_L0 = -0.90209418401443608  # root of the degree-weighted pair equation
ALPHA_C_D3_L0 = -0.23720420290986205  # bisection at tol 1e-4, m = 64


def _profile(d=3, lam=0.0, n_max=4):
    return tw.build_profile(tw.SpectralPoint(d, lam), n_max)


def _fabricated_sample(values):
    prof = _profile(3, 0.0, 4)
    ball = tw.enumerate_ball(3, 2)
    return tw.BallSample(profile=prof, ball=ball, values=np.asarray(values, dtype=float), sampler="dense")


def test_extract_components_root_below():
    # vertices: 0 root, 1..3 first shell ("0","1","2"), 4..9 leaves
    vals = np.full(10, -1.0)
    vals[[1, 4]] = 1.0  # "0" and "0/0": one component of size 2
    vals[[2, 6, 7]] = 1.0  # "1" with both children: size 3
    vals[3] = 1.0  # "2" alone: size 1
    cs = tw.extract_components(_fabricated_sample(vals), 0.0)
    assert cs.root_size == 0
    assert cs.root_reach == -1
    got = [(c.size, c.reach, c.touches_boundary, c.contains_root) for c in cs.components]
    assert got == [(3, 2, True, False), (2, 2, True, False), (1, 1, False, False)]


def test_extract_components_root_cluster():
    vals = np.full(10, -1.0)
    vals[[0, 1, 4, 3]] = 2.0  # root, "0", "0/0", "2" all joined through the root
    cs = tw.extract_components(_fabricated_sample(vals), 0.0)
    assert cs.root_size == 4
    assert cs.root_reach == 2
    assert cs.components[0].contains_root
    assert cs.components[0].touches_boundary
    assert cs.alpha == 0.0


def test_extract_components_threshold_strict():
    vals = np.zeros(10)
    cs = tw.extract_components(_fabricated_sample(vals), 0.0)
    assert cs.components == ()  # exceedance is strict
    assert tw.extract_components(_fabricated_sample(vals), -0.1).root_size == 10


def _reference_components(sample, alpha):
    """Flood fill over tuple-address parent links, clusters in BFS order of
    their first vertex, as (size, reach, touches_boundary, contains_root)."""
    verts = ball_addresses(sample.ball.d, sample.ball.radius)
    index = address_index(verts)
    above = [x > alpha for x in sample.values]
    nbrs = {i: [] for i in range(len(verts))}
    for i, v in enumerate(verts[1:], start=1):
        p = index[v[:-1]]
        if above[i] and above[p]:
            nbrs[i].append(p)
            nbrs[p].append(i)
    seen, out = set(), []
    for i in range(len(verts)):
        if not above[i] or i in seen:
            continue
        stack, members = [i], []
        seen.add(i)
        while stack:
            j = stack.pop()
            members.append(j)
            for k in nbrs[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach = max(len(verts[j]) for j in members)
        out.append((len(members), reach, reach == sample.ball.radius, 0 in members))
    return out


def test_extract_components_matches_flood_fill():
    rng = np.random.default_rng(41)
    for d, lam, r in ((3, 0.5, 6), (4, -1.0, 5), (3, 2.7, 7)):
        prof = _profile(d, lam, 2 * r)
        for _ in range(3):
            s = tw.sample_ball_recursive(prof, r, rng)
            for alpha in (-1.0, -0.3, 0.0, 0.4, 1.2):
                cs = tw.extract_components(s, alpha)
                ref = _reference_components(s, alpha)
                ref.sort(key=lambda c: (-c[0], c[1], not c[3]))
                got = [(c.size, c.reach, c.touches_boundary, c.contains_root)
                       for c in cs.components]
                assert got == ref
                root = next((c for c in ref if c[3]), (0, -1))
                assert (cs.root_size, cs.root_reach) == root[:2]


def test_haggstrom_alpha_just_below_zero_lambda():
    # tiny negative phi(1) once placed the quadrature split far past the mass
    assert tw.orthant_edge_probability(-9.4e-4, -12.0) == pytest.approx(1.0, abs=1e-12)
    cases = [(d, f) for d in (3, 4, 5) for f in (-0.001, -0.002, -0.004)]
    cases += [(8, -0.005)] + [(16, f) for f in (-0.008, -0.007, -0.004, -0.002, -0.001)]
    for d, f in cases:
        prof = _profile(d, f * tw.spectral_edge(d))
        h = tw.haggstrom_alpha(prof)
        assert tw.orthant_edge_probability(prof.phi[1], h) == pytest.approx(2.0 / d, abs=1e-10)
        h0 = tw.haggstrom_alpha(_profile(d, 0.0))
        assert h0 - 0.01 < h < h0  # continuous, and lower for more negative lambda


def test_survival_direct_matches_tail_probability():
    prof = _profile()
    est = tw.survival_direct(prof, 1, 0.6, 200_000, np.random.default_rng(8))
    q = float(ndtr(-0.6))
    assert est.method == "direct"
    assert abs(est.p_hat - q) <= 4.5 * est.stderr
    assert est.stderr == pytest.approx(np.sqrt(q * (1 - q) / 200_000), rel=0.1)


def test_smc_agrees_with_direct():
    prof = _profile()
    direct = tw.survival_direct(prof, 4, 0.3, 400_000, np.random.default_rng(17))
    smc = tw.survival_curve_smc(prof, 4, 0.3, 40_000, np.random.default_rng(18)).estimate(4)
    se = np.hypot(direct.stderr, smc.stderr)
    assert abs(direct.p_hat - smc.p_hat) <= 4.5 * se
    assert smc.method == "smc"
    assert not smc.collapsed


def test_survival_curve_prefix_consistency():
    prof = _profile()
    curve = tw.survival_curve_smc(prof, 12, 0.2, 20_000, np.random.default_rng(19))
    assert curve.p_hat.shape == (12,)
    assert (np.diff(curve.p_hat) <= 1e-15).all()  # survival cannot increase with depth
    assert (curve.stderr >= 0).all()
    est = curve.estimate(7)
    assert est.n == 7
    assert est.p_hat == curve.p_hat[6]


def test_smc_collapse_flag():
    prof = _profile()
    est = tw.survival_curve_smc(prof, 12, 3.5, 100, np.random.default_rng(20)).estimate(12)
    assert est.collapsed
    assert est.p_hat == 0.0


def test_smc_validation():
    prof = _profile()
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        tw.survival_curve_smc(prof, 5, 0.0, 50, rng)
    with pytest.raises(ValidationError):
        tw.survival_curve_smc(prof, 0, 0.0, 1000, rng)


def test_transfer_rate_limits_and_monotonicity():
    prof = _profile()
    assert tw.transfer_rate(prof, -8.0) == pytest.approx(1.0, abs=1e-9)
    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    rates = [tw.transfer_rate(prof, a) for a in grid]
    assert all(x > y for x, y in zip(rates, rates[1:]))  # deeper level, faster decay
    assert all(0.0 < r <= 1.0 + 1e-12 for r in rates)


def test_transfer_rate_quadrature_converged():
    for d, lam in ((3, 0.0), (4, 1.0)):
        prof = _profile(d, lam)
        r64 = tw.transfer_rate(prof, 0.25, m=64)
        r128 = tw.transfer_rate(prof, 0.25, m=128)
        assert abs(r64 - r128) <= 1e-9


def test_transfer_rate_validation():
    prof = _profile()
    with pytest.raises(ValidationError):
        tw.transfer_rate(prof, 0.0, m=8)
    with pytest.raises(ValidationError):
        tw.transfer_rate(prof, 0.0, u_max_offset=0.0)


@pytest.mark.parametrize("d", [3, 4, 5, 8, 16])
def test_transfer_rate_matches_tensor_reference(d):
    # the factorised operator against the full m^3 tensor, across the widened
    # bracket; both must collapse in exactly the same cases
    edge = tw.spectral_edge(d)
    for frac in (-1.0, -0.93, -0.5, 0.0, 0.5, 1.0):
        prof = _profile(d, frac * edge, 2)
        lo, hi = tw.haggstrom_alpha(prof) - 1.0, tw.expdec_alpha(prof) + 1.0
        for alpha in np.linspace(lo, hi, 5):
            for m in (16, 32, 64):
                for offset in (8.0, 16.0):
                    try:
                        ref = transfer_rate_tensor(prof, alpha, m, offset)
                    except NumericalError:
                        with pytest.raises(NumericalError):
                            tw.transfer_rate(prof, alpha, m, offset)
                        continue
                    got = tw.transfer_rate(prof, alpha, m, offset)
                    if ref > 1e-250:
                        assert got == pytest.approx(ref, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("d", [3, 4])
def test_transfer_rate_collapses_at_lower_edge(d):
    prof = _profile(d, -tw.spectral_edge(d), 2)
    with pytest.raises(NumericalError, match="collapsed"):
        tw.transfer_rate(prof, tw.expdec_alpha(prof) + 1.0)


def test_transfer_rate_memory_is_quadratic_in_m():
    prof = _profile()
    tracemalloc.start()
    try:
        r256 = tw.transfer_rate(prof, 0.25, m=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # an m^3 float64 tensor alone is 128 MiB here
    assert abs(tw.transfer_rate(prof, 0.25, m=512) - r256) <= 1e-9


def test_bracket_endpoints_frozen():
    prof = _profile()
    h = tw.haggstrom_alpha(prof)
    assert h == pytest.approx(HAGGSTROM_D3_L0, abs=1e-9)
    # defining equation: pair probability at the one-step correlation equals 2/d
    assert tw.orthant_edge_probability(prof.phi[1], h) == pytest.approx(2.0 / 3.0, abs=1e-10)
    e = tw.expdec_alpha(prof)
    assert e == pytest.approx(np.sqrt(12.0), rel=1e-9)
    assert e == pytest.approx(np.sqrt(2 * 2 * prof.big_phi), rel=0.0)


def test_critical_threshold_regression():
    prof = _profile()
    ac = tw.critical_threshold(prof, tol=1e-4)
    assert ac == pytest.approx(ALPHA_C_D3_L0, abs=3e-4)
    assert tw.transfer_rate(prof, ac) == pytest.approx(0.5, abs=1e-3)
    assert tw.haggstrom_alpha(prof) < ac < tw.expdec_alpha(prof)


@pytest.mark.parametrize("d, lam_frac, tol", [(3, 0.0, 1e-4), (16, -0.3, 1e-5)])
def test_critical_threshold_rate_evaluations(monkeypatch, d, lam_frac, tol):
    # the root finder, not a fixed bisection, sets the number of rate evaluations
    calls = []
    rate = levelset.transfer_rate

    def counting_rate(*args, **kwargs):
        calls.append(args[1])
        return rate(*args, **kwargs)

    monkeypatch.setattr(levelset, "transfer_rate", counting_rate)
    prof = tw.build_profile(tw.SpectralPoint(d, lam_frac * tw.spectral_edge(d)), 2)
    ac = tw.critical_threshold(prof, tol=tol)
    assert len(calls) <= 14
    target = 1.0 / (d - 1.0)
    assert rate(prof, ac - 2 * tol) > target > rate(prof, ac + 2 * tol)


def test_ratio_bounds_structure():
    prof = _profile()
    rep = tw.survival_ratio_bounds(prof, 0.0, [3, 6], [3, 6], 20_000, np.random.default_rng(29))
    assert rep.alpha == 0.0
    assert len(rep.entries) == 4
    assert rep.bound >= 1.0
    assert rep.bound < 5.0
    ratios = {(e.n, e.m): e.ratio for e in rep.entries}
    assert ratios[(3, 6)] == ratios[(6, 3)]  # same curve, symmetric definition
    assert all(e.stderr >= 0 for e in rep.entries)
    # the vectorized jackknife against the explicit leave-one-batch-out loop
    be = tw.survival_curve_smc(prof, 12, 0.0, 20_000, np.random.default_rng(29)).batch_estimates
    nbat = be.shape[0]
    for e in rep.entries:
        num, den_a, den_b = be[:, e.n + e.m - 1], be[:, e.n - 1], be[:, e.m - 1]
        jack = np.array([
            np.delete(num, b).mean() / (np.delete(den_a, b).mean() * np.delete(den_b, b).mean())
            for b in range(nbat)
        ])
        se = np.sqrt((nbat - 1) / nbat * ((jack - jack.mean()) ** 2).sum())
        assert e.stderr == pytest.approx(se, rel=1e-12)


@pytest.mark.parametrize(
    "alpha, n, m, reps",
    [
        (3.0, 8, 8, 1000),  # every length of the ratio is dead
        (1.0, 2, 8, 200),  # only the numerator P(n + m) is dead
    ],
)
def test_ratio_bounds_dead_curve_raises(alpha, n, m, reps):
    prof = _profile(3, 0.0, 2)
    curve = tw.survival_curve_smc(prof, n + m, alpha, reps, np.random.default_rng(0))
    first = int(np.flatnonzero(curve.p_hat == 0.0)[0]) + 1
    with pytest.raises(NumericalError, match=f"length {first} "):
        tw.survival_ratio_bounds(prof, alpha, [n], [m], reps, np.random.default_rng(0))


@pytest.mark.parametrize("alpha, seed", [(0.8, 10), (0.8, 17), (1.0, 0), (1.0, 4)])
def test_ratio_bounds_single_live_batch_raises(alpha, seed):
    # one of four batches alive at the denominator length 6: its leave-one-out
    # mean is 0, so the jackknife would divide 0 by 0
    prof = _profile(3, 0.0, 2)
    curve = tw.survival_curve_smc(prof, 8, alpha, 200, np.random.default_rng(seed))
    assert np.count_nonzero(curve.batch_estimates[:, 5]) == 1
    assert curve.p_hat[-1] > 0.0
    with pytest.raises(NumericalError, match="alive at length 6 "):
        tw.survival_ratio_bounds(prof, alpha, [2], [6], 200, np.random.default_rng(seed))
