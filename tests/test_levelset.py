import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq
from scipy.special import ndtr

import treewaves as tw
from treewaves import levelset
from treewaves.errors import NumericalError, ValidationError

from transfer_reference import transfer_rate_tensor, transfer_tensor
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
    # the last three shapes are the ball-large pipeline's degrees at small radii;
    # at alpha = 10 no vertex lies above the level, at -10 every vertex does
    rng = np.random.default_rng(41)
    for d, lam, r in ((3, 0.5, 6), (4, -1.0, 5), (3, 2.7, 7), (7, 1.5, 3), (11, -2.0, 2),
                      (11, 4.0, 3)):
        prof = _profile(d, lam, 2 * r)
        for _ in range(3):
            s = tw.sample_ball_recursive(prof, r, rng)
            assert tw.extract_components(s, 10.0).components == ()
            everything = tw.extract_components(s, -10.0)
            assert everything.components == ((len(s.ball), r, True, True),)
            assert (everything.root_size, everything.root_reach) == (len(s.ball), r)
            for alpha in (-10.0, -1.0, -0.3, 0.0, 0.4, 1.2, 10.0):
                cs = tw.extract_components(s, alpha)
                ref = _reference_components(s, alpha)
                ref.sort(key=lambda c: (-c[0], c[1], not c[3]))
                got = [(c.size, c.reach, c.touches_boundary, c.contains_root)
                       for c in cs.components]
                assert got == ref
                root = next((c for c in ref if c[3]), (0, -1))
                assert (cs.root_size, cs.root_reach) == root[:2]


def test_component_is_a_frozen_named_tuple():
    c = tw.Component(3, 2, True, False)
    assert tw.Component._fields == ("size", "reach", "touches_boundary", "contains_root")
    assert (c.size, c.reach, c.touches_boundary, c.contains_root) == (3, 2, True, False)
    assert repr(c) == "Component(size=3, reach=2, touches_boundary=True, contains_root=False)"
    with pytest.raises(AttributeError):
        c.size = 4
    size, reach, boundary, root = c  # unpacks, and equals the plain tuple of its fields
    assert c == (size, reach, boundary, root) and hash(c) == hash((3, 2, True, False))
    vals = np.full(10, -1.0)
    vals[[1, 4, 3]] = 1.0
    cs = tw.extract_components(_fabricated_sample(vals), 0.0)
    assert all(type(comp) is tw.Component for comp in cs.components)
    assert repr(cs) == (
        "ComponentSummary(alpha=0.0, components=("
        "Component(size=2, reach=2, touches_boundary=True, contains_root=False), "
        "Component(size=1, reach=1, touches_boundary=False, contains_root=False)), "
        "root_size=0, root_reach=-1)")


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


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("d, lam, seed", [(3, 0.0, 21), (4, 1.5, 22)])
def test_survival_direct_is_the_all_above_fraction_of_sample_path_many(n, d, lam, seed):
    prof = _profile(d, lam)
    alpha, reps = 0.0, 20_000
    rng_direct, rng_paths = np.random.default_rng(seed), np.random.default_rng(seed)
    est = tw.survival_direct(prof, n, alpha, reps, rng_direct)
    survivors = np.count_nonzero((tw.sample_path_many(prof, n, reps, rng_paths) > alpha).all(axis=1))
    assert survivors > 0  # a live run draws every column, as sample_path_many does
    assert est.p_hat == survivors / reps
    assert rng_direct.bit_generator.state == rng_paths.bit_generator.state


def test_survival_direct_stops_drawing_once_every_path_is_dead():
    prof = _profile()
    rng, after_one_column = np.random.default_rng(23), np.random.default_rng(23)
    est = tw.survival_direct(prof, 50, 10.0, 1000, rng)
    after_one_column.standard_normal(1000)
    assert est.collapsed and est.p_hat == 0.0
    assert rng.bit_generator.state == after_one_column.bit_generator.state


def test_survival_direct_memory_is_linear_in_reps():
    prof = _profile()
    tracemalloc.start()
    try:
        est = tw.survival_direct(prof, 10_000, -3.0, 1000, np.random.default_rng(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n == 10_000
    # the whole (1000, 10^4) path matrix would take 76 MiB
    assert peak < 8 * 2**20


def test_survival_direct_dead_long_path_returns_quickly():
    prof = _profile()
    start = time.perf_counter()
    est = tw.survival_direct(prof, 10**6, 10.0, 100, np.random.default_rng(25))
    assert time.perf_counter() - start < 5.0
    assert est.collapsed and est.n == 10**6


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


def test_smc_stderr_is_batch_spread():
    curve = tw.survival_curve_smc(_profile(), 12, 0.2, 2_000, np.random.default_rng(19))
    be = curve.batch_estimates
    assert np.array_equal(curve.stderr, be.std(axis=0) / np.sqrt(curve.batches))


def _smc_reference(prof, n, alpha, nbat, per, rng):
    """The SMC step loop with an explicit dead flag: a batch with no survivor
    records 0 from then on.  Returns the batch prefix products."""
    prev, cur = np.zeros((2, nbat, per))
    factors = np.zeros((nbat, n))
    dead = np.zeros(nbat, dtype=bool)
    for k, (b1, b2, var) in enumerate(tw.path_step_table(prof, n).tolist()):
        nxt = rng.standard_normal((nbat, per))
        nxt *= np.sqrt(var)
        nxt += b1 * prev + b2 * cur
        alive = nxt > alpha
        count = np.count_nonzero(alive, axis=1)
        dead |= count == 0
        factors[:, k] = np.where(dead, 0.0, count / per)
        if k < n - 1:
            pick = levelset._systematic_pick(alive, rng.random(nbat), count)
            prev, cur = cur.take(pick), nxt.take(pick)
    return np.cumprod(factors, axis=1)


def test_smc_draws_nothing_after_the_particle_loop():
    # alpha = 2 leaves about 1.4 survivors per batch and step, so batches die
    prof = _profile()
    dying = 0
    for alpha in (0.1, 2.0):
        for n in (1, 2, 9):
            rng = np.random.default_rng(23)
            curve = tw.survival_curve_smc(prof, n, alpha, 1_000, rng)
            ref = np.random.default_rng(23)
            expected = _smc_reference(
                prof, n, alpha, curve.batches, curve.particles // curve.batches, ref
            )
            assert np.array_equal(expected, curve.batch_estimates)
            assert rng.bit_generator.state == ref.bit_generator.state
            dying += np.count_nonzero(curve.batch_estimates[:, -1] == 0.0)
    assert dying > 0


def test_smc_path_length_is_checked_before_any_allocation():
    prof = _profile()
    rng = np.random.default_rng(0)
    for n in (9.0, True):
        with pytest.raises(ValidationError, match="path length must be an integer"):
            tw.survival_curve_smc(prof, n, 0.1, 1_000, rng)
    assert tw.survival_curve_smc(prof, np.int64(9), 0.1, 1_000, rng).p_hat.shape == (9,)


# Step sizes on both sides of the draw-ahead limit; 17_001 is no multiple of 16.
SMC_PARTICLES = [1_600, 17_001]
assert SMC_PARTICLES[0] < levelset._DRAW_AHEAD_MIN <= SMC_PARTICLES[1] // 16 * 16


@pytest.mark.parametrize("limit", [None, 0, 2**62], ids=["default", "ahead", "serial"])
@pytest.mark.parametrize("d", [3, 4, 8])
def test_smc_drawn_ahead_and_serial_give_the_same_bits(monkeypatch, d, limit):
    # each loop, forced by the limit or chosen by the step size, against the
    # reference loop that draws the normals, then the uniforms, of each step
    if limit is not None:
        monkeypatch.setattr(levelset, "_DRAW_AHEAD_MIN", limit)
    prof = _profile(d, 0.5 * tw.spectral_edge(d), 40)
    for n in (1, 2, 9, 40):
        for particles in SMC_PARTICLES:
            rng = np.random.default_rng([d, n, particles])
            curve = tw.survival_curve_smc(prof, n, 0.4, particles, rng)
            ref = np.random.default_rng([d, n, particles])
            expected = _smc_reference(
                prof, n, 0.4, curve.batches, curve.particles // curve.batches, ref
            )
            assert curve.batch_estimates.tobytes() == expected.tobytes(), (n, particles)
            assert rng.bit_generator.state == ref.bit_generator.state, (n, particles)


class _FailingGenerator:
    """A generator whose normal draw for step `fail_at` raises; it logs every
    call and the threads that made them."""

    def __init__(self, fail_at):
        self.rng = np.random.default_rng(31)
        self.fail_at = fail_at
        self.calls = []
        self.threads = set()
        self.raised = None

    def standard_normal(self, *args, **kwargs):
        step = self.calls.count("standard_normal")
        self.calls.append("standard_normal")
        self.threads.add(threading.get_ident())
        if step == self.fail_at:
            self.raised = RuntimeError(f"draw failed at step {step}")
            raise self.raised
        return self.rng.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append("random")
        self.threads.add(threading.get_ident())
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("particles", SMC_PARTICLES)
def test_smc_worker_does_not_outlive_the_call(particles):
    prof = _profile(3, 0.0, 12)
    before = threading.active_count()
    tw.survival_curve_smc(prof, 12, 0.1, particles, np.random.default_rng(30))
    assert threading.active_count() == before
    for fail_at in (0, 1, 5, 11):
        stub = _FailingGenerator(fail_at)
        with pytest.raises(RuntimeError) as excinfo:
            tw.survival_curve_smc(prof, 12, 0.1, particles, stub)
        assert excinfo.value is stub.raised
        # the failing draw is the last call: nothing draws after it
        assert stub.calls == ["standard_normal", "random"] * fail_at + ["standard_normal"]
        # a step below the limit draws on the caller's thread, one above it on the worker
        assert (stub.threads == {threading.get_ident()}) == (particles < levelset._DRAW_AHEAD_MIN)
        assert threading.active_count() == before


@pytest.mark.parametrize("n", [1, 2, 9])
def test_smc_draws_exactly_what_it_uses(n):
    # normals for every step, uniforms to resample before every step but the
    # last, on either side of the draw-ahead limit
    for particles in (1_000, 20_000):
        rng = np.random.default_rng(29)
        curve = tw.survival_curve_smc(_profile(), n, 0.1, particles, rng, batches=4)
        ref = np.random.default_rng(29)
        for k in range(n):
            ref.standard_normal((curve.batches, curve.particles // curve.batches))
            if k < n - 1:
                ref.random(curve.batches)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("u", [0.0, 0.3, 0.999, 1.0 - 2.0**-53])
def test_systematic_pick_resamples_each_row_within_itself(u):
    per = 48
    rng = np.random.default_rng(41)
    # a dead row, rows from one survivor to all of them, and a lone survivor
    # in the last slot next to the following row's first one
    alive = rng.random((7, per)) < np.array([0.0, 0.05, 0.3, 0.6, 0.9, 1.0, 0.0])[:, None]
    alive[1, :] = False
    alive[1, -1] = True
    alive[2, 0] = True
    alive[6, [0, 5]] = True
    us = np.full(7, u)
    pick = levelset._systematic_pick(alive, us, np.count_nonzero(alive, axis=1))
    assert pick.shape == alive.shape
    rows, cols = np.divmod(pick, per)
    assert (rows == np.arange(7)[:, None]).all()  # no row borrows another's particles
    assert np.array_equal(cols[0], np.arange(per))  # the dead row keeps its slots
    for b in range(1, 7):
        live = np.flatnonzero(alive[b])
        assert alive[b, cols[b]].all()
        # rank floor((u + j) A / per) in exact arithmetic
        ranks = [int((Fraction(u) + j) * live.size // per) for j in range(per)]
        assert cols[b].tolist() == live[ranks].tolist()
        copies = np.bincount(cols[b], minlength=per)[live]
        assert set(copies.tolist()) <= {per // live.size, -(-per // live.size)}
        assert copies.sum() == per


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_smc_two_step_survival_matches_orthant(d, side):
    prof = _profile(d, side * tw.spectral_edge(d), 2)
    alpha = 0.4
    exact = tw.orthant_edge_probability(prof.require(1), alpha)
    est = tw.survival_curve_smc(prof, 2, alpha, 40_000, np.random.default_rng(43)).estimate(2)
    assert abs(est.p_hat - exact) <= 4.5 * est.stderr


def test_smc_memory_is_linear_in_length():
    prof = _profile()
    tracemalloc.start()
    try:
        curve = tw.survival_curve_smc(prof, 2000, -3.0, 1000, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.p_hat.shape == (2000,)
    # the curves are 16 x 2000 floats; 500 resampled copies of them would be 128 MB
    assert peak < 50 * 2**20


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
    for offset in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="u_max_offset"):
            tw.transfer_rate(prof, 0.0, u_max_offset=offset)


@pytest.mark.parametrize("alpha, blocks", [(-100.0, 8741), (-1e5, 17_309), (-1e9, 17_309)])
def test_transfer_rate_rejects_a_level_with_more_kernel_blocks_than_nodes(alpha, blocks):
    # at d = 3, +edge and an offset of 1e4 the resolution count grows with the domain
    # [max(alpha, -1e4), max(alpha, 0) + 1e4], so it stops growing at alpha = -1e4;
    # no block is ever built
    prof = _profile(3, tw.spectral_edge(3), 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"alpha={alpha!r} needs {blocks} .* m=64 "
                                                  r".*lower u_max_offset"):
            tw.transfer_rate(prof, alpha, m=64, u_max_offset=1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_transfer_rate_and_left_perron_vector_match_a_dense_eigensolver():
    # the m^2 x m^2 pair matrix of the tensor, M[(i, j), (j, k)] = K[i, j, k], at
    # m = 16: its largest eigenvalue is the rate, and for its right Perron vector
    # h, D * h.T is a left eigenvector (the time reversal of the path).  It is
    # checked by its residual, not against LAPACK's left vector, whose own
    # residual is 1.6e-6 at d = 3, -edge, site_alpha (2e-15 for D * h.T).  The
    # levels are the lower half of [site, union]: near union_alpha at d = 3,
    # -edge the rate is 1e-180, below what LAPACK resolves next to O(1) entries.
    m = 16
    idx = np.arange(m)
    for d in (3, 4, 8):
        for frac in (-1.0, 0.0, 1.0):
            prof = _profile(d, frac * tw.spectral_edge(d), 2)
            lo, hi = tw.site_alpha(prof), tw.union_alpha(prof)
            for alpha in lo + (hi - lo) * np.array([0.0, 0.25, 0.5]):
                kmat, _, dmat = transfer_tensor(prof, alpha, m)
                pair = np.zeros((m, m, m, m))
                pair[:, idx, idx, :] = kmat
                pair = pair.reshape(m * m, m * m)
                vals, right = np.linalg.eig(pair)
                top = np.argmax(vals.real)
                rate = vals[top].real
                assert vals[top].imag == 0.0
                assert tw.transfer_rate(prof, alpha, m) == pytest.approx(rate, rel=1e-10)
                left = (dmat * right[:, top].real.reshape(m, m).T).ravel()
                residual = abs(left @ pair - rate * left).max()
                assert residual <= 1e-10 * rate * abs(left).max(), (d, frac, alpha)


@pytest.mark.parametrize("d", [3, 4])
def test_transfer_rate_collapses_at_lower_edge(d):
    prof = _profile(d, -tw.spectral_edge(d), 2)
    with pytest.raises(NumericalError, match="collapsed"):
        tw.transfer_rate(prof, tw.expdec_alpha(prof) + 1.0)


# Rates of the same kernel blocks with the sub-1.5e-154 floor removed, at d = 3,
# where the step s.d. is 0.29 and the unfloored kernel and iterate hold
# subnormal doubles: (lambda/edge, alpha, m, repr of the rate).
PINNED_D3_RATES = [
    (-1.0, -1.9674215658616867, 64, "0.9866700413354277"),
    (-1.0, -1.9674215658616867, 128, "0.9866700294016042"),
    (1.0, -1.5615619635848215, 64, "0.9848911203285554"),
    (1.0, -1.5615619635848215, 128, "0.9848911203285491"),
    (-1.0, -0.17209, 64, "0.4999980614791703"),
    (-1.0, -0.17209, 128, "0.49999806147921294"),
    (1.0, 2.8341, 64, "0.499999786753401"),
    (1.0, 2.8341, 128, "0.49999978675340273"),
    (-1.0, 3.5, 64, "3.0675934287766005e-274"),  # deep tail
]


@pytest.mark.parametrize("frac, alpha, m, rate", PINNED_D3_RATES)
def test_transfer_rate_floor_keeps_every_bit(frac, alpha, m, rate):
    # the first alpha of each edge is haggstrom - 1; the other two sit near alpha_c
    prof = _profile(3, frac * tw.spectral_edge(3), 2)
    if alpha < -1.5:
        assert alpha == tw.haggstrom_alpha(prof) - 1.0
    assert repr(tw.transfer_rate(prof, alpha, m)) == rate


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


@pytest.mark.parametrize("frac", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-0.5, 0.36, -20.0, -100.0])
def test_transfer_rate_memory_at_d3_edges(frac, alpha):
    # d = 3 at +-edge has the narrowest step kernel, and the call still holds
    # only a few m x m arrays (0.5 MiB each here): one or two blocks over the
    # threshold bracket, and at most six on the widest domain, [-8, 8], which
    # every level below -8 shares
    prof = _profile(3, frac * tw.spectral_edge(3), 2)
    tracemalloc.start()
    try:
        tw.transfer_rate(prof, alpha, m=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (5 if alpha > -8.0 else 8) * 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("frac", [-1.0, 1.0])
@pytest.mark.parametrize("alpha", [-20.0, -60.0, -100.0])
def test_transfer_rate_far_below_zero_matches_tensor_reference(frac, alpha):
    # below -u_max_offset the domain is [-8, 8] whatever alpha is, whose six blocks
    # must keep exp finite (an overflow makes the iterate collapse); the chain almost
    # never leaves it, so the rate is 1 to rounding
    prof = _profile(3, frac * tw.spectral_edge(3), 2)
    ref = transfer_rate_tensor(prof, -8.0, 128)
    rate = tw.transfer_rate(prof, alpha, 128)
    assert rate == pytest.approx(ref, rel=1e-11, abs=0.0)
    assert abs(rate - 1.0) <= 1e-12


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


def _threshold_or_none(d, frac):
    """(profile, alpha_c), alpha_c None where the search collapses."""
    prof = _profile(d, frac * tw.spectral_edge(d), 2)
    try:
        return prof, tw.critical_threshold(prof)
    except NumericalError as exc:
        assert "collapsed" in str(exc)
        return prof, None


def test_site_and_union_bracket_alpha_c():
    collapsed = []
    for d in (3, 4, 5, 8, 16, 100, 640, 1000):
        for frac in (-1.0, -0.95, -0.5, 0.0, 0.5, 1.0):
            prof, ac = _threshold_or_none(d, frac)
            lo, hi = tw.site_alpha(prof), tw.union_alpha(prof)
            # the new bracket lies inside the old one
            assert tw.haggstrom_alpha(prof) < lo and hi < tw.expdec_alpha(prof)
            if ac is None:
                collapsed.append((d, frac))
            else:
                assert lo < ac < hi
    assert collapsed == [(3, -1.0)]


def test_threshold_search_collapses_only_at_d3_lower_edge():
    # with the old bracket [haggstrom - 1, expdec + 1], 11 of these 20 collapsed
    collapsed = [
        (d, frac)
        for d in (3, 4, 640, 1000)
        for frac in (-1.0, -0.95, -0.5, 0.0, 1.0)
        if _threshold_or_none(d, frac)[1] is None
    ]
    assert collapsed == [(3, -1.0)]


def test_site_alpha_defining_equation_and_union_alpha():
    for d in (3, 5, 100):
        for frac in (-1.0, 0.0, 1.0):
            prof = _profile(d, frac * tw.spectral_edge(d), 2)
            a = tw.site_alpha(prof)
            # kappa(a) = Q(a) - (d/2) P(X > a, Y > a) = 0, pair mass by quadrature
            pair = tw.orthant_edge_probability(prof.phi[1], a)
            assert ndtr(-a) == pytest.approx(0.5 * d * pair, rel=1e-8)
    # big_phi = 3 at d = 3, lambda = 0
    assert tw.union_alpha(_profile()) == pytest.approx(np.sqrt(6.0 * np.log(2.0)), rel=1e-9)


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_site_alpha_sign_follows_sheppard(d):
    # Sheppard: P(X > 0, Y > 0) = 1/4 + arcsin(rho) / (2 pi) with rho = lambda/d,
    # so kappa(0) < 0, i.e. site_alpha > 0, exactly when lambda > -d cos(2 pi / d)
    edge = tw.spectral_edge(d)
    boundary = -d * np.cos(2.0 * np.pi / d)
    for lam in np.linspace(-edge, edge, 41):
        if abs(lam - boundary) < 1e-6:
            continue
        assert (tw.site_alpha(_profile(d, lam, 2)) > 0.0) == (lam > boundary)


def test_critical_threshold_checks_inputs_before_the_bracket(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("bracket computed")

    monkeypatch.setattr(levelset, "site_alpha", boom)
    monkeypatch.setattr(levelset, "union_alpha", boom)
    prof = _profile(3, 0.0, 2)
    for kwargs, rule in (({"tol": 0.0}, "tol"), ({"tol": float("nan")}, "tol"),
                         ({"m": 8}, "quadrature size m"), ({"m": 5000}, "quadrature size m"),
                         ({"m": 64.0}, "quadrature size m must be an integer, got 64.0"),
                         ({"m": True}, "quadrature size m must be an integer, got True"),
                         ({"u_max_offset": float("nan")}, "u_max_offset"),
                         ({"u_max_offset": -1.0}, "u_max_offset")):
        with pytest.raises(ValidationError, match=rule):
            tw.critical_threshold(prof, **kwargs)


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
    assert len(calls) <= 10
    assert len(set(calls)) == len(calls)  # brentq sees each bracket end once
    target = 1.0 / (d - 1.0)
    assert rate(prof, ac - 2 * tol) > target > rate(prof, ac + 2 * tol)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
@pytest.mark.parametrize(
    "d, lam_frac", [(d, f) for d in (3, 4, 5, 16, 1000) for f in (-0.5, 0.0, 1.0)]
)
def test_half_rule_search_matches_a_full_rule_search(d, lam_frac, tol):
    # the search runs at m / 2 nodes; an m-node search over the same bracket finds
    # the same root to tol plus the half rule's quadrature error (at most 1e-8)
    prof = tw.build_profile(tw.SpectralPoint(d, lam_frac * tw.spectral_edge(d)), 2)
    target = 1.0 / (d - 1.0)
    ref = brentq(lambda a: tw.transfer_rate(prof, a, 64) - target,
                 tw.site_alpha(prof), tw.union_alpha(prof), xtol=tol)
    assert abs(tw.critical_threshold(prof, tol=tol, m=64) - ref) <= tol + 2e-8


def test_threshold_search_keeps_at_least_32_nodes():
    # halving stops at 32 nodes: at d = 3, +edge a 24-node search is 1.4e-5 off
    rules = [levelset.search_m(m) for m in (16, 24, 32, 40, 63, 64, 128)]
    assert rules == [16, 24, 32, 32, 32, 32, 64]
    prof = _profile(3, tw.spectral_edge(3), 2)
    ref = brentq(lambda a: tw.transfer_rate(prof, a, 64) - 0.5,
                 tw.site_alpha(prof), tw.union_alpha(prof), xtol=1e-8)
    for m in (32, 48):
        assert abs(tw.critical_threshold(prof, tol=1e-8, m=m) - ref) <= 1e-8 + 2e-8


@pytest.mark.parametrize("d, lam_frac, tol", [(3, 0.0, 1e-4), (4, -1.0, 1e-8), (16, 1.0, 1e-6)])
def test_critical_threshold_records_every_rate(monkeypatch, d, lam_frac, tol):
    prof = tw.build_profile(tw.SpectralPoint(d, lam_frac * tw.spectral_edge(d)), 2)
    plain = tw.critical_threshold(prof, tol=tol)
    calls = []
    rate = levelset.transfer_rate

    def counting_rate(*args, **kwargs):
        calls.append(args[1])
        return rate(*args, **kwargs)

    monkeypatch.setattr(levelset, "transfer_rate", counting_rate)
    rates = {}
    ac = tw.critical_threshold(prof, tol=tol, rates=rates)
    assert ac == plain
    assert sorted(rates) == sorted(calls)  # every evaluated level, each once
    assert all(rates[a] == rate(prof, a, 32) for a in rates)
    assert ac in rates


def test_haggstrom_alpha_evaluates_each_level_once(monkeypatch):
    # brentq's levels go through Owen's T; the quadrature only checks the root.
    # haggstrom_alpha reads scipy.special.owens_t at call time.
    calls = []
    owens_t = scipy.special.owens_t

    def counting_owens_t(h, a):
        calls.append(h)
        return owens_t(h, a)

    monkeypatch.setattr(scipy.special, "owens_t", counting_owens_t)
    assert tw.haggstrom_alpha(_profile()) == pytest.approx(HAGGSTROM_D3_L0, abs=1e-12)
    assert len(calls) > 2
    assert len(set(calls)) == len(calls)


HAGGSTROM_EDGE_DEGREES = [3, 4, 5, 8, 16, 100, 1000]


@pytest.mark.parametrize("d", HAGGSTROM_EDGE_DEGREES)
def test_haggstrom_alpha_owens_t_root_matches_quadrature_root(d):
    # the closed-form root against brentq on the quadrature itself, over the
    # whole spectrum with both edges
    target = 2.0 / d
    for frac in np.linspace(-1.0, 1.0, 41):
        prof = _profile(d, frac * tw.spectral_edge(d), 2)
        phi1 = prof.phi[1]
        ref = brentq(lambda a: tw.orthant_edge_probability(phi1, a) - target,
                     -12.0, 12.0, xtol=1e-12, rtol=8.9e-16)
        root = tw.haggstrom_alpha(prof)
        assert abs(root - ref) <= 1e-13
        assert tw.orthant_edge_probability(phi1, root) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("d", HAGGSTROM_EDGE_DEGREES)
def test_haggstrom_alpha_check_rejects_a_wrong_root(monkeypatch, d):
    # the one quadrature call at the root guards the Owen's T search
    prob = levelset.orthant_edge_probability
    monkeypatch.setattr(levelset, "orthant_edge_probability",
                        lambda rho, alpha: prob(rho, alpha) + 1e-6)
    for frac in (-1.0, 0.0, 1.0):
        with pytest.raises(NumericalError, match="misses 2/d"):
            tw.haggstrom_alpha(_profile(d, frac * tw.spectral_edge(d), 2))


def test_gauss_legendre_nodes_cached_read_only(monkeypatch):
    nodes, weights = levelset._gauss_legendre(32)
    assert levelset._gauss_legendre(32)[0] is nodes
    for arr in (nodes, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # one node build serves every rate evaluation of a threshold search
    calls = []
    leggauss = levelset.leggauss

    def counting_leggauss(m):
        calls.append(m)
        return leggauss(m)

    monkeypatch.setattr(levelset, "leggauss", counting_leggauss)
    levelset._gauss_legendre.cache_clear()
    prof = _profile(3, 0.0, 2)
    tw.critical_threshold(prof, tol=1e-4)
    assert calls == [32]
    # a cached call returns the same bits as the first and matches the tensor reference
    levelset._gauss_legendre.cache_clear()
    cold = [tw.transfer_rate(prof, a, 32) for a in (-0.5, 0.5)]
    warm = [tw.transfer_rate(prof, a, 32) for a in (-0.5, 0.5)]
    assert warm == cold
    for a, r in zip((-0.5, 0.5), warm):
        assert r == pytest.approx(transfer_rate_tensor(prof, a, 32), rel=1e-11, abs=0.0)


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
    # the vectorized jackknife against the explicit leave-one-batch-out loop,
    # also on an asymmetric grid, whose entries come n-major
    asym = tw.survival_ratio_bounds(prof, 0.0, [2, 3, 5], [4], 20_000, np.random.default_rng(29))
    assert [(e.n, e.m) for e in asym.entries] == [(2, 4), (3, 4), (5, 4)]
    for report, top in ((rep, 12), (asym, 9)):
        be = tw.survival_curve_smc(prof, top, 0.0, 20_000, np.random.default_rng(29)).batch_estimates
        nbat = be.shape[0]
        for e in report.entries:
            num, den_a, den_b = be[:, e.n + e.m - 1], be[:, e.n - 1], be[:, e.m - 1]
            assert e.ratio == pytest.approx(num.mean() / (den_a.mean() * den_b.mean()), rel=1e-12)
            jack = np.array([
                np.delete(num, b).mean() / (np.delete(den_a, b).mean() * np.delete(den_b, b).mean())
                for b in range(nbat)
            ])
            se = np.sqrt((nbat - 1) / nbat * ((jack - jack.mean()) ** 2).sum())
            assert e.stderr == pytest.approx(se, rel=1e-12)
        assert report.bound == max(max(e.ratio, 1.0 / e.ratio) for e in report.entries)


@pytest.mark.parametrize(
    "alpha, n, m, reps",
    [
        (3.0, 8, 8, 1000),  # every length of the ratio is dead
        (1.0, 2, 27, 200),  # only the numerator P(n + m) is dead
    ],
)
def test_ratio_bounds_dead_curve_raises(alpha, n, m, reps):
    prof = _profile(3, 0.0, 2)
    curve = tw.survival_curve_smc(prof, n + m, alpha, reps, np.random.default_rng(0))
    first = int(np.flatnonzero(curve.p_hat == 0.0)[0]) + 1
    with pytest.raises(NumericalError, match=f"length {first} "):
        tw.survival_ratio_bounds(prof, alpha, [n], [m], reps, np.random.default_rng(0))


@pytest.mark.parametrize("alpha, seed", [(0.8, 3), (0.8, 6), (1.0, 0), (1.0, 1)])
def test_ratio_bounds_single_live_batch_raises(alpha, seed):
    # one of four batches alive at the denominator length 6: its leave-one-out
    # mean is 0, so the jackknife would divide 0 by 0
    prof = _profile(3, 0.0, 2)
    curve = tw.survival_curve_smc(prof, 8, alpha, 200, np.random.default_rng(seed))
    assert np.count_nonzero(curve.batch_estimates[:, 5]) == 1
    assert curve.p_hat[-1] > 0.0
    with pytest.raises(NumericalError, match="alive at length 6 "):
        tw.survival_ratio_bounds(prof, alpha, [2], [6], 200, np.random.default_rng(seed))


def _short_curve():
    return tw.survival_curve_smc(_profile(), 4, 0.0, 200, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: tw.extract_components(_fabricated_sample(np.zeros(10)), float("nan")),
     "alpha must be finite, got nan"),
    (lambda: tw.survival_direct(_profile(), 5, 0.0, 0, np.random.default_rng(0)),
     "reps must be >= 1, got 0"),
    (lambda: tw.survival_direct(_profile(), 5, float("inf"), 10, np.random.default_rng(0)),
     "alpha must be finite, got inf"),
    (lambda: _short_curve().estimate(0), "length 0 outside curve range 1..4"),
    (lambda: _short_curve().estimate(5), "length 5 outside curve range 1..4"),
    (lambda: tw.survival_curve_smc(_profile(), 4, float("nan"), 200, np.random.default_rng(0)),
     "alpha must be finite, got nan"),
    (lambda: tw.survival_curve_smc(_profile(), 4, 0.0, 200, np.random.default_rng(0), 1),
     "batches must be >= 2, got 1"),
    (lambda: tw.transfer_rate(_profile(), float("nan")), "alpha must be finite, got nan"),
    (lambda: tw.survival_ratio_bounds(_profile(), 0.0, [], [2], 200, np.random.default_rng(0)),
     "n_list and m_list must be nonempty"),
    (lambda: tw.survival_ratio_bounds(_profile(), 0.0, [2], [0], 200, np.random.default_rng(0)),
     "path length must be >= 1, got 0"),
    (lambda: tw.survival_direct(_profile(), 5, 0.0, 10.0, np.random.default_rng(0)),
     "reps must be an integer, got 10.0"),
    (lambda: tw.survival_curve_smc(_profile(), 4, 0.0, 1000.0, np.random.default_rng(0)),
     "particles must be an integer, got 1000.0"),
    (lambda: tw.survival_curve_smc(_profile(), 4, 0.0, 200, np.random.default_rng(0), 4.0),
     "batches must be an integer, got 4.0"),
    (lambda: tw.survival_ratio_bounds(_profile(), 0.0, [2.5], [1.9], 200,
                                      np.random.default_rng(0)),
     "path length must be an integer, got 2.5"),
    (lambda: tw.survival_ratio_bounds(_profile(), 0.0, [True], [2], 200, np.random.default_rng(0)),
     "path length must be an integer, got True"),
    (lambda: _profile().require(1.5), "distance n must be an integer, got 1.5"),
    (lambda: tw.enumerate_ball(3, 2).sphere_slice(1.5), "sphere must be an integer, got 1.5"),
    (lambda: _short_curve().estimate(2.0), "length must be an integer, got 2.0"),
    (lambda: tw.repulsion_tail(np.zeros((4, 5)), 2.5, [1.0]),
     "position k must be an integer, got 2.5"),
    (lambda: tw.repulsion_tail(np.zeros((4, 5)), True, [1.0]),
     "position k must be an integer, got True"),
    (lambda: tw.transfer_rate(_profile(), 0.0, 64.0),
     "quadrature size m must be an integer, got 64.0"),
    (lambda: tw.transfer_rate(_profile(), 0.0, True),
     "quadrature size m must be an integer, got True"),
], ids=["components-alpha", "direct-reps", "direct-alpha", "estimate-0", "estimate-past-end",
        "smc-alpha", "smc-batches", "rate-alpha", "ratio-empty", "ratio-length-0",
        "direct-reps-float", "smc-particles-float", "smc-batches-float", "ratio-length-float",
        "ratio-length-bool", "require-float", "sphere-float", "estimate-float",
        "tail-position-float", "tail-position-bool", "rate-m-float", "rate-m-bool"])
def test_input_checks(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
