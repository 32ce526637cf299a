import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

import treewaves as tw
from treewaves.errors import NumericalError, ValidationError

from gaussian_reference import conditional
from gibbs_reference import gibbs_run_per_class

EXACT_CENTER_MEAN_N10 = 0.5010661815344436  # quadrature value, d=3 lam=0 alpha=0


def _profile(d=3, lam=0.0):
    return tw.build_profile(tw.SpectralPoint(d, lam), 4)


def test_plan_frozen_stencils():
    # band columns are the offsets -2, -1, +1, +2; off-path entries are 0
    plan = tw.build_gibbs_plan(_profile(3, 0.0), 7)
    assert plan.coeffs.shape == (7, 4)
    np.testing.assert_allclose(plan.coeffs[0], [0.0, 0.0, 0.0, -0.5], atol=1e-14)
    np.testing.assert_allclose(plan.coeffs[1], [0.0, 0.0, 0.0, -0.5], atol=1e-14)
    np.testing.assert_allclose(plan.coeffs[3], [-0.4, 0.0, 0.0, -0.4], atol=1e-14)
    assert plan.sigma2[3] == pytest.approx(0.6, abs=1e-12)
    # mirror symmetry
    np.testing.assert_allclose(plan.coeffs[6], [-0.5, 0.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(plan.coeffs[5], [-0.5, 0.0, 0.0, 0.0], atol=1e-14)


def test_plan_bulk_matches_repulsion_coefficients():
    for d, lam in ((3, 1.0), (4, -1.5), (5, 2.0)):
        prof = _profile(d, lam)
        c = tw.repulsion_coefficients(prof.point)
        plan = tw.build_gibbs_plan(prof, 9)
        np.testing.assert_allclose(
            plan.coeffs[4], [-c.a2 / 2, c.a1 / 2, c.a1 / 2, -c.a2 / 2], atol=1e-12
        )
        # columns that would reach off the path stay exactly zero
        assert (plan.coeffs[0, :2] == 0.0).all() and plan.coeffs[1, 0] == 0.0
        assert (plan.coeffs[8, 2:] == 0.0).all() and plan.coeffs[7, 3] == 0.0
        assert (plan.sigma2 > 0.0).all()


def test_plan_matches_conditional_on_everything():
    # coordinates farther than two steps carry no weight, so the stencil must
    # equal the conditional on all other coordinates; the plan reads phi(1),
    # phi(2) only, so a profile to distance 2 serves any n
    points = [(3, 0.0), (3, 1.2), (4, 2.0), (100, 5.0)]
    points += [(d, s * tw.spectral_edge(d)) for d in (3, 100) for s in (1, -1)]
    for (d, lam), n, n_max in itertools.product(points, range(1, 10), (4, 2)):
        prof = tw.build_profile(tw.SpectralPoint(d, lam), max(n, 2))
        cov = prof.phi[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]  # geodesic
        plan = tw.build_gibbs_plan(tw.build_profile(tw.SpectralPoint(d, lam), n_max), n)
        for k in range(n):
            others = [i for i in range(n) if i != k]
            cg = conditional(cov, others, [k])
            dense = np.zeros(n)
            dense[others] = cg.coeff[0]
            window = np.zeros(n)
            for j, offset in enumerate((-2, -1, 1, 2)):
                if 0 <= k + offset < n:
                    window[k + offset] = plan.coeffs[k, j]
                else:
                    assert plan.coeffs[k, j] == 0.0
            np.testing.assert_allclose(dense, window, atol=1e-9)
            assert plan.sigma2[k] == pytest.approx(cg.residual[0, 0], abs=1e-9)


def test_plan_cross_check_names_the_first_bad_position(monkeypatch):
    import treewaves.conditioned as conditioned_mod

    real = conditioned_mod.repulsion_coefficients
    monkeypatch.setattr(
        conditioned_mod, "repulsion_coefficients",
        lambda point: dataclasses.replace(real(point), a1=1.001 * real(point).a1),
    )
    with pytest.raises(NumericalError, match="mismatch at position 3:"):
        tw.build_gibbs_plan(_profile(3, 1.0), 9)


def test_long_plan_from_profile_to_two_repeats_the_short_one():
    prof = tw.build_profile(tw.SpectralPoint(3, 1.0), 2)
    short = tw.build_gibbs_plan(prof, 9)
    n = 10**5
    long = tw.build_gibbs_plan(prof, n)
    for got, want in ((long.coeffs, short.coeffs), (long.sigma2, short.sigma2)):
        np.testing.assert_allclose(got[:3], want[:3], rtol=0, atol=1e-14)
        np.testing.assert_allclose(got[n // 2], want[4], rtol=0, atol=1e-14)
        np.testing.assert_allclose(got[-3:], want[-3:], rtol=0, atol=1e-14)


def test_plan_small_paths():
    prof = _profile()
    plan = tw.build_gibbs_plan(prof, 1)
    assert plan.sigma2[0] == pytest.approx(1.0, abs=0.0)
    np.testing.assert_array_equal(plan.coeffs, np.zeros((1, 4)))
    plan = tw.build_gibbs_plan(prof, 2)
    assert plan.coeffs.shape == (2, 4)
    np.testing.assert_allclose(plan.coeffs[0], [0.0, 0.0, 0.0, 0.0], atol=1e-15)  # phi(1) = 0 here
    with pytest.raises(ValidationError):
        tw.build_gibbs_plan(prof, 0)


def test_gibbs_run_shapes_and_support():
    plan = tw.build_gibbs_plan(_profile(), 6)
    states = tw.gibbs_run(plan, 0.5, 80, burnin=20, thin=3, rng=np.random.default_rng(1), chains=3)
    assert states.shape == (3, 20, 6)
    assert states.min() > 0.5


def test_gibbs_run_validation(monkeypatch):
    import treewaves.conditioned as conditioned_mod

    def boom(*a, **k):
        raise RuntimeError("sweep ran")

    plan = tw.build_gibbs_plan(_profile(), 5)
    rng = np.random.default_rng(0)
    # every rejection comes before the first sweep draws anything
    monkeypatch.setattr(conditioned_mod, "_truncated_inverse", boom)
    with pytest.raises(ValidationError):
        tw.gibbs_run(plan, 0.0, 50)  # generator is required
    with pytest.raises(ValidationError):
        tw.gibbs_run(plan, 0.0, 100, burnin=10, thin=0, rng=rng)
    with pytest.raises(ValidationError):
        tw.gibbs_run(plan, 0.0, 100, burnin=10, chains=0, rng=rng)
    for sweeps, burnin, thin in ((20000, 19995, 10), (100, 100, 1), (50, 60, 1), (29, 20, 10)):
        with pytest.raises(ValidationError, match="no retained sweeps"):
            tw.gibbs_run(plan, 0.0, sweeps, burnin=burnin, thin=thin, rng=rng)
    monkeypatch.undo()
    # exactly one thinning interval after burn-in keeps one state
    states = tw.gibbs_run(plan, 0.0, 30, burnin=20, thin=10, rng=rng, chains=2)
    assert states.shape == (2, 1, 5)


class _RecordingGenerator:
    """A generator that records how many uniforms each `random` call asks for."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def random(self, size=None, out=None):
        self.sizes.append(int(np.prod(size if out is None else out.shape)))
        return self.rng.random(size, out=out)


@pytest.mark.parametrize("n, chains", [(2, 1), (7, 5)])
def test_gibbs_run_draws_uniforms_in_bounded_blocks(n, chains):
    rng = _RecordingGenerator(2)
    tw.gibbs_run(tw.build_gibbs_plan(_profile(), n), 0.0, 20000, 19990, 10, rng, chains)
    assert sum(rng.sizes) == 20000 * chains * n
    assert max(rng.sizes) <= max(tw.conditioned.UNIFORM_BLOCK, chains * n)


def _assert_matches_per_class(plan, alpha, sweeps, burnin, thin, chains):
    rng, ref_rng, fresh = (np.random.default_rng(plan.n) for _ in range(3))
    states = tw.gibbs_run(plan, alpha, sweeps, burnin, thin, rng, chains)
    expected = gibbs_run_per_class(plan, alpha, sweeps, burnin, thin, ref_rng, chains)
    fresh.random(sweeps * chains * plan.n)  # one uniform per coordinate update
    assert states.tobytes() == expected.tobytes(), (plan.n, alpha)
    assert rng.bit_generator.state == ref_rng.bit_generator.state == fresh.bit_generator.state


@pytest.mark.parametrize("block", [tw.conditioned.UNIFORM_BLOCK, 50], ids=["block", "small-block"])
@pytest.mark.parametrize("chains", [1, 32])
def test_gibbs_run_matches_the_per_class_loop_bit_for_bit(monkeypatch, chains, block):
    # The blocked, in-place sweep against one truncated_standard call per class.  A 50-value
    # block ends uniform blocks between retained sweeps and splits 32 chains into groups.
    monkeypatch.setattr(tw.conditioned, "UNIFORM_BLOCK", block)
    prof = _profile(4, -1.2)
    for n, alpha in itertools.product(range(1, 8), (-3.0, 0.0, 2.5, 6.0, 40.0)):
        _assert_matches_per_class(tw.build_gibbs_plan(prof, n), alpha, 40, 10, 3, chains)


@pytest.mark.parametrize("n, chains, sweeps", [(7, 32, 400), (30, 1100, 3), (1, 40000, 2)],
                         ids=["several-blocks", "over-one-block", "n1-chain-groups"])
def test_gibbs_run_matches_the_per_class_loop_across_blocks(n, chains, sweeps):
    _assert_matches_per_class(tw.build_gibbs_plan(_profile(3, 0.5), n), 0.2, sweeps, 1, 1, chains)


def test_gibbs_run_memory_beyond_its_arrays_does_not_grow_with_chains():
    # Past the state, the retained sweeps and one sweep's uniforms, a run holds tables and
    # buffers for at most UNIFORM_BLOCK chain-coordinates, whatever the chain count.
    n, chains = 10, 100_000
    plan = tw.build_gibbs_plan(_profile(), n)
    tw.gibbs_run(plan, 0.0, 2, 1, 1, np.random.default_rng(0))  # loads scipy.special
    tracemalloc.start()
    try:
        tw.gibbs_run(plan, 0.0, 2, 1, 1, np.random.default_rng(0), chains)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = 8 * chains * ((n + 4) + n + n)
    assert peak - arrays < 160 * tw.conditioned.UNIFORM_BLOCK, peak - arrays


def test_retained_sweeps_names_each_rule():
    assert tw.retained_sweeps(80, 20, 3, 4) == 20
    assert tw.retained_sweeps(30, 20, 10, 1) == 1
    for args, rule in (((0, 0, 1, 1), "sweeps must be >= 1"), ((10, -1, 1, 1), "burnin"),
                       ((10, 0, 0, 1), "thin must be >= 1"), ((10, 0, 1, 0), "chains"),
                       ((29, 20, 10, 1), "no retained sweeps")):
        with pytest.raises(ValidationError, match=rule):
            tw.retained_sweeps(*args)


def test_gibbs_run_deterministic():
    plan = tw.build_gibbs_plan(_profile(), 5)
    a = tw.gibbs_run(plan, 0.0, 60, burnin=20, thin=2, rng=np.random.default_rng(9), chains=2)
    b = tw.gibbs_run(plan, 0.0, 60, burnin=20, thin=2, rng=np.random.default_rng(9), chains=2)
    np.testing.assert_array_equal(a, b)


def test_gibbs_center_mean_matches_quadrature():
    # independent ground truth: at lambda = 0 the conditioned path splits into
    # two first-order chains whose marginals integrate exactly in 1-d
    plan = tw.build_gibbs_plan(_profile(3, 0.0), 10)
    chains = 16
    states = tw.gibbs_run(
        plan, 0.0, 3000, burnin=300, thin=3, rng=np.random.default_rng(110), chains=chains
    )
    chain_means = states[:, :, 5].mean(axis=1)
    se = chain_means.std(ddof=1) / np.sqrt(chains)
    assert chain_means.mean() == pytest.approx(EXACT_CENTER_MEAN_N10, abs=4.5 * se)


@pytest.mark.parametrize("d, lam, alpha", [(3, 1.0, 0.0), (4, -1.5, -0.3)])
def test_gibbs_short_paths_match_filtered_exact_draws(d, lam, alpha):
    # every coordinate mean of the conditioned law, against exact path draws
    # kept when they stay above alpha; short paths exercise the end stencils
    prof = _profile(d, lam)
    chains = 32
    for n in range(1, 6):
        plan = tw.build_gibbs_plan(prof, n)
        states = tw.gibbs_run(
            plan, alpha, 1200, burnin=200, thin=1, rng=np.random.default_rng(40 + n), chains=chains
        )
        chain_means = states.mean(axis=1)
        gibbs_mean = chain_means.mean(axis=0)
        gibbs_se = chain_means.std(axis=0, ddof=1) / np.sqrt(chains)
        draws = tw.sample_path_many(prof, n, 400_000, np.random.default_rng(50 + n))
        kept = draws[np.all(draws > alpha, axis=1)]
        exact_mean = kept.mean(axis=0)
        exact_se = kept.std(axis=0, ddof=1) / np.sqrt(len(kept))
        z = (gibbs_mean - exact_mean) / np.hypot(gibbs_se, exact_se)
        assert np.abs(z).max() < 5.0, (n, z)


def test_batch_means_ess_iid_vs_correlated():
    rng = np.random.default_rng(3)
    iid = rng.standard_normal(40_000)
    ess = tw.batch_means_ess(iid)
    assert 0.5 * 40_000 <= ess <= 2.0 * 40_000
    sticky = np.repeat(rng.standard_normal(2_000), 20)  # strong serial correlation
    assert tw.batch_means_ess(sticky) < 0.25 * 40_000


def test_repulsion_tail_hand_count():
    vals = np.array(
        [
            [0.3, 0.4, 2.5, 0.1, 0.2],
            [0.3, 0.4, 1.5, 0.1, 0.2],
            [0.3, 0.4, 0.5, 0.1, 0.2],
            [0.3, 0.4, 3.5, 0.1, 0.2],
        ]
    )
    tail = tw.repulsion_tail(vals, 3, [1.0, 2.0, 3.0])
    assert tail.k == 3
    assert [p.p_hat for p in tail.points] == [0.75, 0.5, 0.25]
    assert all(p.stderr > 0 for p in tail.points)
    # leading (chain, sweep) axes flatten chain-major into the same series
    assert tw.repulsion_tail(vals.reshape(2, 2, 5), 3, [1.0, 2.0, 3.0]) == tail
    with pytest.raises(ValidationError):
        tw.repulsion_tail(vals, 6, [1.0])
    with pytest.raises(ValidationError):
        tw.repulsion_tail([], 1, [1.0])


@pytest.mark.parametrize("alpha, chains, message", [
    (float("nan"), 1, "alpha must be finite, got nan"),
    (float("-inf"), 1, "alpha must be finite, got -inf"),
    (0.0, 2.0, "chains must be an integer, got 2.0"),
], ids=["nan", "-inf", "chains-float"])
def test_gibbs_level_must_be_finite(alpha, chains, message):
    plan = tw.build_gibbs_plan(_profile(3, 0.0), 5)
    with pytest.raises(ValidationError) as err:
        tw.gibbs_run(plan, alpha, 20, 0, 1, np.random.default_rng(0), chains)
    assert str(err.value) == message
