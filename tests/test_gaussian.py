import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr
from scipy.stats import multivariate_normal

import treewaves as tw
from treewaves.errors import NumericalError, ValidationError


def _profile(d=3, lam=0.0, n_max=6):
    return tw.build_profile(tw.SpectralPoint(d, lam), n_max)


def test_assemble_covariance_ball_one():
    prof = _profile(3, 1.0, 2)
    ball = tw.enumerate_ball(3, 1)
    cov = tw.assemble_covariance(prof, ball)
    p1, p2 = prof.phi[1], prof.phi[2]
    expect = np.array(
        [
            [1.0, p1, p1, p1],
            [p1, 1.0, p2, p2],
            [p1, p2, 1.0, p2],
            [p1, p2, p2, 1.0],
        ]
    )
    np.testing.assert_allclose(cov, expect, rtol=0.0, atol=0.0)


def test_assemble_covariance_requires_profile_depth():
    prof = _profile(3, 1.0, 2)
    ball = tw.enumerate_ball(3, 2)  # leaf pairs at distance 4
    with pytest.raises(ValidationError):
        tw.assemble_covariance(prof, ball)


def test_factor_psd_reconstruction_and_rank():
    f = tw.factor_psd(np.eye(4))
    assert f.rank == 4
    np.testing.assert_allclose(f.factor @ f.factor.T, np.eye(4), atol=1e-12)

    ones = np.ones((5, 5))
    f = tw.factor_psd(ones)
    assert f.rank == 1
    np.testing.assert_allclose(f.factor @ f.factor.T, ones, atol=1e-12)

    prof = _profile(3, 0.0, 4)
    cov = tw.assemble_covariance(prof, tw.enumerate_ball(3, 2))
    f = tw.factor_psd(cov)
    assert f.rank == 6  # ball covariance rank = outer sphere size
    np.testing.assert_allclose(f.factor @ f.factor.T, cov, atol=1e-12)


def test_factor_psd_rejects_bad_input():
    with pytest.raises(ValidationError):
        tw.factor_psd(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        tw.factor_psd(np.array([[1.0, 0.5], [0.3, 1.0]]))
    with pytest.raises(NumericalError):
        tw.factor_psd(np.diag([1.0, -0.5]))


def test_factor_psd_rank_zero():
    f = tw.factor_psd(np.zeros((3, 3)))
    assert f.rank == 0 and f.factor.shape == (3, 0)
    draws = f.draw(np.random.default_rng(0), 5)
    assert draws.shape == (5, 3) and not np.any(draws)
    # slightly negative but above the floor: still a (zero) covariance
    assert tw.factor_psd(-1e-8 * np.eye(2)).rank == 0
    with pytest.raises(NumericalError):
        tw.factor_psd(np.diag([-1.0, -2.0]))


def test_psd_factor_draw_shape_and_moments():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    f = tw.factor_psd(cov)
    draws = f.draw(np.random.default_rng(0), 200_000)
    assert draws.shape == (200_000, 2)
    emp = draws.T @ draws / 200_000
    np.testing.assert_allclose(emp, cov, atol=0.03)


def test_conditional_bivariate_closed_form():
    rho = 0.6
    cov = np.array([[1.0, rho], [rho, 1.0]])
    cg = tw.conditional(cov, [0], [1])
    np.testing.assert_allclose(cg.coeff, [[rho]], atol=1e-14)
    np.testing.assert_allclose(cg.residual, [[1 - rho**2]], atol=1e-14)


def test_conditional_marginal_when_nothing_given():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    cg = tw.conditional(cov, [], [1, 0])
    assert cg.coeff.shape == (2, 0)
    np.testing.assert_allclose(cg.residual, [[1.0, 0.3], [0.3, 2.0]], atol=0.0)


def test_conditional_validation():
    cov = np.eye(3)
    with pytest.raises(ValidationError):
        tw.conditional(cov, [0], [])
    with pytest.raises(ValidationError):
        tw.conditional(cov, [0, 1], [1])
    with pytest.raises(ValidationError):
        tw.conditional(cov, [0], [5])


def test_ball_covariance_rank_at_spectral_edges():
    # rank = outer sphere size holds at lambda = +-2 sqrt(d-1) too
    for d in (3, 4, 5, 8):
        edge = tw.spectral_edge(d)
        for lam in (-edge, edge):
            for r in (1, 2, 3):
                prof = tw.build_profile(tw.SpectralPoint(d, lam), 2 * r)
                cov = tw.assemble_covariance(prof, tw.enumerate_ball(d, r))
                assert tw.factor_psd(cov).rank == tw.sphere_size(d, r), (d, lam, r)


def test_conditional_agrees_with_pinv_on_tree_ball():
    # conditioning set = all of the unit ball, whose covariance is singular
    # (rank 3 of 4), so the minimal-norm pseudoinverse solution is the oracle
    prof = _profile(3, 1.2, 4)
    cov = tw.assemble_covariance(prof, tw.enumerate_ball(3, 2))
    given = [0, 1, 2, 3]
    target = [4, 7, 9]
    cg = tw.conditional(cov, given, target)
    gg = cov[np.ix_(given, given)]
    gt = cov[np.ix_(given, target)]
    direct = (np.linalg.pinv(gg, hermitian=True) @ gt).T
    np.testing.assert_allclose(cg.coeff, direct, atol=1e-10)
    resid = cov[np.ix_(target, target)] - cg.coeff @ gt
    np.testing.assert_allclose(cg.residual, resid, atol=1e-10)


def test_sample_truncated_easy_branch_moments():
    # standard normal above 0: mean sqrt(2/pi), var 1 - 2/pi
    rng = np.random.default_rng(12)
    draws = tw.truncated_standard(np.zeros(200_000), rng)
    assert draws.min() >= 0.0
    assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=4 * np.sqrt((1 - 2 / np.pi) / 2e5))
    assert draws.var() == pytest.approx(1 - 2 / np.pi, abs=0.01)


def test_sample_truncated_hard_branch_moments():
    # far tail, a = 5: mean = phi(5) / Q(5) exactly
    a = 5.0
    rng = np.random.default_rng(13)
    draws = tw.truncated_standard(np.full(100_000, a), rng)
    assert draws.min() >= a
    exact_mean = np.exp(-a * a / 2) / np.sqrt(2 * np.pi) / ndtr(-a)
    assert draws.mean() == pytest.approx(exact_mean, abs=4 * draws.std() / np.sqrt(1e5))


@pytest.mark.parametrize("a", [-40.0, 0.0, 3.99, 4.01, 5.0, 40.0, 1e3])
def test_truncated_standard_takes_one_uniform_per_element(a):
    rng = np.random.default_rng(21)
    ref = np.random.default_rng(21)
    tw.truncated_standard(np.full((7, 3), a), rng)
    ref.random(21)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("a", [5.0, 10.0, 40.0, 1e3])
def test_truncated_standard_deep_tail_mean(a):
    # mean of N(0,1) given > a is pdf(a) / Q(a), taken in logs: Q underflows past a = 38
    rng = np.random.default_rng(22)
    draws = tw.truncated_standard(np.full(50_000, a), rng)
    assert np.all(np.isfinite(draws)) and draws.min() >= a
    exact_mean = np.exp(-a * a / 2 - log_ndtr(-a)) / np.sqrt(2 * np.pi)
    assert draws.mean() == pytest.approx(exact_mean, abs=4 * draws.std() / np.sqrt(draws.size))


class _ZeroUniforms:
    def random(self, size=None):
        return np.zeros(size)


def test_truncated_standard_at_zero_uniform():
    # u = 0 is the edge of the inverse CDF: the draw is the lowest quantile
    # the log scale can reach, finite and inside the support
    a = np.array([-40.0, 0.0, 8.3, 37.5, 40.0])
    draws = tw.truncated_standard(a, _ZeroUniforms())
    assert np.all(np.isfinite(draws))
    assert np.all(draws >= a)


def test_orthant_arcsin_identity():
    for rho in (-0.95, -0.5, 0.0, 0.3, 0.8, 0.99):
        got = tw.orthant_edge_probability(rho, 0.0)
        assert got == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-10)


def test_orthant_limit_correlations():
    for alpha in (-1.0, 0.0, 1.5):
        assert tw.orthant_edge_probability(1.0, alpha) == pytest.approx(float(ndtr(-alpha)), abs=0.0)
        both = max(0.0, 1.0 - 2.0 * float(ndtr(alpha)))
        assert tw.orthant_edge_probability(-1.0, alpha) == pytest.approx(both, abs=0.0)


def test_orthant_against_bivariate_cdf():
    # P(X > a, Y > a) = 1 - 2 Phi(a) + P(X <= a, Y <= a)
    for rho in (-0.7, -0.2, 0.4, 0.9):
        for alpha in (-1.5, -0.3, 0.6, 2.0):
            cdf = multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]]).cdf([alpha, alpha])
            expect = 1.0 - 2.0 * float(ndtr(alpha)) + float(cdf)
            got = tw.orthant_edge_probability(rho, alpha)
            assert got == pytest.approx(expect, abs=5e-7)


def test_orthant_validation():
    with pytest.raises(ValidationError):
        tw.orthant_edge_probability(1.2, 0.0)
