import numpy as np
import pytest

import treewaves as tw
from treewaves.errors import ValidationError


def test_spectral_edge_values():
    assert tw.spectral_edge(3) == pytest.approx(2.0 * np.sqrt(2.0), abs=0.0)
    assert tw.spectral_edge(4) == pytest.approx(2.0 * np.sqrt(3.0), abs=0.0)
    assert tw.spectral_edge(10) == pytest.approx(6.0, abs=1e-15)


def test_spectral_point_validation():
    edge = tw.spectral_edge(3)
    p = tw.SpectralPoint(3, edge * (1.0 + 5e-13))
    assert p.lam == edge  # tiny overshoot clamps onto the edge
    with pytest.raises(ValidationError):
        tw.SpectralPoint(3, edge * 1.01)
    with pytest.raises(ValidationError):
        tw.SpectralPoint(3, np.nan)


def test_tree_params_validation():
    # the degree: an integer (numpy ones become int) of at least 3
    assert tw.SpectralPoint(3, 0.0).d == 3
    assert type(tw.SpectralPoint(np.int64(3), 0.0).d) is int
    for d in (2, True, 3.0):
        with pytest.raises(ValidationError, match="degree d must be"):
            tw.SpectralPoint(d, 0.0)
        with pytest.raises(ValidationError, match="degree d must be"):
            tw.sphere_size(d, 1)


def test_profile_low_orders_closed_form():
    for d in (3, 4, 5):
        edge = tw.spectral_edge(d)
        for lam in np.linspace(-edge, edge, 9):
            prof = tw.build_profile(tw.SpectralPoint(d, float(lam)), 4)
            assert prof.phi[0] == pytest.approx(1.0, abs=0.0)
            assert prof.phi[1] == pytest.approx(lam / d, abs=1e-15)
            assert prof.phi[2] == pytest.approx((lam**2 - d) / (d * (d - 1)), abs=1e-14)


def test_profile_frozen_values():
    prof = tw.build_profile(tw.SpectralPoint(3, 0.0), 6)
    np.testing.assert_allclose(
        prof.phi, [1.0, 0.0, -0.5, 0.0, 0.25, 0.0, -0.125], rtol=0.0, atol=1e-15
    )
    assert prof.big_phi == pytest.approx(3.0, abs=1e-9)
    prof = tw.build_profile(tw.SpectralPoint(3, 1.0), 3)
    np.testing.assert_allclose(prof.phi, [1.0, 1 / 3, -1 / 3, -1 / 3], rtol=1e-14)


def test_profile_recursion_identities():
    for d in (3, 5):
        edge = tw.spectral_edge(d)
        for lam in np.linspace(-edge, edge, 7):
            prof = tw.build_profile(tw.SpectralPoint(d, float(lam)), 20)
            phi = prof.phi
            assert d * phi[1] == pytest.approx(lam * phi[0], abs=1e-13)
            for k in range(1, 20):
                lhs = lam * phi[k]
                rhs = phi[k - 1] + (d - 1) * phi[k + 1]
                assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lam)))


def test_profile_interface():
    prof = tw.build_profile(tw.SpectralPoint(3, 1.0), 5)
    assert prof.n_max == 5
    prof.require(5)
    with pytest.raises(ValidationError):
        prof.require(6)
    with pytest.raises(ValidationError):
        tw.build_profile(tw.SpectralPoint(3, 1.0), 1)


def test_profile_hashes_and_compares_by_identity():
    # profiles key the sampler caches, so equal arguments are not equal profiles
    p = tw.build_profile(tw.SpectralPoint(3, 1.0), 5)
    q = tw.build_profile(tw.SpectralPoint(3, 1.0), 5)
    assert hash(p) == hash(p) and p == p
    assert p != q and len({p, q}) == 2


def test_scaled_covariance_bounded_inside_spectrum():
    # |phi(n)| (d-1)^{n/2} stays below 2 away from the spectral endpoints;
    # at the endpoints it equals (n(d-2) + d)/d exactly, growing linearly
    for d in (3, 4, 5, 10):
        edge = tw.spectral_edge(d)
        for lam in np.linspace(-0.8 * edge, 0.8 * edge, 21):
            prof = tw.build_profile(tw.SpectralPoint(d, float(lam)), 60)
            scaled = np.abs(prof.phi) * (d - 1.0) ** (np.arange(61) / 2.0)
            assert scaled.max() <= 2.0
        for sign in (1.0, -1.0):
            prof = tw.build_profile(tw.SpectralPoint(d, sign * edge), 60)
            n = np.arange(61)
            expect = sign**n * (n * (d - 2) + d) / d
            scaled = prof.phi * (d - 1.0) ** (n / 2.0)
            np.testing.assert_allclose(scaled, expect, atol=1e-10)


def test_big_phi_even_in_lambda():
    for d in (3, 4):
        for lam in (0.5, 1.3):
            a = tw.build_profile(tw.SpectralPoint(d, lam), 2).big_phi
            b = tw.build_profile(tw.SpectralPoint(d, -lam), 2).big_phi
            assert a == pytest.approx(b, rel=1e-12)
            assert a >= 1.0


def test_spectral_density_frozen_and_normalized():
    from scipy.integrate import quad

    # d = 3, lam = 0: (3 / (2 pi)) * sqrt(8) / 9 = sqrt(2) / (3 pi)
    got = tw.spectral_density(tw.SpectralPoint(3, 0.0))
    assert got == pytest.approx(np.sqrt(2.0) / (3.0 * np.pi), rel=1e-14)
    for d in (3, 4):
        edge = tw.spectral_edge(d)
        total, err = quad(lambda x: tw.spectral_density(tw.SpectralPoint(d, x)), -edge, edge)
        assert total == pytest.approx(1.0, abs=max(1e-9, 10 * err))
    assert tw.spectral_density(tw.SpectralPoint(3, tw.spectral_edge(3))) == pytest.approx(0.0, abs=0.0)


def test_sample_lambda_moments():
    # mean 0, second moment d, median 0, support inside the spectral interval
    for d, seed in ((3, 44), (4, 45)):
        draws = tw.sample_lambda_many(d, 1_000_000, np.random.default_rng(seed))
        edge = tw.spectral_edge(d)
        assert np.abs(draws).max() <= edge
        se_mean = np.sqrt(d / 1e6)
        assert abs(draws.mean()) <= 4 * se_mean
        var4 = d * (2 * d - 1) - d * d  # fourth moment d(2d-1) minus squared second moment
        assert abs(draws.var() - d) <= 4 * np.sqrt(var4 / 1e6)
        assert abs(np.mean(draws < 0.0) - 0.5) <= 4 * 0.5 / 1000.0


def test_sample_lambda_scalar_matches_stream():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    single = np.array([tw.sample_lambda(3, rng1) for _ in range(5)])
    batch = tw.sample_lambda_many(3, 5, rng2)
    np.testing.assert_allclose(single, batch, rtol=0.0, atol=0.0)


def test_sample_lambda_size_must_be_a_nonnegative_integer():
    rng = np.random.default_rng(0)
    for size in (2.0, True, -1):
        with pytest.raises(ValidationError):
            tw.sample_lambda_many(3, size, rng)
    empty = tw.sample_lambda_many(3, 0, rng)
    assert empty.shape == (0,)


KM_DEGREES = (3, 4, 10, 100, 1000)


def test_kesten_mckay_cdf_closed_form():
    for d in KM_DEGREES:
        edge = tw.spectral_edge(d)
        assert tw.kesten_mckay_cdf(d, -edge) == pytest.approx(0.0, abs=1e-15)
        assert tw.kesten_mckay_cdf(d, edge) == pytest.approx(1.0, abs=1e-15)
        assert tw.kesten_mckay_cdf(d, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert tw.kesten_mckay_cdf(d, [-2 * edge, 2 * edge]).tolist() == [0.0, 1.0]
        grid = np.linspace(0.0, edge, 1001)
        np.testing.assert_allclose(tw.kesten_mckay_cdf(d, -grid), 1.0 - tw.kesten_mckay_cdf(d, grid),
                                   rtol=0.0, atol=1e-15)
        lam = np.linspace(-0.999 * edge, 0.999 * edge, 2001)
        h = 1e-6 * edge
        slope = (tw.kesten_mckay_cdf(d, lam + h) - tw.kesten_mckay_cdf(d, lam - h)) / (2 * h)
        rho = np.array([tw.spectral_density(tw.SpectralPoint(d, float(x))) for x in lam])
        np.testing.assert_allclose(slope, rho, rtol=0.0, atol=1e-8)


class _FixedUniforms:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def test_sample_lambda_inverts_the_cdf_at_the_edges():
    edges = [0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53]
    # deep in the lower tail F's rounding error swamps the mass; the Newton
    # bracket must still hold the draw near the root
    tail = np.logspace(-300, -1, 1000)
    u = np.concatenate([edges, tail, np.random.default_rng(5).random(10_000)])
    for d in (*range(3, 25), 100, 1000):
        lam = tw.sample_lambda_many(d, len(u), _FixedUniforms(u))
        assert np.abs(lam).max() <= tw.spectral_edge(d)
        assert np.abs(tw.kesten_mckay_cdf(d, lam) - u).max() <= 2e-14  # 4e-15 at d = 3
    # roots of the module docstring's F at these uniforms, solved to 40 digits
    pinned = [0.82432783023986322, 2.3614954003530012, 1.7389238638377178,
              -1.7339110792193606, -1.2939039578991725]
    got = tw.sample_lambda_many(3, 5, np.random.default_rng(7))
    np.testing.assert_allclose(got, pinned, rtol=0.0, atol=1e-13)


def test_repulsion_coefficients_frozen():
    c = tw.repulsion_coefficients(tw.SpectralPoint(3, 0.0))
    assert c.a1 == pytest.approx(0.0, abs=0.0)
    assert c.a2 == pytest.approx(0.8, abs=1e-15)
    edge = tw.spectral_edge(3)
    c = tw.repulsion_coefficients(tw.SpectralPoint(3, edge))
    assert c.a1 == pytest.approx(12 * np.sqrt(2.0) / 13.0, rel=1e-14)
    assert c.a2 == pytest.approx(4.0 / 13.0, rel=1e-14)


@pytest.mark.parametrize("n_max", [2.0, True, np.float64(3)], ids=["float", "bool", "np.float64"])
def test_profile_length_must_be_an_integer(n_max):
    with pytest.raises(ValidationError) as err:
        tw.build_profile(tw.SpectralPoint(3, 0.0), n_max)
    assert str(err.value) == f"n_max must be an integer, got {n_max!r}"
