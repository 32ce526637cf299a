import numpy as np
import pytest

import treewaves as tw
from treewaves.cli import run
from treewaves.errors import ValidationError
from treewaves.sampler import DENSE_VERTEX_BUDGET, _dense_ball

from gaussian_reference import conditional
from tree_reference import address_index, ball_addresses


def _profile(d=3, lam=0.0, n_max=8):
    return tw.build_profile(tw.SpectralPoint(d, lam), n_max)


def test_step_kernel_frozen_values():
    b1, b2, var = tw.path_step_table(_profile(3, 0.0), 3)[-1]
    assert (b1, b2, var) == pytest.approx((-0.5, 0.0, 0.75), abs=1e-15)
    b1, b2, var = tw.path_step_table(_profile(3, 1.0), 3)[-1]
    assert (b1, b2, var) == pytest.approx((-0.5, 0.5, 2 / 3), abs=1e-14)


def test_step_kernel_closed_form_grid():
    # two-back coefficient -1/(d-1), one-back lambda/(d-1)
    for d in (3, 4, 5):
        edge = tw.spectral_edge(d)
        for lam in np.linspace(-0.9 * edge, 0.9 * edge, 7):
            b1, b2, var = tw.path_step_table(_profile(d, float(lam), 4), 3)[-1]
            assert b1 == pytest.approx(-1.0 / (d - 1), abs=1e-12)
            assert b2 == pytest.approx(lam / (d - 1), abs=1e-12)
            assert var > 0.0


def test_path_step_table_first_rows():
    # coordinate 1 is N(0, 1), coordinate 2 its phi(1)-correlated successor;
    # the kernel row repeats for every later coordinate
    for d, lam in ((3, 0.0), (3, 1.0), (5, -2.5)):
        prof = _profile(d, lam, 4)
        phi1 = prof.require(1)
        steps = tw.path_step_table(prof, 6)
        assert steps.dtype == np.float64 and steps.shape == (6, 3)
        assert not steps.flags.writeable
        steps = steps.tolist()
        assert steps[0] == [0.0, 0.0, 1.0]
        assert steps[1] == [0.0, phi1, 1.0 - phi1 * phi1]
        assert steps[2:] == [tw.path_step_table(prof, 3)[-1].tolist()] * 4
        assert tw.path_step_table(prof, 2).tolist() == steps[:2]
        assert tw.path_step_table(prof, 1).tolist() == steps[:1]


@pytest.mark.parametrize("n", [True, 2.5, 0, -4])
def test_path_step_table_rejects_bad_lengths(n):
    with pytest.raises(ValidationError, match="path length"):
        tw.path_step_table(_profile(), n)


def test_path_sample_shapes_and_validation():
    prof = _profile()
    vals = tw.sample_path_many(prof, 7, 1, np.random.default_rng(0))
    assert vals.shape == (1, 7)
    with pytest.raises(ValidationError):
        tw.sample_path_many(prof, 0, 1, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        tw.sample_path_many(prof, 3, 0, np.random.default_rng(0))


def test_path_empirical_covariance():
    prof = _profile(3, 1.5, 6)
    reps = 200_000
    vals = tw.sample_path_many(prof, 6, reps, np.random.default_rng(101))
    emp = vals.T @ vals / reps
    se = 4.0 / np.sqrt(reps)
    for i in range(6):
        for j in range(6):
            assert emp[i, j] == pytest.approx(prof.phi[abs(i - j)], abs=se)


def test_path_sublattices_decouple_at_lambda_zero():
    # phi vanishes at odd distances, so even and odd positions are independent
    prof = _profile(3, 0.0, 6)
    reps = 200_000
    vals = tw.sample_path_many(prof, 6, reps, np.random.default_rng(102))
    emp = vals.T @ vals / reps
    se = 4.0 / np.sqrt(reps)
    for i in range(6):
        for j in range(6):
            if (i - j) % 2 == 1:
                assert abs(emp[i, j]) <= se
    assert emp[0, 2] == pytest.approx(-0.5, abs=se)
    assert emp[1, 3] == pytest.approx(-0.5, abs=se)


def test_ball_identities_both_samplers():
    # sphere sums track the root value; interior vertices satisfy the
    # eigenvalue equation lambda psi(v) = sum of neighbor values
    cases = [(3, 0.0, 3), (3, 1.0, 3), (3, 2 * np.sqrt(2.0), 2), (4, -1.5, 2), (5, 0.7, 2)]
    for d, lam, r in cases:
        prof = _profile(d, lam, max(2, 2 * r))
        for fn in (tw.sample_ball_dense, tw.sample_ball_recursive):
            s = fn(prof, r, np.random.default_rng(7))
            scale = max(1.0, tw.sample_scale(s))
            assert tw.verify_sphere_sums(s) <= 1e-10 * scale
            assert tw.verify_eigen_residual(s) <= 1e-10 * scale


def test_ball_sample_fields():
    prof = _profile(3, 1.0, 4)
    s = tw.sample_ball_dense(prof, 2, np.random.default_rng(3))
    assert s.sampler == "dense"
    assert s.values.shape == (len(s.ball),)
    s = tw.sample_ball_recursive(prof, 2, np.random.default_rng(3))
    assert s.sampler == "recursive"
    with pytest.raises(ValidationError):
        tw.BallSample(profile=prof, ball=s.ball, values=s.values[:-1], sampler="dense")


def test_ball_radius_zero():
    prof = _profile(3, 1.0, 2)
    s = tw.sample_ball_recursive(prof, 0, np.random.default_rng(5))
    assert s.values.shape == (1,)
    assert tw.verify_eigen_residual(s) == 0.0


def test_dense_vertex_budget():
    assert tw.ball_vertex_count(3, 9) <= DENSE_VERTEX_BUDGET < tw.ball_vertex_count(3, 10)
    prof = _profile(3, 0.0, 20)
    rng = np.random.default_rng(0)
    tw.sample_ball_dense(prof, 2, rng)  # a warm cache refuses just the same
    with pytest.raises(ValidationError, match="budget"):
        tw.sample_ball_dense_many(prof, 10, 1, rng)
    with pytest.raises(ValidationError, match="budget"):
        tw.sample_ball_dense(prof, 10, rng)
    with pytest.raises(ValidationError, match="unavailable"):
        tw.sample_ball_dense(_profile(3, 0.0, 4), 3, rng)  # reads phi(6)
    # no error is cached: the warm entry still serves the next valid call
    hits = _dense_ball.cache_info().hits
    tw.sample_ball_dense(prof, 2, rng)
    assert _dense_ball.cache_info().hits == hits + 1


def test_cached_draws_match_cold_draws():
    # the ball and the dense factor are built once per (profile, radius);
    # reusing them gives the same bits as rebuilding them for every rep
    for d, lam, r in ((3, 0.7, 3), (4, -1.1, 2)):
        prof = _profile(d, lam, 2 * r)
        for draw in (tw.sample_ball_dense, tw.sample_ball_recursive):
            rng = np.random.default_rng(21)
            warm = [draw(prof, r, rng).values for _ in range(4)]
            rng = np.random.default_rng(21)
            cold = []
            for _ in range(4):
                _dense_ball.cache_clear()
                tw.enumerate_ball.cache_clear()
                cold.append(draw(prof, r, rng).values)
            np.testing.assert_array_equal(warm, cold)


def test_verify_factors_the_dense_covariance_once(monkeypatch, tmp_path):
    import treewaves.sampler as sampler_mod

    sizes = []

    def counting(matrix):
        sizes.append(len(matrix))
        return tw.factor_psd(matrix)

    monkeypatch.setattr(sampler_mod, "factor_psd", counting)
    argv = ["verify", "--d", "3", "--lambda", "0.5", "--radius", "3", "--reps", "30",
            "--sampler", "dense", "--out", str(tmp_path / "v.json")]
    assert run(argv) == 0
    assert sizes == [tw.ball_vertex_count(3, 3)]


def test_dense_cache_keys_on_profile_identity_and_radius():
    prof, twin = _profile(3, 0.4, 6), _profile(3, 0.4, 6)
    rng = np.random.default_rng(0)
    _dense_ball.cache_clear()
    for p, r in ((prof, 2), (prof, 2), (twin, 2), (twin, 3)):
        tw.sample_ball_dense(p, r, rng)
    info = _dense_ball.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    ball, factor = _dense_ball(twin, 3)
    assert ball is tw.enumerate_ball(3, 3)
    for arr in (factor.factor, ball.parent, ball.depth, ball.starts):
        assert not arr.flags.writeable


def test_recursive_matches_dense_covariance():
    # moderate-replicate version of the distribution-equality check; the
    # d=4, r=3 case runs the per-shell child draw over two shells
    reps = 50_000
    for d, lam, r in ((3, 1.0, 2), (4, -1.2, 3)):
        prof = _profile(d, lam, 2 * r)
        ball, dv = tw.sample_ball_dense_many(prof, r, reps, np.random.default_rng(11))
        _, rv = tw.sample_ball_recursive_many(prof, r, reps, np.random.default_rng(12))
        cov = tw.assemble_covariance(prof, ball)
        for emp in (dv.T @ dv / reps, rv.T @ rv / reps):
            z = (emp - cov) / np.sqrt((1.0 + cov**2) / reps)
            assert np.abs(z).max() <= 4.5


def _recursive_reference(prof, r, reps, rng):
    """The recursive sampler drawn one family at a time over tuple-address lookups.

    The fan children of v given (v, parent) have mean (lambda v - parent) / fan
    and residual (1 - phi(2)) (I - J / fan); the root has fan d and no parent.
    """
    d, lam = prof.point.d, prof.point.lam
    sd = np.sqrt(1.0 - prof.phi[2])
    verts = ball_addresses(d, r)
    index = address_index(verts)
    vals = np.empty((reps, len(verts)))
    vals[:, 0] = rng.standard_normal(reps)
    for i, v in enumerate(verts):
        if len(v) < r:
            fan = d if i == 0 else d - 1
            kids = [index[v + (c,)] for c in range(fan)]
            parent = vals[:, index[v[:-1]]] if i else 0.0
            mean = (lam * vals[:, i] - parent) / fan
            z = rng.standard_normal((reps, fan))
            vals[:, kids] = mean[:, None] + sd * (z - z.mean(axis=1, keepdims=True))
    return vals


def test_recursive_matches_per_family_reference():
    # same normals per family as a family-by-family draw; only rounding differs
    for d, lam, r, reps in ((3, 1.0, 4, 3), (4, -0.8, 3, 1), (5, 2.5, 2, 2)):
        prof = _profile(d, lam, 2 * r)
        _, got = tw.sample_ball_recursive_many(prof, r, reps, np.random.default_rng(31))
        ref = _recursive_reference(prof, r, reps, np.random.default_rng(31))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("d", range(3, 13))
def test_family_law_is_the_closed_form(d):
    # oracle: Schur conditioning of the assembled radius-3 ball covariance.
    # Given (v, parent), the fan children of v have mean weights
    # (lambda, -1) / fan and residual (1 - phi(2)) (I - J / fan); the root's
    # family has fan d and no parent, and a grandparent adds nothing.
    ball = tw.enumerate_ball(d, 3)
    edge = tw.spectral_edge(d)
    for lam in np.linspace(-edge, edge, 7):
        prof = _profile(d, float(lam), 6)
        cov = tw.assemble_covariance(prof, ball)
        q = 1.0 - prof.phi[2]
        w = d + 1  # first vertex of the second shell: parent 1, grandparent 0
        for given, weights, fan in (
            ([0], [lam], d),
            ([1, 0], [lam, -1.0], d - 1),
            ([w, 1, 0], [lam, -1.0, 0.0], d - 1),
        ):
            kids = np.flatnonzero(ball.parent == given[0])
            cond = conditional(cov, given=given, target=kids)
            np.testing.assert_allclose(
                cond.coeff, np.tile(weights, (fan, 1)) / fan, rtol=0.0, atol=1e-12
            )
            np.testing.assert_allclose(
                cond.residual, q * (np.eye(fan) - 1.0 / fan), rtol=0.0, atol=1e-12
            )


def test_recursive_sampler_factors_no_matrix(monkeypatch):
    import treewaves.gaussian as gaussian_mod
    import treewaves.sampler as sampler_mod

    def boom(*a, **k):
        raise RuntimeError("matrix factored")

    monkeypatch.setattr(sampler_mod, "factor_psd", boom)
    monkeypatch.setattr(gaussian_mod, "factor_psd", boom)
    monkeypatch.setattr(np.linalg, "eigh", boom)
    for d, r in ((3, 0), (3, 1), (4, 3), (11, 2)):
        prof = _profile(d, 0.4, 2 * max(r, 1))
        ball, vals = tw.sample_ball_recursive_many(prof, r, 3, np.random.default_rng(d))
        assert vals.shape == (3, len(ball))
        s = tw.BallSample(profile=prof, ball=ball, values=vals[0], sampler="recursive")
        assert tw.verify_eigen_residual(s) <= 1e-10 * max(1.0, tw.sample_scale(s))


def test_eigen_residual_matches_vertex_loop():
    # on values that are not a wave the residual is the loop's worst vertex
    for d, r in ((3, 3), (4, 2), (3, 1)):
        prof = _profile(d, 0.9, 4)
        ball = tw.enumerate_ball(d, r)
        vals = np.random.default_rng(d + r).standard_normal(len(ball))
        verts = ball_addresses(d, r)
        index = address_index(verts)
        worst = 0.0
        for i, v in enumerate(verts):
            if len(v) < r:
                nbrs = [index[v + (c,)] for c in range(d if i == 0 else d - 1)]
                if i > 0:
                    nbrs.append(index[v[:-1]])
                worst = max(worst, abs(0.9 * vals[i] - vals[nbrs].sum()))
        s = tw.BallSample(profile=prof, ball=ball, values=vals, sampler="dense")
        assert tw.verify_eigen_residual(s) == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("d", range(3, 7))
def test_block_residuals_match_single_sample_checks(d):
    # each row of the block kernel carries the single-sample bits, on waves
    # and on values that are not a wave; radius 0 has no interior vertex
    for r in range(5):
        prof = _profile(d, 0.6 * tw.spectral_edge(d), max(2, 2 * r))
        ball, waves = tw.sample_ball_recursive_many(prof, r, 4, np.random.default_rng(d + r))
        noise = np.random.default_rng(10 * d + r).standard_normal((3, len(ball)))
        block = np.vstack([waves, noise])
        eigen, sphere = tw.verify_residuals(prof, ball, block)
        assert eigen.shape == sphere.shape == (len(block),)
        for row, e, s in zip(block, eigen, sphere):
            sample = tw.BallSample(profile=prof, ball=ball, values=row, sampler="dense")
            assert e == tw.verify_eigen_residual(sample)
            assert s == tw.verify_sphere_sums(sample)
        if r == 0:
            assert not eigen.any() and not sphere.any()
        else:
            assert eigen[4:].min() > 1e-6 > eigen[:4].max()
            assert sphere[4:].min() > 1e-6 > sphere[:4].max()


def test_empirical_means_are_centered():
    prof = _profile(4, 1.0, 4)
    _, vals = tw.sample_ball_recursive_many(prof, 2, 50_000, np.random.default_rng(13))
    assert np.abs(vals.mean(axis=0)).max() <= 4.5 / np.sqrt(50_000)


def test_degenerate_kernel_at_unit_correlation():
    # |phi(1)| = 1 only when lambda = +-d, impossible for d >= 3 inside the
    # spectrum, so the kernel is always defined; check it stays bounded at edges
    for d in (3, 4):
        prof = _profile(d, tw.spectral_edge(d), 4)
        assert np.isfinite(tw.path_step_table(prof, 3)[-1]).all()


def test_verify_both_samplers_build_the_ball_once(tmp_path):
    # the dense route checks its smaller budget with shell_sizes, then takes
    # the same cached ball as the recursive route
    tw.enumerate_ball.cache_clear()
    argv = ["verify", "--d", "3", "--lambda", "0.5", "--radius", "3", "--reps", "30",
            "--sampler", "both", "--out", str(tmp_path / "v.json")]
    assert run(argv) == 0
    assert tw.enumerate_ball.cache_info().misses == 1


def _dense_float_radius_after_a_warm_call():
    # a radius equal to the cached one but of another type misses the cache
    prof = _profile(3, 0.0, 4)
    tw.sample_ball_dense(prof, 2, np.random.default_rng(0))
    return tw.sample_ball_dense(prof, 2.0, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: tw.sample_ball_dense_many(_profile(3, 0.0, 4), 2, 0, np.random.default_rng(0)),
     "reps must be >= 1, got 0"),
    (lambda: tw.sample_ball_recursive_many(_profile(3, 0.0, 4), 2, 0, np.random.default_rng(0)),
     "reps must be >= 1, got 0"),
    (lambda: tw.sample_ball_dense_many(_profile(3, 0.0, 4), 2, 3.0, np.random.default_rng(0)),
     "reps must be an integer, got 3.0"),
    (lambda: tw.sample_ball_recursive_many(_profile(3, 0.0, 4), 2, 3.0, np.random.default_rng(0)),
     "reps must be an integer, got 3.0"),
    (lambda: tw.sample_path_many(_profile(3, 0.0, 4), 5, 3.0, np.random.default_rng(0)),
     "reps must be an integer, got 3.0"),
    (lambda: tw.sample_ball_recursive(_profile(3, 0.0, 4), 2.0, np.random.default_rng(0)),
     "ball radius must be an integer, got 2.0"),
    (_dense_float_radius_after_a_warm_call, "ball radius must be an integer, got 2.0"),
], ids=["dense", "recursive", "dense-reps-float", "recursive-reps-float", "path-reps-float",
        "recursive-radius-float", "dense-radius-float-cached"])
def test_ball_draws_reject_no_reps(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
