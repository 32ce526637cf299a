import numpy as np
import pytest

import treewaves as tw
from treewaves.errors import ValidationError

from tree_reference import address_index, ball_addresses


def _profile(d=3, lam=0.0, n_max=8):
    return tw.build_profile(tw.SpectralPoint(d, lam), n_max)


def test_step_kernel_frozen_values():
    k = tw.path_step_kernel(_profile(3, 0.0))
    assert (k.b1, k.b2, k.sigma2) == pytest.approx((-0.5, 0.0, 0.75), abs=1e-15)
    k = tw.path_step_kernel(_profile(3, 1.0))
    assert (k.b1, k.b2, k.sigma2) == pytest.approx((-0.5, 0.5, 2 / 3), abs=1e-14)


def test_step_kernel_closed_form_grid():
    # two-back coefficient -1/(d-1), one-back lambda/(d-1)
    for d in (3, 4, 5):
        edge = tw.spectral_edge(d)
        for lam in np.linspace(-0.9 * edge, 0.9 * edge, 7):
            k = tw.path_step_kernel(_profile(d, float(lam), 4))
            assert k.b1 == pytest.approx(-1.0 / (d - 1), abs=1e-12)
            assert k.b2 == pytest.approx(lam / (d - 1), abs=1e-12)
            assert k.sigma2 > 0.0


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
    from treewaves.sampler import DENSE_VERTEX_BUDGET

    assert tw.ball_vertex_count(3, 9) <= DENSE_VERTEX_BUDGET < tw.ball_vertex_count(3, 10)
    prof = _profile(3, 0.0, 20)
    with pytest.raises(ValidationError, match="budget"):
        tw.sample_ball_dense_many(prof, 10, 1, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="budget"):
        tw.sample_ball_dense(prof, 10, np.random.default_rng(0))


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
    """The recursive sampler drawn one family at a time over tuple-address lookups."""
    d = prof.point.d
    verts = ball_addresses(d, r)
    index = address_index(verts)
    blocks = tw.sampler._recursive_blocks(prof)
    vals = np.empty((reps, len(verts)))
    vals[:, 0] = rng.standard_normal(reps)
    vals[:, 1 : d + 1] = blocks.shell_mean_coeff * vals[:, [0]] + blocks.shell_factor.draw(rng, reps)
    for i, v in enumerate(verts):
        if 1 <= len(v) < r:
            kids = [index[v + (c,)] for c in range(d - 1)]
            mean = (
                blocks.child_coeff_parent * vals[:, [index[v[:-1]]]]
                + blocks.child_coeff_vertex * vals[:, [i]]
            )
            vals[:, kids] = mean + blocks.child_factor.draw(rng, reps)
    return vals


def test_recursive_matches_per_family_reference():
    # same normals per family as a family-by-family draw; only rounding differs
    for d, lam, r, reps in ((3, 1.0, 4, 3), (4, -0.8, 3, 1), (5, 2.5, 2, 2)):
        prof = _profile(d, lam, 2 * r)
        _, got = tw.sample_ball_recursive_many(prof, r, reps, np.random.default_rng(31))
        ref = _recursive_reference(prof, r, reps, np.random.default_rng(31))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


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


def test_empirical_means_are_centered():
    prof = _profile(4, 1.0, 4)
    _, vals = tw.sample_ball_recursive_many(prof, 2, 50_000, np.random.default_rng(13))
    assert np.abs(vals.mean(axis=0)).max() <= 4.5 / np.sqrt(50_000)


def test_degenerate_kernel_at_unit_correlation():
    # |phi(1)| = 1 only when lambda = +-d, impossible for d >= 3 inside the
    # spectrum, so the kernel is always defined; check it stays bounded at edges
    for d in (3, 4):
        prof = _profile(d, tw.spectral_edge(d), 4)
        k = tw.path_step_kernel(prof)
        assert np.isfinite([k.b1, k.b2, k.sigma2]).all()
