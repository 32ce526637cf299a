"""Exact samplers of the wave process on balls and geodesic paths.

Two routes produce a ball sample:

* dense: assemble the full ball covariance and draw through its rank-aware
  eigenvalue factor;
* recursive: draw the root, then each family of children given (vertex,
  parent), from the root outward.  Every realization solves the eigenvalue
  equation lambda psi(v) = sum of the neighbours of v, and the process is
  order-2 Markov along geodesics, so the law of the `fan` children of v given
  psi(v) and psi(parent v) is exact and in closed form: mean
  (lambda psi(v) - psi(parent v)) / fan for each child, residual covariance
  (1 - phi(2)) (I - J / fan).  `fan` is d at the root, which has no parent
  (value 0), and d - 1 elsewhere.  A family is drawn as its mean plus
  sqrt(1 - phi(2)) (z - mean z) for fan standard normals z; no matrix is
  factored, and every family of a shell is drawn in one step.

Both routes sample the same law; the recursive one satisfies the local wave
identities by construction and scales linearly in the ball size.

A geodesic path is order-2 Markov: given the two previous coordinates the next
one is Gaussian with mean b1 * (two back) + b2 * (one back).  `path_step_kernel`
exposes those weights, `path_step_table` the (b1, b2, sd) of every coordinate
from the first, and `sample_path_many` iterates the table over a batch of
independent paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import assemble_covariance, factor_psd
from .spectral import CovarianceProfile
from .tree import Ball, enumerate_ball

# |phi(1)| = |lambda|/d <= 2 sqrt(d-1)/d < 1 for d >= 3; reaching 1 would make
# the step kernel degenerate and signals corrupted inputs.
_PHI1_DEGENERACY_TOL = 1e-12

# The dense sampler holds N x N distances and covariance and runs eigh on them,
# so it refuses balls above this many vertices (d=3 reaches 1534 at r=9).
# Larger balls go through the recursive sampler.
DENSE_VERTEX_BUDGET = 2048


@dataclass(frozen=True)
class BallSample:
    """One realization of the process on a ball, in the ball's BFS order."""

    profile: CovarianceProfile
    ball: Ball
    values: np.ndarray
    sampler: str

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.ball),):
            raise ValidationError(
                f"values shape {vals.shape} does not match ball size {len(self.ball)}"
            )
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class StepKernel:
    """Conditional law of the next path coordinate given the previous two:
    next ~ Normal(b1 * two_back + b2 * one_back, sigma2)."""

    b1: float
    b2: float
    sigma2: float


def path_step_kernel(profile: CovarianceProfile) -> StepKernel:
    """Order-2 Markov step weights from the covariance profile."""
    phi1 = profile.require(1)
    phi2 = profile.require(2)
    if abs(phi1) >= 1.0 - _PHI1_DEGENERACY_TOL:
        raise NumericalError(f"degenerate step kernel: |phi(1)| = {abs(phi1)!r}")
    denom = 1.0 - phi1 * phi1
    b1 = (phi2 - phi1 * phi1) / denom
    b2 = phi1 * (1.0 - phi2) / denom
    sigma2 = 1.0 - b1 * phi2 - b2 * phi1
    return StepKernel(b1=b1, b2=b2, sigma2=sigma2)


def path_step_table(
    profile: CovarianceProfile, n: int
) -> list[tuple[float, float, float]]:
    """(b1, b2, sd) for each of n path coordinates: coordinate k is
    b1 * (coordinate k-2) + b2 * (coordinate k-1) + sd * N(0, 1), with zeros
    before the path.  Coordinate 1 is N(0, 1), coordinate 2 its
    phi(1)-correlated successor, and the order-2 kernel carries on from there.
    """
    steps = [(0.0, 0.0, 1.0)]
    if n >= 2:
        phi1 = profile.require(1)
        steps.append((0.0, phi1, math.sqrt(1.0 - phi1 * phi1)))
    if n >= 3:
        kern = path_step_kernel(profile)
        steps += [(kern.b1, kern.b2, math.sqrt(kern.sigma2))] * (n - 2)
    return steps


def sample_path_many(
    profile: CovarianceProfile, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """reps independent path draws stacked as a (reps, n) matrix."""
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    out = np.empty((reps, n))
    prev = cur = 0.0  # no coordinates before the path
    for k, (b1, b2, sd) in enumerate(path_step_table(profile, n)):
        noise = rng.standard_normal(reps)
        noise *= sd
        np.add(b1 * prev + b2 * cur, noise, out=out[:, k])
        prev, cur = cur, out[:, k]
    return out


def sample_ball_dense_many(
    profile: CovarianceProfile, r: int, reps: int, rng: np.random.Generator
) -> tuple[Ball, np.ndarray]:
    """reps independent dense ball draws stacked as a (reps, ball size) matrix."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    ball = enumerate_ball(profile.point.d, r, max_vertices=DENSE_VERTEX_BUDGET)
    cov = assemble_covariance(profile, ball)
    return ball, factor_psd(cov).draw(rng, reps)


def sample_ball_dense(
    profile: CovarianceProfile, r: int, rng: np.random.Generator
) -> BallSample:
    """Draw on the radius-r ball through the full covariance factorization."""
    ball, values = sample_ball_dense_many(profile, r, 1, rng)
    return BallSample(profile=profile, ball=ball, values=values[0], sampler="dense")


def sample_ball_recursive_many(
    profile: CovarianceProfile, r: int, reps: int, rng: np.random.Generator
) -> tuple[Ball, np.ndarray]:
    """reps independent recursive ball draws stacked as a (reps, ball size) matrix."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    d, lam = profile.point.d, profile.point.lam
    ball = enumerate_ball(d, r)
    values = np.empty((reps, len(ball)))
    values[:, 0] = rng.standard_normal(reps)
    sd = math.sqrt(1.0 - profile.require(2))
    for depth in range(r):
        cur = ball.sphere_slice(depth)
        n_k = cur.stop - cur.start
        fan = d if depth == 0 else d - 1
        parent = values[:, ball.parent[cur]] if depth else 0.0
        mean = (lam * values[:, cur] - parent) / fan
        # Family-major normals: family i takes the i-th block of reps rows,
        # the same normals as one draw per family in BFS order.  In place,
        # z becomes mean + sd * (z - mean z).
        z = rng.standard_normal((n_k, reps, fan))
        shift = mean.T - (sd / fan) * (z @ np.ones(fan))
        z *= sd
        z += shift[:, :, None]
        kids = ball.sphere_slice(depth + 1)
        values[:, kids] = z.swapaxes(0, 1).reshape(reps, n_k * fan)
    return ball, values


def sample_ball_recursive(
    profile: CovarianceProfile, r: int, rng: np.random.Generator
) -> BallSample:
    """Draw on the radius-r ball shell by shell through local conditionals."""
    ball, values = sample_ball_recursive_many(profile, r, 1, rng)
    return BallSample(profile=profile, ball=ball, values=values[0], sampler="recursive")


def verify_sphere_sums(sample: BallSample) -> float:
    """Max deviation of sphere sums from their predicted multiples of the root.

    Summing the process over the distance-k sphere gives exactly
    |sphere_k| * phi(k) * (root value); the max absolute residual over
    k = 0..radius is returned.
    """
    ball = sample.ball
    root = sample.values[0]
    worst = 0.0
    for k in range(ball.radius + 1):
        sl = ball.sphere_slice(k)
        expected = (sl.stop - sl.start) * sample.profile.require(k) * root
        worst = max(worst, abs(float(sample.values[sl].sum()) - expected))
    return worst


def verify_eigen_residual(sample: BallSample) -> float:
    """Max absolute eigenvector-equation residual over interior vertices.

    For every vertex whose whole neighborhood lies in the ball,
    lambda * value(v) must equal the sum of the neighbor values.
    """
    ball = sample.ball
    vals = sample.values
    n_int = len(ball.interior_indices())
    if n_int == 0:
        return 0.0
    # Every parent is interior, so the child sums fill exactly n_int slots.
    around = np.bincount(ball.parent[1:], weights=vals[1:], minlength=n_int)
    around[1:] += vals[ball.parent[1:n_int]]
    return float(np.abs(sample.profile.point.lam * vals[:n_int] - around).max())


def sample_scale(sample: BallSample) -> float:
    """max |value| over the ball; the natural scale for residual tolerances."""
    return float(np.max(np.abs(sample.values)))
