"""Exact samplers of the wave process on balls and geodesic paths.

Two routes produce a ball sample:

* dense: assemble the full ball covariance and draw through its rank-aware
  eigenvalue factor;
* recursive: draw the root, then the first shell given the root, then each
  family of children given (vertex, parent).  The order-2 Markov property of
  the process along geodesics makes these local conditionals exact, and the
  per-family residual blocks are identical across the ball, so they are
  factored once and every family of a shell is drawn in one step.

Both routes sample the same law; the recursive one satisfies the local wave
identities by construction and scales linearly in the ball size.

A geodesic path is order-2 Markov: given the two previous coordinates the next
one is Gaussian with mean b1 * (two back) + b2 * (one back).  `path_step_kernel`
exposes those weights; `sample_path_many` iterates them over a batch of
independent paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import PsdFactor, assemble_covariance, factor_psd
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


def sample_path_many(
    profile: CovarianceProfile, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """reps independent path draws stacked as a (reps, n) matrix."""
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    out = np.empty((reps, n))
    out[:, 0] = rng.standard_normal(reps)
    if n >= 2:
        phi1 = profile.require(1)
        out[:, 1] = phi1 * out[:, 0] + math.sqrt(1.0 - phi1 * phi1) * rng.standard_normal(reps)
    if n >= 3:
        kern = path_step_kernel(profile)
        sd = math.sqrt(kern.sigma2)
        for k in range(2, n):
            out[:, k] = (
                kern.b1 * out[:, k - 2]
                + kern.b2 * out[:, k - 1]
                + sd * rng.standard_normal(reps)
            )
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


@dataclass(frozen=True)
class _RecursiveBlocks:
    """Precomputed conditional blocks reused across a recursive ball draw."""

    shell_mean_coeff: float  # first shell mean = phi(1) * root
    shell_factor: PsdFactor
    child_coeff_parent: float  # child mean = cp * grandparent + cv * vertex
    child_coeff_vertex: float
    child_factor: PsdFactor


def _recursive_blocks(profile: CovarianceProfile) -> _RecursiveBlocks:
    d = profile.point.d
    phi1 = profile.require(1)
    phi2 = profile.require(2)
    # First shell given the root: exchangeable residual with a zero mode along
    # the all-ones direction (the wave identity at the root).
    size = d
    diag = 1.0 - phi1 * phi1
    off = phi2 - phi1 * phi1
    shell = np.full((size, size), off)
    np.fill_diagonal(shell, diag)
    shell_factor = factor_psd(shell)
    # Children of v given (v, parent): the step kernel gives the mean weights,
    # and the shared conditional covariance is again exchangeable with a zero
    # row-sum mode (the wave identity at v).
    kern = path_step_kernel(profile)
    q = kern.b1 * phi2 + kern.b2 * phi1  # = 1 - sigma2
    fam = d - 1
    child = np.full((fam, fam), phi2 - q)
    np.fill_diagonal(child, kern.sigma2)
    child_factor = factor_psd(child)
    return _RecursiveBlocks(
        shell_mean_coeff=phi1,
        shell_factor=shell_factor,
        child_coeff_parent=kern.b1,
        child_coeff_vertex=kern.b2,
        child_factor=child_factor,
    )


def sample_ball_recursive_many(
    profile: CovarianceProfile, r: int, reps: int, rng: np.random.Generator
) -> tuple[Ball, np.ndarray]:
    """reps independent recursive ball draws stacked as a (reps, ball size) matrix."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    d = profile.point.d
    ball = enumerate_ball(d, r)
    values = np.empty((reps, len(ball)))
    values[:, 0] = rng.standard_normal(reps)
    if r == 0:
        return ball, values
    blocks = _recursive_blocks(profile)
    shell = ball.sphere_slice(1)
    values[:, shell] = (
        blocks.shell_mean_coeff * values[:, [0]] + blocks.shell_factor.draw(rng, reps)
    )
    for depth in range(1, r):
        cur = ball.sphere_slice(depth)
        n_k = cur.stop - cur.start
        mean = (
            blocks.child_coeff_parent * values[:, ball.parent[cur]]
            + blocks.child_coeff_vertex * values[:, cur]
        )
        # Family-major draw: family i takes the i-th block of reps rows, the
        # same normals as one draw per family in BFS order.
        noise = blocks.child_factor.draw(rng, n_k * reps).reshape(n_k, reps, d - 1)
        kids = mean[:, :, None] + noise.swapaxes(0, 1)
        values[:, ball.sphere_slice(depth + 1)] = kids.reshape(reps, n_k * (d - 1))
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
