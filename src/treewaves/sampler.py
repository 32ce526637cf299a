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
identities by construction and scales linearly in the ball size.  Only the
draws repeat per call: both routes take `enumerate_ball`'s cached ball, and the
dense factor is built once per (profile, radius) and reused while the same
profile object is passed (as in `verify`, which draws dense reps one call at a
time).  One factor is kept, at most 2048^2 float64 (34 MB).  `verify_residuals`
checks both wave identities on every row of a (reps, ball size) block; the
single-sample checks are its one-row case.

A geodesic path is order-2 Markov: given the two previous coordinates the next
one is Gaussian with mean b1 * (two back) + b2 * (one back) and variance var.
`path_step_table` is the one step law: a read-only (n, 3) float64 array whose
row k holds the (b1, b2, var) of coordinate k + 1.  Only its first two rows
differ from the rest.  `_path_columns` runs the rows over a batch of paths, one
column at a time, for `sample_path_many` and `levelset.survival_direct`; the
Gibbs plan, SMC and the transfer operator read the table itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalError, ValidationError, integer
from .gaussian import PsdFactor, assemble_covariance, factor_psd
from .spectral import CovarianceProfile
from .tree import Ball, enumerate_ball, shell_sizes

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


def path_step_table(profile: CovarianceProfile, n: int) -> np.ndarray:
    """Read-only (n, 3) float64 array of (b1, b2, var) rows, one per path
    coordinate: coordinate k is Normal(b1 * (coordinate k-2) + b2 *
    (coordinate k-1), var), with zeros before the path.  Coordinate 1 is
    N(0, 1), coordinate 2 its phi(1)-correlated successor, and the order-2
    kernel row fills the rest.
    """
    n = integer("path length", n, 1)
    steps = np.empty((n, 3))
    steps[0] = 0.0, 0.0, 1.0
    if n >= 2:
        phi1 = profile.require(1)
        denom = 1.0 - phi1 * phi1
        steps[1] = 0.0, phi1, denom
    if n >= 3:
        phi2 = profile.require(2)
        if abs(phi1) >= 1.0 - _PHI1_DEGENERACY_TOL:
            raise NumericalError(f"degenerate step kernel: |phi(1)| = {abs(phi1)!r}")
        b1 = (phi2 - phi1 * phi1) / denom
        b2 = phi1 * (1.0 - phi2) / denom
        steps[2:] = b1, b2, 1.0 - b1 * phi2 - b2 * phi1
    steps.flags.writeable = False
    return steps


def _path_columns(steps: np.ndarray, reps: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Coordinate columns of reps paths, one per row of `steps`; the last two are kept."""
    prev = cur = 0.0  # no coordinates before the path
    for row in steps:
        # Python floats: numpy scalars would keep `b1 * prev + b2 * cur` from reusing a temporary
        b1, b2, var = row.tolist()
        col = rng.standard_normal(reps)
        col *= math.sqrt(var)
        col += b1 * prev + b2 * cur
        yield col
        prev, cur = cur, col


def sample_path_many(
    profile: CovarianceProfile, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """reps independent path draws stacked as a (reps, n) matrix."""
    steps = path_step_table(profile, n)
    reps = integer("reps", reps, 1)
    out = np.empty((reps, len(steps)))
    for k, col in enumerate(_path_columns(steps, reps, rng)):
        out[:, k] = col
    return out


@functools.lru_cache(maxsize=1, typed=True)
def _dense_ball(profile: CovarianceProfile, r: int) -> tuple[Ball, PsdFactor]:
    """The shared radius-r ball, within DENSE_VERTEX_BUDGET, and its covariance
    factor; keyed by type too, so a float radius reaches the radius rule."""
    shell_sizes(profile.point.d, r, DENSE_VERTEX_BUDGET)
    ball = enumerate_ball(profile.point.d, r)
    return ball, factor_psd(assemble_covariance(profile, ball))


def sample_ball_dense_many(
    profile: CovarianceProfile, r: int, reps: int, rng: np.random.Generator
) -> tuple[Ball, np.ndarray]:
    """reps independent dense ball draws stacked as a (reps, ball size) matrix.

    The covariance factor is built once per (profile, radius) and reused while
    the same profile object is passed; one factor (at most 34 MB) is kept.
    """
    reps = integer("reps", reps, 1)
    ball, factor = _dense_ball(profile, r)
    return ball, factor.draw(rng, reps)


def sample_ball_dense(
    profile: CovarianceProfile, r: int, rng: np.random.Generator
) -> BallSample:
    """Draw on the radius-r ball through the full covariance factorization."""
    ball, values = sample_ball_dense_many(profile, r, 1, rng)
    return BallSample(profile=profile, ball=ball, values=values[0], sampler="dense")


def sample_ball_recursive_many(
    profile: CovarianceProfile, r: int, reps: int, rng: np.random.Generator
) -> tuple[Ball, np.ndarray]:
    """reps independent recursive ball draws stacked as a (reps, ball size) matrix.

    The normals of each shell are drawn family-major across the reps, so a
    block of reps is a different stream from the same number of single
    draws (reps = 1 is `sample_ball_recursive`'s stream).
    """
    reps = integer("reps", reps, 1)
    d, lam = profile.point.d, profile.point.lam
    ball = enumerate_ball(d, r)
    values = np.empty((reps, len(ball)))
    values[:, 0] = rng.standard_normal(reps)
    sd = math.sqrt(1.0 - profile.require(2))
    for depth in range(r):
        # Shell `depth` is lo:mid, its children mid:hi.
        lo, mid, hi = ball.starts[depth : depth + 3]
        fan = d if depth == 0 else d - 1
        parent = values[:, ball.parent[lo:mid]] if depth else 0.0
        mean = (lam * values[:, lo:mid] - parent) / fan
        # Family-major normals: family i takes the i-th block of reps rows,
        # the same normals as one draw per family in BFS order.  In place,
        # z becomes mean + sd * (z - mean z).
        z = rng.standard_normal((mid - lo, reps, fan))
        shift = mean.T - (sd / fan) * (z @ np.ones(fan))
        z *= sd
        z += shift[:, :, None]
        values[:, mid:hi] = z.swapaxes(0, 1).reshape(reps, hi - mid)
    return ball, values


def sample_ball_recursive(
    profile: CovarianceProfile, r: int, rng: np.random.Generator
) -> BallSample:
    """Draw on the radius-r ball shell by shell through local conditionals."""
    ball, values = sample_ball_recursive_many(profile, r, 1, rng)
    return BallSample(profile=profile, ball=ball, values=values[0], sampler="recursive")


def verify_residuals(
    profile: CovarianceProfile, ball: Ball, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two wave identities on each row of a (reps, ball size) block.

    Returns, per row, the max absolute eigenvector-equation residual over
    interior vertices (lambda * value(v) minus the sum of the neighbours of v,
    for every v whose whole neighbourhood lies in the ball; 0 when none does)
    and the max absolute deviation of the sphere sums, k = 0..radius, from
    |sphere_k| * phi(k) * (root value).  A row's residuals do not depend on
    the other rows of its block; `verify_eigen_residual` and
    `verify_sphere_sums` are the one-row case.
    """
    reps = len(values)
    sphere = np.zeros(reps)
    for k in range(ball.radius + 1):
        sl = ball.sphere_slice(k)
        expected = (sl.stop - sl.start) * profile.require(k) * values[:, 0]
        np.maximum(sphere, np.abs(values[:, sl].sum(axis=1) - expected), out=sphere)
    n_int = len(ball.interior_indices())
    if n_int == 0:
        return np.zeros(reps), sphere
    # Vertex 1 is the root's first child.  From vertex 2 on come the root's
    # other d - 1 children, then the d - 1 children of each interior vertex in
    # turn, so column j of this view holds a next child of every interior
    # vertex.  Adding the columns in order sums each vertex's children left to
    # right, in the same order whatever the number of rows.
    d = ball.d
    kids = values[:, 2:].reshape(reps, n_int, d - 1)
    around = kids[:, :, 0].copy()
    around[:, 0] = values[:, 1] + kids[:, 0, 0]
    for j in range(1, d - 1):
        around += kids[:, :, j]
    around[:, 1:] += values[:, ball.parent[1:n_int]]
    return np.abs(profile.point.lam * values[:, :n_int] - around).max(axis=1), sphere


def verify_sphere_sums(sample: BallSample) -> float:
    """Max deviation of sphere sums from their predicted multiples of the root.

    Summing the process over the distance-k sphere gives exactly
    |sphere_k| * phi(k) * (root value); the max absolute residual over
    k = 0..radius is returned.
    """
    return float(verify_residuals(sample.profile, sample.ball, sample.values[None])[1][0])


def verify_eigen_residual(sample: BallSample) -> float:
    """Max absolute eigenvector-equation residual over interior vertices.

    For every vertex whose whole neighborhood lies in the ball,
    lambda * value(v) must equal the sum of the neighbor values.
    """
    return float(verify_residuals(sample.profile, sample.ball, sample.values[None])[0][0])


def sample_scale(sample: BallSample) -> float:
    """max |value| over the ball; the natural scale for residual tolerances."""
    return float(np.max(np.abs(sample.values)))
