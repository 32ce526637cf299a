"""Dense Gaussian machinery: covariance assembly, rank-aware factorization,
conditioning, truncated-normal sampling, and the bivariate orthant probability.

Ball covariances of the wave process are singular by construction (one exact
linear constraint per interior vertex), so everything here is written against
possibly rank-deficient matrices: factorization keeps only eigenvalues above a
relative cutoff and conditioning uses numpy's Hermitian pseudo-inverse with
the same cutoff.  Truncated normals come from one inverse CDF on the log
survival scale, which stays accurate arbitrarily deep in the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr, ndtri_exp

from .errors import NumericalError, ValidationError
from .spectral import CovarianceProfile
from .tree import Ball, pairwise_distances

# Eigenvalues below RANK_RTOL * (largest eigenvalue) count as zero, both when
# factoring and when inverting for conditioning.
RANK_RTOL = 1e-9
# Any eigenvalue below this absolute floor means the input was never a
# covariance matrix; that is an upstream bug, not data.
NEGATIVE_EIGENVALUE_FLOOR = -1e-6

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def assemble_covariance(profile: CovarianceProfile, vertices: Ball) -> np.ndarray:
    """Covariance matrix phi(graph distance) over the vertices of a ball, in BFS order."""
    dist = pairwise_distances(vertices)
    profile.require(int(dist.max()))  # fails loudly when the profile is too short
    return profile.phi[dist]


@dataclass(frozen=True)
class PsdFactor:
    """Semidefinite square root: factor has shape (n, rank), factor @ factor.T
    reconstructs the input up to the rank cutoff."""

    factor: np.ndarray
    rank: int

    def draw(self, rng: np.random.Generator, reps: int = 1) -> np.ndarray:
        """reps zero-mean Gaussian vectors with this covariance, shape (reps, n)."""
        z = rng.standard_normal((reps, self.rank))
        return z @ self.factor.T


def factor_psd(matrix: np.ndarray) -> PsdFactor:
    """Eigenvalue factorization of a positive semidefinite matrix.

    Eigenvalues below RANK_RTOL * max eigenvalue are clamped to zero and
    excluded from the factor; an eigenvalue below NEGATIVE_EIGENVALUE_FLOOR is
    rejected outright.
    """
    c = np.asarray(matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {c.shape}")
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-12):
        raise ValidationError("covariance matrix must be symmetric")
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    if w[0] < NEGATIVE_EIGENVALUE_FLOOR:
        raise NumericalError(
            f"eigenvalue {w[0]:.3e} below the PSD floor; not a covariance matrix"
        )
    # A matrix with no positive eigenvalue keeps none: rank 0.
    keep = w > RANK_RTOL * max(w[-1], 0.0)
    factor = v[:, keep] * np.sqrt(w[keep])
    return PsdFactor(factor=factor, rank=int(np.count_nonzero(keep)))


@dataclass(frozen=True)
class ConditionalGaussian:
    """Conditional law of the target block given the conditioning block:
    mean = coeff @ given_values, covariance = residual."""

    coeff: np.ndarray
    residual: np.ndarray


def conditional(
    matrix: np.ndarray, given: Sequence[int], target: Sequence[int]
) -> ConditionalGaussian:
    """Schur-complement conditioning through numpy's Hermitian pseudo-inverse.

    The pseudo-inverse drops eigenvalues of the given block whose magnitude is
    at most RANK_RTOL times the largest, the factorization cutoff, so
    conditioning on a singular block is well defined as long as the
    conditioning values respect the block's exact linear constraints.
    """
    c = np.asarray(matrix, dtype=float)
    given = list(int(i) for i in given)
    target = list(int(i) for i in target)
    if len(target) == 0:
        raise ValidationError("conditional requires a nonempty target block")
    if set(given) & set(target):
        raise ValidationError("given and target blocks must be disjoint")
    n = c.shape[0]
    for i in given + target:
        if i < 0 or i >= n:
            raise ValidationError(f"index {i} outside matrix of size {n}")
    c22 = c[np.ix_(target, target)]
    if len(given) == 0:
        return ConditionalGaussian(
            coeff=np.zeros((len(target), 0)), residual=c22.copy()
        )
    c11 = c[np.ix_(given, given)]
    c21 = c[np.ix_(target, given)]
    coeff = c21 @ np.linalg.pinv(c11, rcond=RANK_RTOL, hermitian=True)
    residual = c22 - coeff @ c21.T
    residual = 0.5 * (residual + residual.T)
    return ConditionalGaussian(coeff=coeff, residual=residual)


def truncated_standard(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws of a standard normal conditioned on exceeding a, elementwise.

    One uniform u per element and one inverse CDF on the log survival scale:
    x = -ndtri_exp(log(1 - u) + log Q(a)), with Q the upper normal tail.  The
    log scale keeps the draw accurate however deep a lies in either tail.
    """
    a = np.asarray(a, dtype=float)
    u = rng.random(a.shape)
    # u = 0 with a << 0 would give log 1 = 0 and x = -inf; the cap keeps the
    # argument strictly below 0.
    log_p = np.minimum(np.log1p(-u) + log_ndtr(-a), math.log(np.nextafter(1.0, 0.0)))
    # u near 0 puts x at a itself, where rounding can land an ulp below a.
    return np.maximum(-ndtri_exp(log_p), a)


def orthant_edge_probability(rho: float, alpha: float) -> float:
    """P(X > alpha, Y > alpha) for a standard bivariate normal with correlation rho.

    Computed by 1-D adaptive quadrature of
        integral_alpha^inf  pdf(x) * Q((alpha - rho x) / sqrt(1 - rho^2)) dx,
    accurate to about 1e-10 absolute and to a small relative error deep in
    the tail, where the Owen's T closed form Q(a) - 2 T(a, .) cancels (at
    rho = -0.5, alpha = 5 it returns -1.2e-21 for 3.4e-25).  |rho| = 1
    reduces to the exact limits (X = Y, respectively Y = -X).  This stays the
    public route; haggstrom_alpha searches with Owen's T and calls this once,
    to check its root.
    """
    rho = float(rho)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    if not math.isfinite(rho) or abs(rho) > 1.0:
        raise ValidationError(f"correlation must lie in [-1, 1], got {rho!r}")
    if rho == 1.0:
        return float(ndtr(-alpha))
    if rho == -1.0:
        return max(0.0, 1.0 - 2.0 * float(ndtr(alpha)))
    s = math.sqrt(1.0 - rho * rho)

    def integrand(x: float) -> float:
        return math.exp(-0.5 * x * x) / _SQRT_2PI * float(ndtr((rho * x - alpha) / s))

    # For |rho| near 1 the inner factor switches on a short scale around
    # x = alpha / rho; splitting there keeps the adaptive rule honest.  Past
    # max(alpha, 0) + 40, pdf(x) underflows to zero, so a split there (tiny
    # |rho|) would only hide the mass inside a huge first piece.
    pieces = [alpha, math.inf]
    if rho != 0.0 and alpha < alpha / rho < max(alpha, 0.0) + 40.0:
        pieces = [alpha, alpha / rho, math.inf]
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)
        total += val
    return min(max(total, 0.0), 1.0)
