"""Dense Gaussian machinery: covariance assembly, rank-aware factorization,
truncated-normal sampling, and the bivariate orthant probability.

Ball covariances of the wave process are singular by construction (one exact
linear constraint per interior vertex), so factorization is written against
possibly rank-deficient matrices and keeps only eigenvalues above a relative
cutoff.  Truncated normals come from one inverse CDF on the log survival
scale, which stays accurate arbitrarily deep in the tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite
from .spectral import CovarianceProfile
from .tree import Ball, pairwise_distances

# Eigenvalues below RANK_RTOL * (largest eigenvalue) count as zero when factoring.
RANK_RTOL = 1e-9
# Any eigenvalue below this absolute floor means the input was never a
# covariance matrix; that is an upstream bug, not data.
NEGATIVE_EIGENVALUE_FLOOR = -1e-6

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_BELOW_ONE = np.array(math.log(np.nextafter(1.0, 0.0)))


def assemble_covariance(profile: CovarianceProfile, vertices: Ball) -> np.ndarray:
    """Covariance matrix phi(graph distance) over the vertices of a ball, in BFS order."""
    dist = pairwise_distances(vertices)
    profile.require(int(dist.max()))  # fails loudly when the profile is too short
    return profile.phi[dist]


@dataclass(frozen=True)
class PsdFactor:
    """Semidefinite square root: factor has shape (n, rank), read-only, and
    factor @ factor.T reconstructs the input up to the rank cutoff."""

    factor: np.ndarray

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

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
    factor.flags.writeable = False
    return PsdFactor(factor)


def truncated_standard(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws of a standard normal conditioned on exceeding a, elementwise.

    One uniform u per element and one inverse CDF on the log survival scale:
    x = -ndtri_exp(log(1 - u) + log Q(a)), with Q the upper normal tail.  The
    log scale keeps the draw accurate however deep a lies in either tail.
    """
    a = np.asarray(a, dtype=float)
    return -_truncated_inverse(-a, np.log1p(-rng.random(a.shape)))


@functools.cache
def _special():
    """scipy.special, imported on first use and then bound once per process."""
    import scipy.special
    return scipy.special


def _truncated_inverse(z, log_q, out=None):
    """y = min(ndtri_exp(min(log_q + log_ndtr(z), log(1 - ulp))), z): with log_q =
    log(1 - u), -y is a standard normal draw above -z.  The one inversion of
    `truncated_standard` and the Gibbs sweep; with `out` (not z), in place."""
    special = _special()
    # u = 0 with z >> 0 would give log 1 = 0 and ndtri_exp(0) = inf; the cap
    # keeps the argument strictly below 0.
    y = special.log_ndtr(z, out=out)
    y = np.minimum(np.add(log_q, y, out=out), _LOG_BELOW_ONE, out=out)
    # u near 0 puts y at z itself, where rounding can land an ulp above z.
    return np.minimum(special.ndtri_exp(y, out=out), z, out=out)


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
    alpha = finite("alpha", alpha)
    if not math.isfinite(rho) or abs(rho) > 1.0:
        raise ValidationError(f"correlation must lie in [-1, 1], got {rho!r}")
    ndtr = _special().ndtr
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
    import scipy.integrate
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        val, _ = scipy.integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)
        total += val
    return min(max(total, 0.0), 1.0)
