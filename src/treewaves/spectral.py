"""Spectral primitives of the invariant Gaussian wave process on the d-regular tree.

For each eigenvalue lambda in the l2 adjacency spectrum [-2 sqrt(d-1), 2 sqrt(d-1)]
there is a unique invariant Gaussian process whose covariance between vertices
at graph distance n is

    phi(n) = (d-1)^(-n/2) * ( (d-1)/d * U_n(x) - 1/d * U_{n-2}(x) ),
    x = lambda / (2 sqrt(d-1)),

where U_n is the Chebyshev polynomial of the second kind, extended below zero
by the recurrence (U_{-1} = 0, U_{-2} = -1).  An equivalent characterization,
used here as a cross-check, is the wave recursion

    phi(0) = 1,    d * phi(1) = lambda,
    lambda * phi(k) = phi(k-1) + (d-1) * phi(k+1)    for k >= 1.

Random eigenvalues follow the Kesten-McKay density; `sample_lambda` draws from
it through a tabulated inverse CDF.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

from .errors import NumericalError, ValidationError

# Relative slack accepted when validating |lambda| <= 2 sqrt(d-1).
SPECTRAL_EDGE_RTOL = 1e-12
# Max |closed form - recursion| tolerated before build_profile reports an
# internal inconsistency.
ROUTE_AGREEMENT_TOL = 1e-10
# Absolute truncation target for the summed covariance profile big_phi.
_TAIL_SUM_TOL = 1e-12

_LAMBDA_TABLE_NODES = 8193


def spectral_edge(d: int) -> float:
    """Edge 2*sqrt(d-1) of the adjacency spectrum of the d-regular tree."""
    return 2.0 * math.sqrt(d - 1.0)


@dataclass(frozen=True)
class TreeParams:
    """Degree parameter of the regular tree (d >= 3)."""

    d: int

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
            raise ValidationError(f"degree d must be an integer, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if self.d < 3:
            raise ValidationError(f"degree d must be >= 3, got {self.d}")


@dataclass(frozen=True)
class SpectralPoint:
    """A pair (d, lambda) with lambda inside the adjacency spectrum."""

    d: int
    lam: float

    def __post_init__(self) -> None:
        TreeParams(self.d)
        object.__setattr__(self, "d", int(self.d))
        lam = float(self.lam)
        edge = spectral_edge(self.d)
        if not math.isfinite(lam) or abs(lam) > edge * (1.0 + SPECTRAL_EDGE_RTOL):
            raise ValidationError(
                f"lambda must satisfy |lambda| <= 2*sqrt(d-1) = {edge:.12g}, "
                f"got {lam!r}"
            )
        # Clamp roundoff-level excursions so downstream sqrt(4(d-1)-lambda^2)
        # stays real at the spectral edge.
        object.__setattr__(self, "lam", min(max(lam, -edge), edge))


def spectral_density(point: SpectralPoint) -> float:
    """Kesten-McKay density of the adjacency spectrum at lambda.

    rho(lambda) = (d / 2 pi) * sqrt(4(d-1) - lambda^2) / (d^2 - lambda^2),
    supported on |lambda| <= 2 sqrt(d-1).  The denominator never vanishes on
    the support because d^2 - 4(d-1) = (d-2)^2 > 0 for d >= 3.
    """
    d, lam = point.d, point.lam
    disc = max(4.0 * (d - 1.0) - lam * lam, 0.0)
    return d / (2.0 * math.pi) * math.sqrt(disc) / (d * d - lam * lam)


@functools.cache
def _lambda_inverse_cdf(d: int) -> PchipInterpolator:
    """Monotone-cubic inverse CDF table for the Kesten-McKay law, built once per d."""
    edge = spectral_edge(d)
    grid = np.linspace(-edge, edge, _LAMBDA_TABLE_NODES)
    pdf = np.array([spectral_density(SpectralPoint(d, float(v))) for v in grid])
    cdf = np.concatenate(([0.0], cumulative_simpson(pdf, x=grid)))
    cdf /= cdf[-1]
    # The law is symmetric; average out the quadrature's tiny asymmetry so
    # the table median is exactly 0.
    cdf = 0.5 * (cdf + 1.0 - cdf[::-1])
    keep = np.concatenate(([True], np.diff(cdf) > 0.0))
    return PchipInterpolator(cdf[keep], grid[keep], extrapolate=False)


def sample_lambda(d: int, rng: np.random.Generator) -> float:
    """One draw of lambda from the Kesten-McKay law."""
    return float(sample_lambda_many(d, 1, rng)[0])


def sample_lambda_many(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized `sample_lambda`: `size` iid draws as an array."""
    TreeParams(d)
    if size < 0:
        raise ValidationError(f"size must be >= 0, got {size}")
    table = _lambda_inverse_cdf(d)
    u = rng.random(size)
    edge = spectral_edge(d)
    out = table(np.clip(u, table.x[0], table.x[-1]))
    return np.clip(out, -edge, edge)


@dataclass(frozen=True)
class CovarianceProfile:
    """Covariance phi(0..n_max) of the wave process, indexed by graph distance.

    `big_phi` is the summed profile phi(0) + 2 * sum_{j>=1} |phi(j)|, the
    constant controlling the exponential survival bound of level sets.
    """

    point: SpectralPoint
    phi: np.ndarray
    big_phi: float

    def __post_init__(self) -> None:
        arr = np.array(self.phi, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @property
    def n_max(self) -> int:
        return len(self.phi) - 1

    def require(self, n: int) -> float:
        """phi(n), failing loudly when the profile is too short."""
        if n < 0 or n > self.n_max:
            raise ValidationError(
                f"profile holds phi(0..{self.n_max}); phi({n}) is unavailable"
            )
        return float(self.phi[n])


def _phi_closed_form(point: SpectralPoint, n_max: int) -> np.ndarray:
    d, lam = point.d, point.lam
    x = lam / spectral_edge(d)
    # u[k] holds U_{k-2}(x); anchor at U_{-2} = -1, U_{-1} = 0.
    u = np.empty(n_max + 3)
    u[0], u[1] = -1.0, 0.0
    for k in range(2, n_max + 3):
        u[k] = 2.0 * x * u[k - 1] - u[k - 2]
    n = np.arange(n_max + 1)
    scale = (d - 1.0) ** (-0.5 * n)
    return scale * ((d - 1.0) / d * u[n + 2] - u[n] / d)


def _phi_recursion(point: SpectralPoint, n_max: int) -> np.ndarray:
    d, lam = point.d, point.lam
    phi = np.empty(n_max + 1)
    phi[0] = 1.0
    phi[1] = lam / d
    for k in range(1, n_max):
        phi[k + 1] = (lam * phi[k] - phi[k - 1]) / (d - 1.0)
    return phi


def _big_phi(point: SpectralPoint) -> float:
    """phi(0) + 2 sum_{j>=1} |phi(j)|, truncated under a geometric tail bound.

    |U_n| <= n+1 on [-1, 1] gives |phi(j)| <= (j+1) q^j with q = (d-1)^(-1/2),
    so the tail past j = m is below 2 q^m ((m+1)/(1-q) + q/(1-q)^2).
    """
    d, lam = point.d, point.lam
    q = 1.0 / math.sqrt(d - 1.0)
    prev, cur = 1.0, lam / d  # phi(0), phi(1)
    total = 1.0
    j = 1
    while True:
        total += 2.0 * abs(cur)
        tail = 2.0 * q ** (j + 1) * ((j + 2) / (1.0 - q) + q / (1.0 - q) ** 2)
        if tail < _TAIL_SUM_TOL:
            return total
        prev, cur = cur, (lam * cur - prev) / (d - 1.0)
        j += 1


def build_profile(point: SpectralPoint, n_max: int) -> CovarianceProfile:
    """Covariance profile phi(0..n_max) at a spectral point.

    Parameters
    ----------
    point : SpectralPoint
        Degree and eigenvalue.
    n_max : int
        Largest distance to tabulate, at least 2.

    Returns
    -------
    CovarianceProfile
        phi computed from the closed Chebyshev form, cross-checked against the
        wave recursion.  The forward recursion is numerically stable (both
        homogeneous solutions decay like (d-1)^(-k/2)), so any disagreement
        above ROUTE_AGREEMENT_TOL signals a bug rather than conditioning.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValidationError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 2:
        raise ValidationError(f"n_max must be >= 2, got {n_max}")
    closed = _phi_closed_form(point, int(n_max))
    recur = _phi_recursion(point, int(n_max))
    gap = float(np.max(np.abs(closed - recur)))
    if gap > ROUTE_AGREEMENT_TOL:
        raise NumericalError(
            f"covariance routes disagree by {gap:.3e} at "
            f"(d={point.d}, lambda={point.lam!r})"
        )
    return CovarianceProfile(point=point, phi=closed, big_phi=_big_phi(point))


@dataclass(frozen=True)
class RepulsionCoefficients:
    """Interior conditional-mean weights along a path.

    Conditioning a bulk path coordinate on the rest of the path gives mean
    a1 * (nearest neighbors average) - a2 * (second neighbors average).
    """

    a1: float
    a2: float


def repulsion_coefficients(point: SpectralPoint) -> RepulsionCoefficients:
    """Closed-form bulk conditional-mean coefficients (a1, a2)."""
    d, lam = point.d, point.lam
    denom = lam * lam + (d - 1.0) ** 2 + 1.0
    return RepulsionCoefficients(
        a1=2.0 * d * lam / denom, a2=2.0 * (d - 1.0) / denom
    )
