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

Random eigenvalues follow the Kesten-McKay law, whose CDF has the closed form

    F(lambda) = 1/2 + (d / 2 pi) * (theta - c * arctan(c * tan(theta))),
    theta = arcsin(lambda / (2 sqrt(d-1))),    c = (d-2) / d;

`sample_lambda` draws from it by inverting F with Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, integer

# Relative slack accepted when validating |lambda| <= 2 sqrt(d-1).
SPECTRAL_EDGE_RTOL = 1e-12
# Max |closed form - recursion| tolerated before build_profile reports an
# internal inconsistency.
ROUTE_AGREEMENT_TOL = 1e-10
# Absolute truncation target for the summed covariance profile big_phi.
_TAIL_SUM_TOL = 1e-12
# Newton steps of the inverse CDF; four reach |F(lambda) - u| <= 4e-15 (worst at d = 3).
_NEWTON_STEPS = 4


def spectral_edge(d: int) -> float:
    """Edge 2*sqrt(d-1) of the adjacency spectrum of the d-regular tree."""
    return 2.0 * math.sqrt(d - 1.0)


@dataclass(frozen=True)
class SpectralPoint:
    """A pair (d, lambda) with lambda inside the adjacency spectrum."""

    d: int
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", integer("degree d", self.d, 3))
        lam = float(self.lam)
        edge = spectral_edge(self.d)
        if not math.isfinite(lam) or abs(lam) > edge * (1.0 + SPECTRAL_EDGE_RTOL):
            raise ValidationError(
                f"lambda must satisfy |lambda| <= 2*sqrt(d-1) = {edge:.12g}, got {lam!r}")
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


def _edge_mass(d: int, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(-edge cos(psi)) and its psi-derivative for psi in [0, pi]: the module's F at
    theta = psi - pi/2, free of tan's pole at the edges and of cancellation at large d."""
    sin, cos = np.sin(psi), np.cos(psi)
    h = 0.5 * (d - 2.0)
    mass = (psi - h * np.arctan(sin * cos / (h + sin * sin))) / np.pi
    return mass, d * (d - 1.0) * sin * sin / (2.0 * np.pi * (h * h + (d - 1.0) * sin * sin))


def kesten_mckay_cdf(d: int, lam: np.ndarray | float) -> np.ndarray | float:
    """Kesten-McKay CDF F(lambda) (module docstring), elementwise; 0 below -edge, 1 above edge."""
    integer("degree d", d, 3)
    x = np.clip(-np.asarray(lam, dtype=float) / spectral_edge(d), -1.0, 1.0)
    return _edge_mass(d, np.arccos(x))[0]


def sample_lambda(d: int, rng: np.random.Generator) -> float:
    """One draw of lambda from the Kesten-McKay law."""
    return float(sample_lambda_many(d, 1, rng)[0])


def sample_lambda_many(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized `sample_lambda`: `size` iid draws, each F^-1(u) for one uniform u.

    By symmetry lambda = -+edge cos(psi), where M(psi) = F(-edge cos(psi)) = min(u, 1-u).
    M is increasing and convex on [0, pi/2]; bounding sin(psi) between 2 psi / pi and
    psi in M' gives a bracket [lo, hi] proportional to min(u, 1-u)^(1/3).  Newton steps
    on the nearly linear M^(1/3) start at M's tangent at pi/2 and stay in the bracket.
    """
    integer("degree d", d, 3)
    size = integer("size", size, 0)
    u = rng.random(size)
    s = np.minimum(u, 1.0 - u)
    root = np.cbrt(s)
    lo = root * np.cbrt(3.0 * np.pi * (d - 2.0) ** 2 / (2.0 * d * (d - 1.0)))
    hi = np.minimum(root * np.cbrt(3.0 * np.pi**3 * d / (8.0 * (d - 1.0))), np.pi / 2)
    psi = np.clip(np.pi / 2 - (0.5 - s) * np.pi * d / (2.0 * (d - 1.0)), lo, hi)
    for _ in range(_NEWTON_STEPS):
        mass, slope = _edge_mass(d, psi)
        m = np.cbrt(mass)
        step = np.divide(3.0 * m * m * (m - root), slope, out=np.zeros(size), where=slope > 0.0)
        psi = np.clip(psi - step, lo, hi)
    return np.copysign(spectral_edge(d) * np.cos(psi), u - 0.5)


@dataclass(frozen=True, eq=False)
class CovarianceProfile:
    """Covariance phi(0..n_max) of the wave process, indexed by graph distance.

    `big_phi` is the summed profile phi(0) + 2 * sum_{j>=1} |phi(j)|, the
    constant controlling the exponential survival bound of level sets.
    Profiles compare and hash by identity, so a profile can key a cache.
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
            raise ValidationError(f"profile holds phi(0..{self.n_max}); phi({n}) is unavailable")
        return float(self.phi[integer("distance n", n, 0)])


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
    phi[:2] = 1.0, lam / d
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
    """Covariance profile phi(0..n_max), n_max >= 2, at a spectral point.

    phi comes from the closed Chebyshev form, cross-checked against the wave
    recursion.  The forward recursion is numerically stable (both homogeneous
    solutions decay like (d-1)^(-k/2)), so any disagreement above
    ROUTE_AGREEMENT_TOL signals a bug rather than conditioning.
    """
    n_max = integer("n_max", n_max, 2)
    closed = _phi_closed_form(point, n_max)
    recur = _phi_recursion(point, n_max)
    gap = float(np.max(np.abs(closed - recur)))
    if gap > ROUTE_AGREEMENT_TOL:
        raise NumericalError(
            f"covariance routes disagree by {gap:.3e} at (d={point.d}, lambda={point.lam!r})")
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
    return RepulsionCoefficients(a1=2.0 * d * lam / denom, a2=2.0 * (d - 1.0) / denom)
