"""Gibbs sampling of the wave process on a geodesic conditioned to stay above
a level.

Conditioning a path coordinate on the rest of the path reduces, by the order-2
Markov property, to conditioning on its neighbors within distance two.  The
full conditionals are therefore lower-truncated normals whose means are short
linear stencils:

    interior:  a1/2 * (nearest sum) - a2/2 * (second-nearest sum)
    ends:      (lambda * (next) - (next-next)) / (d-1)   and its mirror
    2nd/2nd-last: ((d-1) lambda psi_out + d lambda psi_in - (d-1) psi_in2)
                  / (lambda^2 + (d-1)^2)

`build_gibbs_plan` derives every stencil twice, from the closed forms above
and from Schur complements of the local covariance window, and refuses to
proceed if they disagree.  It stores them as one (n, 4) band of weights on
the coordinates at offsets -2, -1, +1, +2.

`gibbs_run` runs a blocked sampler, vectorized across independent chains.
The stencils reach distance two, so coordinates whose indices are equal mod 3
never enter each other's conditionals: given the other two classes, the
members of one class are conditionally independent.  One sweep therefore
updates the classes k = 0, 1, 2 (mod 3) in turn, each with a single
vectorized truncated-normal draw, and every block update is an exact Gibbs
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .gaussian import conditional, truncated_standard
from .spectral import CovarianceProfile, repulsion_coefficients

# Max |closed form - Schur| tolerated across plan coefficients.
PLAN_AGREEMENT_TOL = 1e-10

DEFAULT_BURNIN = 1000
DEFAULT_THIN = 10

# Path offsets of the four stencil coordinates, one per column of the band.
OFFSETS = np.array([-2, -1, 1, 2])


@dataclass(frozen=True)
class GibbsPlan:
    """Precomputed full-conditional stencils for a path of n coordinates.

    The conditional mean of coordinate k (0-based) is
    sum_j coeffs[k, j] * value[k + OFFSETS[j]], with coeffs[k, j] = 0 where
    k + OFFSETS[j] falls off the path; sigma2[k] is the residual variance.
    Stencils depend only on (d, lambda, n), not on the level.
    """

    profile: CovarianceProfile
    n: int
    coeffs: np.ndarray
    sigma2: np.ndarray


def _closed_form_stencil(
    profile: CovarianceProfile, n: int, k: int
) -> np.ndarray | None:
    """Closed-form conditional-mean coefficients at 0-based position k.

    Returns None when the position's full stencil does not fit in the path
    (short paths near the ends), in which case only the Schur route applies.
    Coefficients align with ascending neighbor index.
    """
    d, lam = profile.point.d, profile.point.lam
    if k == 0 and n >= 3:
        return np.array([lam, -1.0]) / (d - 1.0)
    if k == n - 1 and n >= 3:
        return np.array([-1.0, lam]) / (d - 1.0)
    denom = lam * lam + (d - 1.0) ** 2
    if k == 1 and n >= 4:
        return np.array([(d - 1.0) * lam, d * lam, -(d - 1.0)]) / denom
    if k == n - 2 and n >= 4:
        return np.array([-(d - 1.0), d * lam, (d - 1.0) * lam]) / denom
    if 2 <= k <= n - 3:
        rep = repulsion_coefficients(profile.point)
        return np.array([-rep.a2, rep.a1, rep.a1, -rep.a2]) / 2.0
    return None


def build_gibbs_plan(profile: CovarianceProfile, n: int) -> GibbsPlan:
    """Derive and cross-check the full-conditional stencils for an n-path."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"path length must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    n = int(n)
    profile.require(min(4, n - 1) if n > 1 else 0)
    coeffs = np.zeros((n, len(OFFSETS)))
    sigma2 = np.empty(n)
    for k in range(n):
        inside = (k + OFFSETS >= 0) & (k + OFFSETS < n)
        nbrs = k + OFFSETS[inside]
        window = np.concatenate(([k], nbrs))
        dist = np.abs(window[:, None] - window[None, :])
        cov = profile.phi[dist]
        cond = conditional(cov, given=range(1, len(window)), target=[0])
        coef = cond.coeff[0]
        var = float(cond.residual[0, 0])
        closed = _closed_form_stencil(profile, n, k)
        if closed is not None:
            gap = float(np.max(np.abs(coef - closed)))
            if gap > PLAN_AGREEMENT_TOL:
                raise NumericalError(
                    f"conditional stencil mismatch at position {k + 1}: "
                    f"closed form and Schur complement differ by {gap:.3e}"
                )
        coeffs[k, inside] = coef
        sigma2[k] = var
    return GibbsPlan(profile=profile, n=n, coeffs=coeffs, sigma2=sigma2)


def gibbs_run(
    plan: GibbsPlan,
    alpha: float,
    sweeps: int,
    burnin: int = DEFAULT_BURNIN,
    thin: int = DEFAULT_THIN,
    rng: np.random.Generator | None = None,
    chains: int = 1,
) -> np.ndarray:
    """Run the conditioned-path Gibbs sampler, vectorized across chains.

    Returns the retained states as an array of shape (chains, kept, n) with
    kept = (sweeps - burnin) // thin; sweep `burnin + i * thin` is the i-th
    retained state (1-based i).  Every value lies above alpha.
    """
    if rng is None:
        raise ValidationError("gibbs_run requires an explicit random generator")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    if sweeps < 1:
        raise ValidationError(f"sweeps must be >= 1, got {sweeps}")
    if burnin < 0 or thin < 1 or chains < 1:
        raise ValidationError("need burnin >= 0, thin >= 1, chains >= 1")
    if sweeps - burnin < thin:
        raise ValidationError(
            f"no retained sweeps: sweeps - burnin ({sweeps - burnin}) is below "
            f"thin ({thin}); raise sweeps or lower burnin/thin"
        )
    n = plan.n
    sd = np.sqrt(plan.sigma2)
    # Coordinate k sits in column k + 2 of the zero-padded state; each colour
    # class carries its columns, its neighbours' columns and their weights.
    classes = []
    for colour in range(min(3, n)):
        ks = np.arange(colour, n, 3)
        classes.append((ks + 2, ks[:, None] + 2 + OFFSETS, plan.coeffs[ks], sd[ks]))
    state = np.zeros((chains, n + 4))
    state[:, 2 : n + 2] = max(alpha, 0.0) + 1.0
    out = np.empty((chains, (sweeps - burnin) // thin, n))
    for sweep in range(1, sweeps + 1):
        for cols, nbrs, weights, s in classes:
            mean = (state[:, nbrs] * weights).sum(axis=2)
            state[:, cols] = mean + s * truncated_standard((alpha - mean) / s, rng)
        t, rest = divmod(sweep - burnin, thin)
        if t > 0 and rest == 0:
            out[:, t - 1] = state[:, 2 : n + 2]
    return out


def batch_means_ess(series: np.ndarray) -> float:
    """Effective sample size by the batch-means method (sqrt(N) batches)."""
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 4:
        return float(n)
    nb = int(math.isqrt(n))
    m = n // nb
    trimmed = y[: nb * m].reshape(nb, m)
    var_total = float(y.var(ddof=1))
    if var_total == 0.0:
        return float(n)
    var_batch = float(trimmed.mean(axis=1).var(ddof=1))
    tau = m * var_batch / var_total
    return float(n / max(tau, 1e-12))


@dataclass(frozen=True)
class TailPoint:
    x: float
    p_hat: float
    stderr: float


@dataclass(frozen=True)
class RepulsionTail:
    """Empirical upper-tail curve of one conditioned coordinate."""

    k: int
    points: tuple[TailPoint, ...]
    ess: float


def repulsion_tail(states, k: int, x_grid) -> RepulsionTail:
    """Tail estimates P(value at position k >= x) over a grid of levels.

    `states` is an array whose last axis is the path, such as the
    (chains, kept, n) output of `gibbs_run`; leading axes flatten chain-major,
    so batch statistics over contiguous stretches respect the serial
    structure.  `k` is the 1-based path position.  Standard errors are
    binomial with the batch-means effective sample size in place of the raw
    count.
    """
    states = np.asarray(states, dtype=float)
    if states.size == 0:
        raise ValidationError("repulsion_tail needs at least one state")
    n = states.shape[-1]
    if k < 1 or k > n:
        raise ValidationError(f"position k={k} outside 1..{n}")
    series = states[..., k - 1].reshape(-1)
    ess = batch_means_ess(series)  # > 0 for any nonempty series
    points = []
    for x in np.asarray(x_grid, dtype=float):
        p = float(np.mean(series >= x))
        se = math.sqrt(max(p * (1.0 - p), 0.0) / ess)
        points.append(TailPoint(x=float(x), p_hat=p, stderr=se))
    return RepulsionTail(k=int(k), points=tuple(points), ess=ess)
