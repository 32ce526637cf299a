"""Gibbs sampling of the wave process on a geodesic conditioned to stay above
a level.

Along a geodesic the wave is an order-2 Gaussian Markov chain: the path
density is the product of the steps of `sampler.path_step_table`, and its
precision is pentadiagonal.  The full conditionals are therefore
lower-truncated normals whose means are stencils on the neighbors within
distance two:

    interior:  a1/2 * (nearest sum) - a2/2 * (second-nearest sum)
    ends:      (lambda * (next) - (next-next)) / (d-1)   and its mirror
    2nd/2nd-last: ((d-1) lambda psi_out + d lambda psi_in - (d-1) psi_in2)
                  / (lambda^2 + (d-1)^2)

`build_gibbs_plan` reads every stencil off the precision band of the step law,
checks it against the closed forms above wherever they apply, and refuses to
proceed if they disagree.  It stores them as one (n, 4) band of weights on
the coordinates at offsets -2, -1, +1, +2.

`gibbs_run` runs a blocked sampler, vectorized across independent chains.
The stencils reach distance two, so coordinates whose indices are equal mod 3
never enter each other's conditionals: given the other two classes, the
members of one class are conditionally independent.  One sweep therefore
updates the classes k = 0, 1, 2 (mod 3) in turn, each with a single
vectorized truncated-normal draw, and every block update is an exact Gibbs
step.  A class update is one `take`, the stencil sum, the inversion behind
`truncated_standard` and one `put`, in place on buffers for a bounded group of
chains, with uniforms drawn a block of sweeps at a time in the order of one
`truncated_standard` call per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite, integer
from .gaussian import _truncated_inverse
from .sampler import path_step_table
from .spectral import CovarianceProfile, repulsion_coefficients

# Max |closed form - step-law precision| tolerated across plan coefficients.
PLAN_AGREEMENT_TOL = 1e-10

DEFAULT_BURNIN = 1000
DEFAULT_THIN = 10

# Path offsets of the four stencil coordinates, one per column of the band.
OFFSETS = np.array([-2, -1, 1, 2])
UNIFORM_BLOCK = 2**15


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


def _closed_form_band(profile: CovarianceProfile, n: int) -> np.ndarray:
    """Closed-form conditional-mean coefficients as an (n, 4) band; NaN in the
    rows whose stencil does not fit in the path (short paths near the ends)."""
    d, lam = profile.point.d, profile.point.lam
    rep = repulsion_coefficients(profile.point)
    denom = lam * lam + (d - 1.0) ** 2
    band = np.full((n, len(OFFSETS)), np.nan)
    band[2 : n - 2] = np.array([-rep.a2, rep.a1, rep.a1, -rep.a2]) / 2.0
    if n >= 4:
        band[1] = np.array([0.0, (d - 1.0) * lam, d * lam, -(d - 1.0)]) / denom
        band[n - 2] = np.array([-(d - 1.0), d * lam, (d - 1.0) * lam, 0.0]) / denom
    if n >= 3:
        band[0] = np.array([0.0, 0.0, lam, -1.0]) / (d - 1.0)
        band[n - 1] = np.array([-1.0, lam, 0.0, 0.0]) / (d - 1.0)
    return band


def build_gibbs_plan(profile: CovarianceProfile, n: int) -> GibbsPlan:
    """The stencils of an n-path, read off the precision Q of its step law and
    checked against the closed forms.  Step k is N(b1_k x_{k-2} + b2_k x_{k-1},
    1/w_k); with zero steps past the path, Q[k, k] = w_k + b2_{k+1}^2 w_{k+1}
    + b1_{k+2}^2 w_{k+2}, Q[k, k+1] = b1_{k+2} b2_{k+2} w_{k+2} - b2_{k+1} w_{k+1}
    and Q[k, k+2] = -b1_{k+2} w_{k+2}.  Offset j weighs -Q[k, k+j] / Q[k, k],
    and the residual variance is 1 / Q[k, k]."""
    steps = path_step_table(profile, n)
    n = len(steps)
    b1, b2, w = np.zeros((3, n + 2))
    b1[:n], b2[:n], var = steps.T
    w[:n] = 1.0 / var
    diag = w[:n] + (b2 * b2 * w)[1 : n + 1] + (b1 * b1 * w)[2:]
    up1 = (b1 * b2 * w)[2:] - (b2 * w)[1 : n + 1]
    up2 = -(b1 * w)[2:]
    # Q[k, k+j] is zero for k + j >= n, so rolling an upper band gives the lower.
    coeffs = -np.column_stack((np.roll(up2, 2), np.roll(up1, 1), up1, up2)) / diag[:, None]
    gaps = np.abs(coeffs - _closed_form_band(profile, n))
    bad = np.flatnonzero((gaps > PLAN_AGREEMENT_TOL).any(axis=1))
    if bad.size:
        raise NumericalError(
            f"conditional stencil mismatch at position {bad[0] + 1}: closed form "
            f"and step-law precision differ by {gaps[bad[0]].max():.3e}"
        )
    return GibbsPlan(profile=profile, n=n, coeffs=coeffs, sigma2=1.0 / diag)


def retained_sweeps(sweeps: int, burnin: int, thin: int, chains: int) -> int:
    """The states each chain keeps, (sweeps - burnin) // thin, for a valid schedule:
    sweeps, thin and chains at least 1, burnin at least 0, and one sweep retained."""
    for name, value, least in (("sweeps", sweeps, 1), ("burnin", burnin, 0),
                               ("thin", thin, 1), ("chains", chains, 1)):
        integer(name, value, least)
    if sweeps - burnin < thin:
        raise ValidationError(f"no retained sweeps: sweeps - burnin ({sweeps - burnin}) is below "
                              f"thin ({thin}); raise sweeps or lower burnin/thin")
    return (sweeps - burnin) // thin


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
    kept = retained_sweeps(sweeps, burnin, thin, chains); sweep
    `burnin + i * thin` is the i-th retained state (1-based i).  Every value
    lies above alpha.  The generator advances by sweeps * chains * n
    uniforms, drawn at most max(UNIFORM_BLOCK, chains * n) at a time.
    """
    if rng is None:
        raise ValidationError("gibbs_run requires an explicit random generator")
    level = np.array(finite("alpha", alpha))
    kept = retained_sweeps(sweeps, burnin, thin, chains)
    n, sd = plan.n, np.sqrt(plan.sigma2)
    state = np.zeros((chains, n + 4))
    state[:, 2 : n + 2] = max(alpha, 0.0) + 1.0
    out = np.empty((chains, kept, n))
    # Chains are independent, so a class updates them at most UNIFORM_BLOCK // n at a time (all
    # at once in most runs): its flat indices into a group's rows of the padded state, weights and
    # sd per chain (equal shapes skip the broadcast) and the buffers the classes share stay bounded.
    group = min(chains, max(1, UNIFORM_BLOCK // n))
    row_starts = (n + 4) * np.arange(group)[:, None]
    gathered, buffers = np.empty(4 * group * ((n + 2) // 3)), np.empty((3, group * ((n + 2) // 3)))
    updates, start = [], 0
    for colour in range(min(3, n)):
        ks = np.arange(colour, n, 3)
        dest = row_starts + ks + 2
        nbrs = dest[:, :, None] + OFFSETS
        weights = np.broadcast_to(plan.coeffs[ks], nbrs.shape).copy()
        s = np.broadcast_to(sd[ks], dest.shape).copy()
        for lo in range(0, chains, group):
            m = min(group, chains - lo)
            part = slice(start + lo * ks.size, start + (lo + m) * ks.size)
            updates.append((state[lo : lo + m], nbrs[:m], dest[:m], weights[:m], s[:m], part,
                            gathered[: 4 * m * ks.size].reshape(m, ks.size, 4),
                            buffers[:, : m * ks.size].reshape(3, m, ks.size)))
        start += chains * ks.size
    uniforms = np.empty((min(sweeps, max(1, UNIFORM_BLOCK // (chains * n))), chains * n))
    for first in range(0, sweeps, len(uniforms)):
        # log(1 - u), class by class in C order, as one truncated_standard call per class.
        log_q = rng.random(out=uniforms[: sweeps - first])
        np.log1p(np.negative(log_q, out=log_q), out=log_q)
        for sweep, row in enumerate(log_q, first + 1):
            # The indices are in range, and "clip" spares take a buffered copy of out.
            for rows, nbrs, dest, weights, s, part, gathered, (mean, z, y) in updates:
                rows.take(nbrs, out=gathered, mode="clip")
                np.add.reduce(np.multiply(gathered, weights, out=gathered), axis=2, out=mean)
                np.divide(np.subtract(mean, level, out=z), s, out=z)
                _truncated_inverse(z, row[part].reshape(z.shape), out=y)  # draw: mean - s * y
                rows.put(dest, np.subtract(mean, np.multiply(s, y, out=y), out=y))
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
    k = integer("position k", k, 1)
    series = states[..., k - 1].reshape(-1)
    ess = batch_means_ess(series)  # > 0 for any nonempty series
    points = []
    for x in np.asarray(x_grid, dtype=float):
        p = float(np.mean(series >= x))
        se = math.sqrt(max(p * (1.0 - p), 0.0) / ess)
        points.append(TailPoint(x=float(x), p_hat=p, stderr=se))
    return RepulsionTail(k=int(k), points=tuple(points), ess=ess)
