"""Level-set percolation of the wave process: cluster extraction, path
survival estimators, the pair transfer operator, and the critical threshold.

The quantity driving everything is the path survival probability
P(n) = P(all n geodesic coordinates > alpha).  Its exponential decay rate
r(alpha) = lim P(n+1)/P(n) equals the leading eigenvalue of the positive
transfer operator

    (T g)(x, y) = integral_alpha^inf  p(z | x, y) g(y, z) dz

acting on functions of the last two surviving coordinates, with p the order-2
Markov step density.  The level set on the tree percolates when branching
beats decay, so the critical level alpha_c solves r(alpha) = 1/(d-1); it is
bracketed below by the two-sided edge-survival rule (orthant probability
reaching 2/d) and above by the union bound from the summed covariance profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import ndtr, owens_t

from .errors import NumericalError, ValidationError
from .gaussian import orthant_edge_probability
from .sampler import BallSample, path_step_table, sample_path_many
from .spectral import CovarianceProfile

# Power iteration control for the transfer operator.
_POWER_RTOL = 1e-10
_POWER_MAX_ITER = 10_000
_POWER_MIN_ITER = 10
# Largest quadrature size m that transfer_rate accepts.  Each power iterate
# is m x m and a call costs about m^3 flops: at m = 8192 the iterates alone
# would take several GB.
QUADRATURE_M_MAX = 1024

_BOOTSTRAP_RESAMPLES = 500

# haggstrom_alpha's Owen's-T root must reproduce 2/d under the quadrature.
_HAGGSTROM_CHECK_ATOL = 1e-9


@dataclass(frozen=True)
class Component:
    """One connected cluster of the level set within a ball."""

    size: int
    reach: int  # max vertex depth in the cluster
    touches_boundary: bool
    contains_root: bool


@dataclass(frozen=True)
class ComponentSummary:
    """Clusters of {value > alpha} in a ball sample, largest first."""

    alpha: float
    components: tuple[Component, ...]
    root_size: int  # 0 when the root misses the level set
    root_reach: int  # -1 when the root misses the level set


def extract_components(sample: BallSample, alpha: float) -> ComponentSummary:
    """Connected components of {value > alpha} within the sampled ball."""
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    ball = sample.ball
    above = sample.values > alpha
    # Label every vertex by the top (shallowest) vertex of its cluster: a
    # vertex joins its parent's cluster when both lie above the level.
    top = np.arange(len(ball))
    for k in range(1, ball.radius + 1):
        sl = ball.sphere_slice(k)
        par = ball.parent[sl]
        top[sl] = np.where(above[sl] & above[par], top[par], top[sl])
    # Ascending tops list clusters by their smallest BFS index.
    tops, inv, sizes = np.unique(top[above], return_inverse=True, return_counts=True)
    reach = np.zeros(tops.size, dtype=np.int64)
    np.maximum.at(reach, inv, ball.depth[above])
    comps = [
        Component(
            size=int(n),
            reach=int(h),
            touches_boundary=bool(h == ball.radius),
            contains_root=bool(t == 0),
        )
        for t, n, h in zip(tops, sizes, reach)
    ]
    comps.sort(key=lambda c: (-c.size, c.reach, not c.contains_root))
    root_comp = next((c for c in comps if c.contains_root), None)
    return ComponentSummary(
        alpha=alpha,
        components=tuple(comps),
        root_size=root_comp.size if root_comp else 0,
        root_reach=root_comp.reach if root_comp else -1,
    )


@dataclass(frozen=True)
class SurvivalEstimate:
    """Monte Carlo estimate of a path survival probability."""

    n: int
    alpha: float
    p_hat: float
    stderr: float
    method: str
    reps: int
    collapsed: bool = False


def survival_direct(
    profile: CovarianceProfile,
    n: int,
    alpha: float,
    reps: int,
    rng: np.random.Generator,
) -> SurvivalEstimate:
    """Plain Monte Carlo: fraction of exact path draws staying above alpha."""
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    survivors = 0
    remaining = reps
    chunk = max(1, (1 << 22) // max(n, 1))
    while remaining > 0:
        m = min(chunk, remaining)
        vals = sample_path_many(profile, n, m, rng)
        survivors += int(np.count_nonzero(np.all(vals > alpha, axis=1)))
        remaining -= m
    p = survivors / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return SurvivalEstimate(
        n=n, alpha=alpha, p_hat=p, stderr=se, method="direct", reps=reps,
        collapsed=(survivors == 0),
    )


@dataclass(frozen=True)
class SurvivalCurve:
    """SMC survival estimates for every length 1..n_max in one pass.

    batch_estimates holds the per-batch prefix-product estimators, one row per
    independent batch; p_hat averages them and stderr is a bootstrap over
    batches.
    """

    alpha: float
    particles: int
    batches: int
    p_hat: np.ndarray
    stderr: np.ndarray
    batch_estimates: np.ndarray

    def estimate(self, n: int) -> SurvivalEstimate:
        """The SMC estimate of P(n) read off the curve."""
        if n < 1 or n > self.p_hat.size:
            raise ValidationError(f"length {n} outside curve range 1..{self.p_hat.size}")
        p = float(self.p_hat[n - 1])
        return SurvivalEstimate(
            n=n, alpha=self.alpha, p_hat=p, stderr=float(self.stderr[n - 1]),
            method="smc", reps=self.particles, collapsed=(p == 0.0),
        )


def _smc_factors(
    nbat: int,
    per: int,
    steps: Sequence[tuple[float, float, float]],
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-step surviving fractions of `nbat` batches of `per` particles.

    `prev` and `cur` hold the last two coordinates of every particle, zero
    before the first step.  Step (b1, b2, var) draws the next coordinate as
    b1 * prev + b2 * cur + sqrt(var) * N(0, 1), records each batch's fraction
    above alpha, and resamples the survivors uniformly within the batch.  A
    batch with no survivor is dead and records 0 from then on.  Returns the
    fractions, shape (nbat, len(steps)).
    """
    prev = np.zeros((nbat, per))
    cur = np.zeros((nbat, per))
    factors = np.zeros((nbat, len(steps)))
    dead = np.zeros(nbat, dtype=bool)
    for k, (b1, b2, var) in enumerate(steps):
        nxt = b1 * prev + b2 * cur + math.sqrt(var) * rng.standard_normal((nbat, per))
        alive = nxt > alpha
        factors[:, k] = np.where(dead, 0.0, alive.mean(axis=1))
        prev, cur = cur, nxt
        for b in range(nbat):
            if dead[b]:
                continue
            idx = np.flatnonzero(alive[b])
            if idx.size == 0:
                dead[b] = True
                continue
            pick = idx[rng.integers(0, idx.size, per)]
            cur[b] = cur[b, pick]
            prev[b] = prev[b, pick]
    return factors


def survival_curve_smc(
    profile: CovarianceProfile,
    n_max: int,
    alpha: float,
    particles: int,
    rng: np.random.Generator,
    batches: int = 16,
) -> SurvivalCurve:
    """Sequential Monte Carlo along the path with multinomial resampling.

    Particles carry the last two surviving coordinates; each step multiplies
    the estimator by the surviving fraction and resamples within each of the
    independent batches.  The per-step fraction estimator makes every batch's
    prefix product unbiased for P(n).
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if particles < 100:
        raise ValidationError(f"particles must be >= 100, got {particles}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    if batches < 2:
        raise ValidationError(f"batches must be >= 2, got {batches}")
    nbat = max(2, min(batches, particles // 50))
    per = particles // nbat
    factors = _smc_factors(nbat, per, path_step_table(profile, n_max), alpha, rng)
    batch_estimates = np.cumprod(factors, axis=1)
    # Bootstrap over batches for the standard error of the batch mean.
    draws = rng.integers(0, nbat, (_BOOTSTRAP_RESAMPLES, nbat))
    return SurvivalCurve(
        alpha=alpha,
        particles=per * nbat,
        batches=nbat,
        p_hat=batch_estimates.mean(axis=0),
        stderr=batch_estimates[draws].mean(axis=1).std(axis=0, ddof=1),
        batch_estimates=batch_estimates,
    )


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per m, read-only."""
    nodes, weights = leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def transfer_rate(
    profile: CovarianceProfile,
    alpha: float,
    m: int = 64,
    u_max_offset: float = 8.0,
) -> float:
    """Survival decay rate r(alpha) from the discretized transfer operator.

    Parameters
    ----------
    profile : CovarianceProfile
        Spectral point; only phi(1), phi(2) enter through the step kernel.
    alpha : float
        Level; the operator acts on (alpha, u_max) with
        u_max = max(alpha, 0) + u_max_offset.
    m : int
        Gauss-Legendre nodes per axis, from 16 to QUADRATURE_M_MAX.  Memory
        is O(m^2): the operator and iterates take about nb + 5 m x m float64
        arrays, nb at most 9 at the default offset (d=3 near lambda = -edge):
        under 8 MB at m=256.  Each power iteration is nb matrix products, m^3
        flops in all.
    u_max_offset : float
        Domain headroom above the level, finite and positive.  The conditioned
        chain concentrates within O(1) of alpha, so the truncation error
        decays like a Gaussian tail in the offset.

    Returns
    -------
    float
        Leading eigenvalue of the discretized operator, found by power
        iteration on the positive cone to relative tolerance 1e-10.

    Notes
    -----
    The discretized kernel is K[i, j, k] = w_k N(x_k; b1 x_i + b2 x_j, s^2)
    and (T g)[i, j] = sum_k K[i, j, k] g[j, k].  It is never formed.  With
    centred nodes y = x - c, delta = c (1 - b1 - b2), the i axis is cut into
    blocks of centre eta narrow enough that t_i = b1 (y_i - eta) stays
    within one s.  Writing a_jk = y_k - b2 y_j - b1 eta + delta, the
    Gaussian exponent -(a_jk - t_i)^2 / 2s^2 splits exactly into a (j, k)
    Gaussian P, an (i, k) factor exp(t_i y_k / s^2) and an (i, j) factor,
    so one block of T g is F * (E @ (P * g).T).  The bounded t_i keep E and
    F far from overflow.  P is divided by its largest entry over all blocks,
    exp(shift), so an operator deep in the tail keeps a nonzero iterate; the
    factor is restored on the returned eigenvalue, and an eigenvalue that
    then underflows to 0 raises NumericalError.  The Gauss-Legendre nodes
    and weights are built once per m and reused by later calls.
    """
    if not 16 <= m <= QUADRATURE_M_MAX:
        raise ValidationError(f"quadrature size m must lie in [16, {QUADRATURE_M_MAX}], got {m}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha!r}")
    if not (math.isfinite(u_max_offset) and u_max_offset > 0.0):
        raise ValidationError(f"u_max_offset must be finite and > 0, got {u_max_offset!r}")
    u_max = max(alpha, 0.0) + u_max_offset
    b1, b2, s2 = path_step_table(profile, 3)[-1]
    sd = math.sqrt(s2)
    nodes, weights = _gauss_legendre(m)
    half = 0.5 * (u_max - alpha)
    centre = alpha + half
    y = half * nodes
    w = half * weights
    delta = centre * (1.0 - b1 - b2)
    span = y[-1] - y[0]
    nb = max(1, math.ceil(abs(b1) * span / (2.0 * sd)))
    edges = np.r_[0, np.searchsorted(y, y[0] + span * np.arange(1, nb) / nb), m]
    log_w = np.log(w)
    blocks = []
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if lo == hi:
            continue
        eta = y[0] + span * (b + 0.5) / nb
        a_j = -b2 * y - b1 * eta + delta  # a_jk = y_k + a_j
        a = y[None, :] + a_j[:, None]
        log_p = log_w[None, :] - a * a / (2.0 * s2)
        t = b1 * (y[lo:hi] - eta)
        e = np.exp(np.outer(t, y) / s2)
        f = np.exp((np.outer(t, a_j) - 0.5 * (t * t)[:, None]) / s2)
        blocks.append((slice(lo, hi), log_p, e, f / (sd * math.sqrt(2.0 * math.pi))))
    shift = max(float(log_p.max()) for _, log_p, _, _ in blocks)
    for _, log_p, _, _ in blocks:  # in place: each log P becomes P exp(-shift)
        log_p -= shift
        np.exp(log_p, out=log_p)
    g = np.ones((m, m))
    h = np.empty((m, m))
    den = float(w @ g @ w)
    prev_ray = math.inf
    hits = 0
    for it in range(_POWER_MAX_ITER):
        for sl, p, e, f in blocks:
            h[sl] = f * (e @ (p * g).T)
        num = float(w @ h @ w)
        ray = num / den
        if it >= _POWER_MIN_ITER and abs(ray - prev_ray) <= _POWER_RTOL * abs(ray):
            hits += 1
            if hits >= 2:
                rate = math.exp(shift + math.log(ray))
                if rate == 0.0:
                    raise NumericalError("transfer operator iterate collapsed to zero")
                return rate
        else:
            hits = 0
        prev_ray = ray
        top = h.max()
        if top <= 0.0 or not math.isfinite(top):
            raise NumericalError("transfer operator iterate collapsed to zero")
        g = h / top
        den = float(w @ g @ w)
    raise NumericalError(
        f"power iteration did not converge in {_POWER_MAX_ITER} iterations"
    )


def haggstrom_alpha(profile: CovarianceProfile) -> float:
    """Level at which two-sided edge survival equals 2/d (percolation below).

    brentq on [-12, 12] evaluates each end once and raises ValueError when the
    bracket has no sign change.  Its levels use the closed form
    P(X > a, Y > a) = Q(a) - 2 T(a, sqrt((1 - rho) / (1 + rho))) with Owen's T
    (|rho| = |phi(1)| < 1 on the spectrum); the root is then checked once
    against the quadrature of orthant_edge_probability, and a gap over
    1e-9 from 2/d raises NumericalError.
    """
    phi1 = profile.require(1)
    d = profile.point.d
    target = 2.0 / d
    slope = math.sqrt((1.0 - phi1) / (1.0 + phi1))

    def f(a: float) -> float:
        return float(ndtr(-a) - 2.0 * owens_t(a, slope)) - target

    root = float(brentq(f, -12.0, 12.0, xtol=1e-12, rtol=8.9e-16))
    gap = orthant_edge_probability(phi1, root) - target
    if not abs(gap) <= _HAGGSTROM_CHECK_ATOL:
        raise NumericalError(
            f"edge survival at the Owen's T root {root!r} misses 2/d by {gap:.3e}"
        )
    return root


def expdec_alpha(profile: CovarianceProfile) -> float:
    """Level above which the union bound kills boundary connection.

    Survival decays at least like exp(-alpha^2 n / (2 big_phi)); spheres grow
    like (d-1)^n, so alpha > sqrt(2 (d-1) big_phi) forces extinction, making
    this an upper bound for the critical level.
    """
    d = profile.point.d
    return math.sqrt(2.0 * (d - 1.0) * profile.big_phi)


def critical_threshold(
    profile: CovarianceProfile,
    tol: float = 1e-4,
    m: int = 64,
    u_max_offset: float = 8.0,
) -> float:
    """Critical level alpha_c: where the decay rate crosses 1/(d-1).

    Brent's method on transfer_rate(alpha) - 1/(d-1) over the widened
    rigorous bracket [haggstrom - 1, expdec + 1], to absolute tolerance `tol`;
    the rate is strictly decreasing in alpha, so the sign change is unique.
    brentq evaluates each bracket end once and raises ValueError when the
    bracket has no sign change.
    """
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValidationError(f"tol must be > 0, got {tol!r}")
    d = profile.point.d
    target = 1.0 / (d - 1.0)
    lo = haggstrom_alpha(profile) - 1.0
    hi = expdec_alpha(profile) + 1.0

    def f(a: float) -> float:
        return transfer_rate(profile, a, m, u_max_offset) - target

    return float(brentq(f, lo, hi, xtol=tol))


@dataclass(frozen=True)
class RatioEntry:
    n: int
    m: int
    ratio: float
    stderr: float


@dataclass(frozen=True)
class RatioBoundsReport:
    """Empirical submultiplicativity ratios P(n+m) / (P(n) P(m)).

    Every ratio lies in [1/bound, bound] with `bound` estimated from the data
    (the max of ratio and 1/ratio over the grid).
    """

    alpha: float
    entries: tuple[RatioEntry, ...]
    bound: float


def survival_ratio_bounds(
    profile: CovarianceProfile,
    alpha: float,
    n_list: Sequence[int],
    m_list: Sequence[int],
    reps: int,
    rng: np.random.Generator,
    batches: int = 16,
) -> RatioBoundsReport:
    """Estimate P(n+m) / (P(n) P(m)) over a grid with jackknife errors.

    One SMC curve run covers every length; ratios use the per-batch prefix
    products so shared factors cancel within a batch, and the stderr is a
    leave-one-batch-out jackknife.  Raises NumericalError when every batch
    dies before the longest length n + m, or when fewer than two batches are
    alive at a denominator length n or m: a leave-one-out mean there is 0
    and the jackknife ratio 0/0.
    """
    n_list = [int(v) for v in n_list]
    m_list = [int(v) for v in m_list]
    if not n_list or not m_list:
        raise ValidationError("n_list and m_list must be nonempty")
    if min(n_list + m_list) < 1:
        raise ValidationError("path lengths must be >= 1")
    top = max(n_list) + max(m_list)
    curve = survival_curve_smc(profile, top, alpha, reps, rng, batches)
    # The curve does not increase with length, so a zero at the top length
    # is a zero in some ratio's numerator or denominator.
    if curve.p_hat[-1] == 0.0:
        first = int(np.argmax(curve.p_hat == 0.0)) + 1
        raise NumericalError(
            f"every SMC batch died by length {first} at alpha={alpha!r}: "
            "the ratios are undefined; raise reps or lower alpha"
        )
    be = curve.batch_estimates
    nbat = be.shape[0]
    alive = np.count_nonzero(be > 0.0, axis=0)
    for n in sorted(set(n_list + m_list)):
        if alive[n - 1] < 2:
            raise NumericalError(
                f"{alive[n - 1]} of {nbat} SMC batches alive at length {n} at "
                f"alpha={alpha!r}: the jackknife needs two; raise reps or lower alpha"
            )

    def loo(x: np.ndarray) -> np.ndarray:
        """Leave-one-batch-out means."""
        return (x.sum() - x) / (nbat - 1)

    entries = []
    for n in n_list:
        for mm in m_list:
            num = be[:, n + mm - 1]
            den_a = be[:, n - 1]
            den_b = be[:, mm - 1]
            full = num.mean() / (den_a.mean() * den_b.mean())
            jack = loo(num) / (loo(den_a) * loo(den_b))
            se = math.sqrt((nbat - 1) / nbat * float(((jack - jack.mean()) ** 2).sum()))
            entries.append(
                RatioEntry(n=n, m=mm, ratio=float(full), stderr=se)
            )
    bound = max(max(e.ratio, 1.0 / e.ratio) for e in entries)
    return RatioBoundsReport(alpha=alpha, entries=tuple(entries), bound=bound)
