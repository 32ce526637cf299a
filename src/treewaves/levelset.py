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
bracketed below by the site form of Haggstrom's mass-transport criterion
(site_alpha) and above by the union bound over paths (union_alpha).
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalError, ValidationError, finite, integer
from .gaussian import orthant_edge_probability
from .sampler import BallSample, _path_columns, path_step_table
from .spectral import CovarianceProfile

# Power iteration control for the transfer operator.
_POWER_RTOL = 1e-10
_POWER_MAX_ITER = 10_000
_POWER_MIN_ITER = 10
# Kernel and iterate entries below this become 0: a product of two kept ones is normal.
_FLOOR = math.sqrt(np.finfo(float).tiny)
# Largest quadrature size m that transfer_rate accepts.  Each power iterate
# is m x m and a call costs about m^3 flops: at m = 8192 the iterates alone
# would take several GB.
QUADRATURE_M_MAX = 1024

# A step of survival_curve_smc that draws at least this many normals draws them
# one step ahead on a worker thread.  The hand-off costs 70-100 us a step, which
# a step of a few thousand normals does not win back.
_DRAW_AHEAD_MIN = 2**14

# haggstrom_alpha's Owen's-T root must reproduce 2/d under the quadrature.
_HAGGSTROM_CHECK_ATOL = 1e-9


class Component(NamedTuple):
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
    finite("alpha", alpha)
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
    label = top[above]
    sizes = np.bincount(label, minlength=len(ball))
    reach = np.zeros(len(ball), dtype=np.int64)
    np.maximum.at(reach, label, ball.depth[above])
    tops = np.flatnonzero(sizes)
    sizes, reach = sizes[tops], reach[tops]
    # Largest first, then shallowest, then the root's cluster; the stable
    # sort keeps the remaining ties in ascending-top order.
    order = np.lexsort((tops != 0, reach, -sizes))
    columns = sizes, reach, reach == ball.radius, tops == 0
    # tuple.__new__ builds each row with no Python frame per cluster
    comps = map(tuple.__new__, repeat(Component), zip(*(c[order].tolist() for c in columns)))
    return ComponentSummary(
        alpha=alpha,
        components=tuple(comps),
        root_size=int(sizes[0]) if above[0] else 0,  # the root's cluster has top 0
        root_reach=int(reach[0]) if above[0] else -1,
    )


@dataclass(frozen=True)
class SurvivalEstimate:
    """Monte Carlo estimate of a path survival probability."""

    n: int
    alpha: float
    method: str
    reps: int
    p_hat: float
    stderr: float
    collapsed: bool = False


def survival_direct(
    profile: CovarianceProfile,
    n: int,
    alpha: float,
    reps: int,
    rng: np.random.Generator,
) -> SurvivalEstimate:
    """Plain Monte Carlo: fraction of exact path draws above alpha; no draw once all are below."""
    reps = integer("reps", reps, 1)
    finite("alpha", alpha)
    alive = np.ones(reps, dtype=bool)
    for col in _path_columns(path_step_table(profile, n), reps, rng):
        alive &= col > alpha
        if not alive.any():
            break
    p = int(np.count_nonzero(alive)) / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return SurvivalEstimate(
        n=n, alpha=alpha, p_hat=p, stderr=se, method="direct", reps=reps, collapsed=(p == 0.0)
    )


@dataclass(frozen=True)
class SurvivalCurve:
    """SMC survival estimates for every length 1..n_max in one pass.

    batch_estimates holds the per-batch prefix-product estimators, one row per
    independent batch; p_hat averages them and stderr is their spread (ddof 0)
    over sqrt(batches), the standard error of the batch mean.
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
        n = integer("length", n, 1)
        p = float(self.p_hat[n - 1])
        return SurvivalEstimate(
            n=n, alpha=self.alpha, p_hat=p, stderr=float(self.stderr[n - 1]),
            method="smc", reps=self.particles, collapsed=(p == 0.0),
        )


def _systematic_pick(alive: np.ndarray, u: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Indices into alive.ravel() that resample each row of `alive` systematically:
    slot j of row b, with A_b survivors, takes the survivor of rank floor((u_b + j)
    A_b / per) = (j A_b + floor(u_b A_b)) // per of row b, below A_b since the double
    u_b A_b < A_b for every u_b < 1.  A row with no survivor keeps its slots.
    `count` holds the A_b, np.count_nonzero(alive, axis=1)."""
    per = alive.shape[1]
    empty = count == 0
    if empty.any():
        alive = alive | empty[:, None]
        count = np.where(empty, per, count)
    rank = np.multiply.outer(count, np.arange(per))  # in place from here: no temporaries
    rank += (u * count).astype(np.intp)[:, None]
    rank //= per
    rank += (np.cumsum(count) - count)[:, None]
    return np.flatnonzero(alive).take(rank)


@contextlib.contextmanager
def _drawn(draw: Callable[[int], None], ahead: bool):
    """Yields start(k), which runs draw(k) and returns a wait for it.

    With `ahead`, draw(k) runs on one worker thread while the caller goes on;
    wait() returns once it has run, or re-raises what it raised, and the
    worker is joined when the block exits.  Otherwise draw(k) runs at once.
    """
    if not ahead:
        def start(k: int) -> Callable[[], None]:
            draw(k)
            return _ran
        yield start
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        yield lambda k: pool.submit(draw, k).result


def _ran() -> None:
    """The wait for a draw that has already run."""


def survival_curve_smc(
    profile: CovarianceProfile,
    n_max: int,
    alpha: float,
    particles: int,
    rng: np.random.Generator,
    batches: int = 16,
) -> SurvivalCurve:
    """Sequential Monte Carlo along the path with systematic resampling.

    The particles split into min(batches, particles // 50) independent
    batches, and `particles` is rounded down to a multiple of that count.
    Particles start from zeros and carry the last two surviving coordinates;
    each step multiplies the estimator by the surviving fraction and resamples
    each batch systematically, from one uniform per batch and step; the last
    step is not resampled, since nothing reads its particles.  A batch with no
    survivor reads 0 from then on.  The per-step fraction estimator makes every
    batch's prefix product unbiased for P(n); the standard error is the batch
    spread over sqrt(batches).  Nothing is drawn after the particle loop.

    Each step draws its normals, then its uniforms, into one of two buffers.
    When a step holds at least _DRAW_AHEAD_MIN particles, a worker thread
    draws step k + 1 while step k is updated and resampled, in the same order
    from the same generator, so the bits do not depend on the thread.
    """
    particles = integer("particles", particles, 100)
    finite("alpha", alpha)
    batches = integer("batches", batches, 2)
    steps = path_step_table(profile, n_max)  # checks the path length before any allocation
    nbat = min(batches, particles // 50)
    per = particles // nbat
    last = len(steps) - 1
    prev, cur = np.zeros((2, nbat, per))
    factors = np.zeros((nbat, len(steps)))
    normals = np.empty((2, nbat, per))  # step k's draws sit in row k % 2
    uniforms = np.empty((2, nbat))

    def draw(k: int) -> None:
        rng.standard_normal(out=normals[k % 2])
        if k < last:
            rng.random(out=uniforms[k % 2])

    with _drawn(draw, nbat * per >= _DRAW_AHEAD_MIN) as start:
        wait = start(0)
        # Python floats: numpy scalars would keep `b1 * prev + b2 * cur` from reusing a temporary
        for k, (b1, b2, var) in enumerate(steps.tolist()):
            wait()
            if k < last:  # step k + 1 is drawn while this step runs
                wait = start(k + 1)
            nxt = normals[k % 2]
            nxt *= math.sqrt(var)
            nxt += b1 * prev + b2 * cur
            alive = nxt > alpha
            count = np.count_nonzero(alive, axis=1)
            # a batch with no survivor gives 0.0, and cumprod of factors >= 0 keeps it at 0
            factors[:, k] = count / per
            if k < last:
                pick = _systematic_pick(alive, uniforms[k % 2], count)
                prev, cur = cur.take(pick), nxt.take(pick)
    batch_estimates = np.cumprod(factors, axis=1)
    return SurvivalCurve(
        alpha=alpha,
        particles=per * nbat,
        batches=nbat,
        p_hat=batch_estimates.mean(axis=0),
        stderr=batch_estimates.std(axis=0) / math.sqrt(nbat),
        batch_estimates=batch_estimates,
    )


def leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre rule on [-1, 1], imported on first use."""
    from numpy.polynomial import legendre
    return legendre.leggauss(m)


@functools.cache
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per m, read-only."""
    nodes, weights = leggauss(m)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _check_quadrature(m: int, u_max_offset: float) -> None:
    """transfer_rate's quadrature rule; critical_threshold checks it before its bracket."""
    if integer("quadrature size m", m, 16) > QUADRATURE_M_MAX:
        raise ValidationError(f"quadrature size m must be <= {QUADRATURE_M_MAX}, got {m}")
    if not (math.isfinite(u_max_offset) and u_max_offset > 0.0):
        raise ValidationError(f"u_max_offset must be finite and > 0, got {u_max_offset!r}")


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
        flops in all.  nb grows with |alpha|, and a level that needs more
        than m blocks raises ValidationError before any block is built.
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
    then underflows to 0 raises NumericalError.  Entries of P and of each
    iterate g below _FLOOR = sqrt(tiny) ~ 1.5e-154 are set to 0, so P * g holds
    no subnormal, whose arithmetic is slow on x86 (at d = 3 it would hold
    some).  The Gauss-Legendre nodes and weights are built once per m.
    """
    _check_quadrature(m, u_max_offset)
    finite("alpha", alpha)
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
    if nb > m:  # at most m blocks hold a node, and the rule is too coarse for the kernel
        raise ValidationError(
            f"alpha={float(alpha)!r} needs {nb} kernel blocks, more than the m={m} quadrature "
            "nodes: the rule cannot resolve the step kernel there; raise m or bring alpha nearer 0"
        )
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
        log_p[log_p < _FLOOR] = 0.0
    # From the second step on, g has unit weighted mass w g w, so w (T g) w
    # estimates the eigenvalue; the first estimate is never compared.
    g = np.ones((m, m))
    h = np.empty((m, m))
    prev_ray = math.inf
    hits = 0
    for it in range(_POWER_MAX_ITER):
        for sl, p, e, f in blocks:
            h[sl] = f * (e @ (p * g).T)
        ray = float(w @ h @ w)
        if not (ray > 0.0 and math.isfinite(ray)):
            raise NumericalError("transfer operator iterate collapsed to zero")
        close = it >= _POWER_MIN_ITER and abs(ray - prev_ray) <= _POWER_RTOL * ray
        hits = hits + 1 if close else 0
        if hits >= 2:
            rate = math.exp(shift + math.log(ray))
            if rate == 0.0:
                raise NumericalError("transfer operator iterate collapsed to zero")
            return rate
        prev_ray = ray
        np.divide(h, ray, out=g)
        g[g < _FLOOR] = 0.0
    raise NumericalError(
        f"power iteration did not converge in {_POWER_MAX_ITER} iterations"
    )


def _pair_root(profile: CovarianceProfile, scale: Callable[[float], float]) -> float:
    """Root in [-12, 12] of P(X > a, Y > a) - (2/d) scale(a), with rho = phi(1).

    brentq raises ValueError when the ends do not change sign; each level uses
    P(X > a, Y > a) = Q(a) - 2 T(a, sqrt((1 - rho) / (1 + rho))) with Owen's T.
    """
    import scipy.optimize
    import scipy.special
    phi1 = profile.require(1)
    target = 2.0 / profile.point.d
    slope = math.sqrt((1.0 - phi1) / (1.0 + phi1))

    def f(a: float) -> float:
        pair = scipy.special.ndtr(-a) - 2.0 * scipy.special.owens_t(a, slope)
        return float(pair) - target * scale(a)

    return float(scipy.optimize.brentq(f, -12.0, 12.0, xtol=1e-12, rtol=8.9e-16))


def haggstrom_alpha(profile: CovarianceProfile) -> float:
    """Level at which two-sided edge survival equals 2/d (percolation below).

    The bond form of Haggstrom's criterion, looser than site_alpha.  The Owen's
    T root is checked once against orthant_edge_probability's quadrature; a
    gap over 1e-9 from 2/d raises NumericalError.
    """
    root = _pair_root(profile, lambda a: 1.0)
    gap = orthant_edge_probability(profile.require(1), root) - 2.0 / profile.point.d
    if not abs(gap) <= _HAGGSTROM_CHECK_ATOL:
        raise NumericalError(
            f"edge survival at the Owen's T root {root!r} misses 2/d by {gap:.3e}"
        )
    return root


def site_alpha(profile: CovarianceProfile) -> float:
    """Lower bound alpha_s for alpha_c: the site form of Haggstrom's criterion.

    By mass transport, an invariant site percolation on the tree with only
    finite clusters has E[cluster degree of o; o open] < 2 P(o open).  So
    kappa(a) = Q(a) - (d/2) P(X > a, Y > a) < 0 forces an infinite cluster of
    {psi > a}; alpha_s is the root of kappa, by _pair_root.
    """
    import scipy.special
    return _pair_root(profile, lambda a: float(scipy.special.ndtr(-a)))


def union_alpha(profile: CovarianceProfile) -> float:
    """Upper bound alpha_u = sqrt(2 big_phi log(d-1)) for alpha_c.

    Path survival decays at least like exp(-alpha^2 n / (2 big_phi)), and the
    root cluster reaches sphere n only if one of d (d-1)^(n-1) paths survives.
    """
    return math.sqrt(2.0 * profile.big_phi * math.log(profile.point.d - 1.0))


def expdec_alpha(profile: CovarianceProfile) -> float:
    """Level sqrt(2 (d-1) big_phi) above which the union bound kills percolation.

    The looser (d-1) form of union_alpha's log(d-1) bound, kept because
    published outputs and the threshold tests report it.
    """
    d = profile.point.d
    return math.sqrt(2.0 * (d - 1.0) * profile.big_phi)


def search_m(m: int) -> int:
    """Quadrature size of the threshold search under a rule of m nodes.

    Half of m, but not below 32 nodes (m itself when m <= 32): at d = 3,
    +edge the root of a 16-node search lies 6.9e-3 from a 64-node one's,
    and that of a 24-node search 1.4e-5.
    """
    return min(m, max(32, m // 2))


def critical_threshold(
    profile: CovarianceProfile,
    tol: float = 1e-4,
    m: int = 64,
    u_max_offset: float = 8.0,
    rates: dict[float, float] | None = None,
) -> float:
    """Critical level alpha_c: where the decay rate crosses 1/(d-1).

    Brent's method on transfer_rate(alpha) - 1/(d-1) over the rigorous
    bracket [site_alpha, union_alpha], to absolute tolerance `tol`; the rate
    is strictly decreasing in alpha, so the sign change is unique.  brentq
    evaluates each bracket end once and raises ValueError when the bracket
    has no sign change; the bracket is never widened.  tol, m and
    u_max_offset are checked before the bracket is computed.

    The search runs at half the rule, search_m(m) = min(m, max(32, m // 2))
    nodes; at m = 64 a call costs 0.4-0.6 of an m-node call.  So the root is
    accurate to tol plus the half rule's quadrature error, at most 1e-8: at
    m = 64 it lies within 9.6e-9 of an m-node search's root on d in
    {3, 4, 5, 8, 16, 100, 1000} x lambda/edge in {-1, -0.95, -0.5, 0, 0.5, 1}
    (the most at d = 3, +edge; within 3e-11 elsewhere; d = 3, -edge
    collapses under either rule).  The root brentq returns is always a level
    it has evaluated; a `rates` dict, when given, receives
    rates[level] = transfer_rate(profile, level, search_m(m), u_max_offset)
    for every evaluated level.  So rates[root] is the search rule's rate at
    the root, and the m-node rate there costs one more call.
    """
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValidationError(f"tol must be > 0, got {tol!r}")
    _check_quadrature(m, u_max_offset)
    import scipy.optimize
    target = 1.0 / (profile.point.d - 1.0)
    m_search = search_m(m)

    def f(a: float) -> float:
        rate = transfer_rate(profile, a, m_search, u_max_offset)
        if rates is not None:
            rates[a] = rate
        return rate - target

    return float(scipy.optimize.brentq(f, site_alpha(profile), union_alpha(profile), xtol=tol))


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
    n_list = [integer("path length", v, 1) for v in n_list]
    m_list = [integer("path length", v, 1) for v in m_list]
    if not n_list or not m_list:
        raise ValidationError("n_list and m_list must be nonempty")
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
    # One column per (n, m) pair, n-major; rows are batches.
    n_grid, m_grid = (g.ravel() for g in np.meshgrid(n_list, m_list, indexing="ij"))
    parts = be[:, n_grid + m_grid - 1], be[:, n_grid - 1], be[:, m_grid - 1]
    num, den_a, den_b = (x.mean(axis=0) for x in parts)
    ratio = num / (den_a * den_b)
    # The jackknife replicates divide leave-one-batch-out means.
    loo_num, loo_a, loo_b = ((x.sum(axis=0) - x) / (nbat - 1) for x in parts)
    se = np.sqrt((nbat - 1) * (loo_num / (loo_a * loo_b)).var(axis=0))
    entries = tuple(map(RatioEntry, n_grid.tolist(), m_grid.tolist(), ratio.tolist(), se.tolist()))
    bound = float(np.maximum(ratio, 1.0 / ratio).max())
    return RatioBoundsReport(alpha=alpha, entries=entries, bound=bound)
