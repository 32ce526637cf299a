"""Plain m^3 reference for the pair transfer operator, independent of the
factorised kernel in `treewaves.levelset.transfer_rate`.

The kernel is held as the full (i, j, k) tensor w_k * N(x_k; b1 x_i + b2 x_j,
sigma2) and each power iteration contracts it with one einsum.  It costs
8 m^3 bytes, so keep m small.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from treewaves.errors import NumericalError
from treewaves.levelset import _POWER_MAX_ITER, _POWER_RTOL
from treewaves.sampler import path_step_table


def transfer_tensor(profile, alpha, m=64, u_max_offset=8.0):
    """Kernel tensor K[i, j, k], weights w and pair weight D[i, j] = pi(x_i, x_j) w_i w_j.

    pi is the stationary pair density of the order-2 step N(z; b1 x + b2 y,
    sigma2), up to scale: the one under which pi(x, y) N(z; b1 x + b2 y, sigma2)
    is symmetric in x and z.  With it, sum_ij D[i, j] f[j, i] (T g)[i, j] is
    symmetric in f and g, so the left Perron vector of T is D * h.T.
    """
    u_max = max(alpha, 0.0) + u_max_offset
    b1, b2, s2 = path_step_table(profile, 3)[-1]
    sd = math.sqrt(s2)
    nodes, weights = leggauss(m)
    half = 0.5 * (u_max - alpha)
    x = alpha + half * (nodes + 1.0)
    w = half * weights
    mean = b1 * x[:, None] + b2 * x[None, :]
    z = (x[None, None, :] - mean[:, :, None]) / sd
    kmat = w[None, None, :] * np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    xi, xj = x[:, None], x[None, :]
    log_d = (np.log(w)[:, None] + np.log(w)[None, :]
             - ((1.0 - b1**2) * (xi**2 + xj**2) - 2.0 * b2 * (1.0 + b1) * xi * xj) / (2.0 * s2))
    return kmat, w, np.exp(log_d - log_d.max())


def transfer_rate_tensor(profile, alpha, m=64, u_max_offset=8.0):
    """Leading eigenvalue of the discretized operator by power iteration.

    The weighted-mass ratio estimates it until that settles to sqrt(_POWER_RTOL);
    from then on the two-sided quotient sum D g.T h / sum D g.T g does, to two
    consecutive relative changes within _POWER_RTOL.
    """
    kmat, w, dmat = transfer_tensor(profile, alpha, m, u_max_offset)
    g = np.ones((m, m))
    prev_ray = prev_q = math.inf
    quotient = False
    hits = 0
    for _ in range(_POWER_MAX_ITER):
        h = np.einsum("ijk,jk->ij", kmat, g)
        ray = float(w @ h @ w) / float(w @ g @ w)
        quotient = quotient or abs(ray - prev_ray) <= math.sqrt(_POWER_RTOL) * abs(ray)
        if quotient:
            left = dmat * g.T
            q = (left * h).sum() / (left * g).sum()
            hits = hits + 1 if abs(q - prev_q) <= _POWER_RTOL * abs(q) else 0
            if hits >= 2:
                return q
            prev_q = q
        prev_ray = ray
        top = h.max()
        if top <= 0.0 or not math.isfinite(top):
            raise NumericalError("transfer operator iterate collapsed to zero")
        g = h / top
    raise NumericalError(
        f"power iteration did not converge in {_POWER_MAX_ITER} iterations"
    )
