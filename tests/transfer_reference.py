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
from treewaves.levelset import _POWER_MAX_ITER, _POWER_MIN_ITER, _POWER_RTOL
from treewaves.sampler import path_step_table


def transfer_rate_tensor(profile, alpha, m=64, u_max_offset=8.0):
    """Leading eigenvalue of the discretized operator by power iteration."""
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
    g = np.ones((m, m))
    den = float(w @ g @ w)
    prev_ray = math.inf
    hits = 0
    for it in range(_POWER_MAX_ITER):
        h = np.einsum("ijk,jk->ij", kmat, g)
        num = float(w @ h @ w)
        ray = num / den
        if it >= _POWER_MIN_ITER and abs(ray - prev_ray) <= _POWER_RTOL * abs(ray):
            hits += 1
            if hits >= 2:
                return ray
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
