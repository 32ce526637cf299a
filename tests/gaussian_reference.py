"""Dense Schur-complement conditioning, the reference the Gibbs stencils and
the recursive ball sampler's family laws are checked against.

Ball covariances are singular by construction, so the given block is inverted
through numpy's Hermitian pseudo-inverse with the factorization cutoff
`treewaves.gaussian.RANK_RTOL`.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from treewaves.errors import ValidationError
from treewaves.gaussian import RANK_RTOL


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
