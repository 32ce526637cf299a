"""Plain per-class reference for the conditioned-path Gibbs sweep, independent
of the gather/put buffers and the blocked uniforms in
`treewaves.conditioned.gibbs_run`.

Each sweep updates the colour classes k = 0, 1, 2 (mod 3) in turn.  A class
gathers its neighbours by fancy indexing, sums the stencil, and takes one
`truncated_standard` draw, which consumes its own uniforms from the stream.
"""

import numpy as np

from treewaves.conditioned import OFFSETS, retained_sweeps
from treewaves.gaussian import truncated_standard


def gibbs_run_per_class(plan, alpha, sweeps, burnin, thin, rng, chains=1):
    """The (chains, kept, n) retained states, drawn one class at a time."""
    kept = retained_sweeps(sweeps, burnin, thin, chains)
    n = plan.n
    sd = np.sqrt(plan.sigma2)
    classes = []
    for colour in range(min(3, n)):
        ks = np.arange(colour, n, 3)
        classes.append((ks + 2, ks[:, None] + 2 + OFFSETS, plan.coeffs[ks], sd[ks]))
    state = np.zeros((chains, n + 4))
    state[:, 2 : n + 2] = max(alpha, 0.0) + 1.0
    out = np.empty((chains, kept, n))
    for sweep in range(1, sweeps + 1):
        for cols, nbrs, weights, s in classes:
            mean = (state[:, nbrs] * weights).sum(axis=2)
            state[:, cols] = mean + s * truncated_standard((alpha - mean) / s, rng)
        t, rest = divmod(sweep - burnin, thin)
        if t > 0 and rest == 0:
            out[:, t - 1] = state[:, 2 : n + 2]
    return out
