"""Seeded op lists for the four benchmark workloads.

An op is one CLI invocation (`cmd` is a `treewaves` subcommand) or one library
pipeline (`cmd == "pipeline"`: sample_ball_recursive -> verify_eigen_residual
-> verify_sphere_sums -> extract_components at a few levels).  `generate` is a
pure function of (workload, seed): each workload draws its spectral points,
levels and per-op seeds from its own generator, while the cost-setting shape of
every op (degree, radius, path length, particle count, sweeps, quadrature size)
is fixed, so seeds change the inputs but not the amount of work.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ball-large", "ball-small", "path", "threshold")

# Paths at d = 3, lambda = 0, alpha = 0 whose centre-coordinate mean is known
# by quadrature (the frozen constants of tests/test_acceptance.py).
EXACT_CENTER_MEAN = {10: 0.5010661815344436, 40: 0.4987588734075828}


@dataclass(frozen=True)
class Op:
    id: int
    cmd: str
    params: dict = field(hash=False)


def spectral_edge(d: int) -> float:
    return 2.0 * math.sqrt(d - 1.0)


def _fractions(rng: np.random.Generator, k: int) -> list[float]:
    """k spectral positions lambda / edge in [-1, 1]: both edges plus k - 2
    stratified interior draws, so every seed spans the whole spectrum."""
    inner = [-1.0 + 2.0 * (j + rng.random()) / (k - 2) for j in range(k - 2)]
    return [-1.0, 1.0] + inner


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _ball_large(rng):
    # 10^4 to 5 * 10^4 vertices each; d = 3, r = 14 sets the peak memory.
    cells = [("sample-ball", d, r) for d, r in ((3, 12), (4, 8), (7, 5), (11, 4), (5, 7), (3, 14))]
    cells += [("pipeline", d, r) for d, r in ((3, 12), (4, 8), (7, 5), (11, 4))]
    ops = []
    for (cmd, d, r), f in zip(cells, _fractions(rng, len(cells))):
        p = {"d": d, "lam": f * spectral_edge(d), "radius": r}
        if cmd == "sample-ball":
            p["sampler"] = "recursive"
        else:
            p["levels"] = (float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.0, 1.5)))
        p["seed"] = _seed(rng)
        ops.append((cmd, p))
    return ops


def _ball_small(rng):
    verify_cells = [(3, r) for r in range(1, 5)] + [(4, r) for r in range(1, 5)]
    verify_cells += [(5, r) for r in range(1, 4)] + [(6, r) for r in range(1, 4)]
    dense_cells = [(3, 5), (3, 6), (3, 7), (4, 4), (5, 3)]
    shapes = [("verify", d, r, reps) for d, r in verify_cells for reps in (10, 30)]
    shapes += [("sample-ball", d, r, None) for d, r in dense_cells]
    ops = []
    for (cmd, d, r, reps), f in zip(shapes, _fractions(rng, len(shapes))):
        p = {"d": d, "lam": f * spectral_edge(d), "radius": r}
        if cmd == "verify":
            p.update(reps=reps, sampler="both")
        else:
            p["sampler"] = "dense"
        p["seed"] = _seed(rng)
        ops.append((cmd, p))
    return ops


def _path(rng):
    smc = [(20, 10_000), (30, 20_000), (40, 50_000), (50, 100_000),
           (50, 200_000), (20, 200_000), (30, 100_000), (40, 10_000)]
    direct = [(1, 100_000), (1, 1_000_000), (2, 100_000), (2, 1_000_000)]
    gibbs = [(10, 1, 600), (20, 1, 400), (40, 1, 300),
             (10, 32, 300), (20, 32, 250), (40, 32, 200)]
    fracs = _fractions(rng, len(smc) + len(direct) + len(gibbs))
    ops = []
    for (n, particles), f in zip(smc, fracs):
        d = int(rng.integers(3, 6))
        # Levels keep the per-step survival rate above ~0.15 at every lambda,
        # so 10^4 particles leave hundreds of survivors per batch and step.
        alpha = float(rng.uniform(-0.5, 0.25 * (1.0 + f)))
        ops.append(("survival", {"d": d, "lam": f * spectral_edge(d), "alpha": alpha,
                                 "n": n, "method": "smc", "particles": particles,
                                 "seed": _seed(rng)}))
    for (n, reps), f in zip(direct, fracs[len(smc):]):
        d = int(rng.integers(3, 6))
        ops.append(("survival", {"d": d, "lam": f * spectral_edge(d),
                                 "alpha": float(rng.uniform(-1.0, 1.0)), "n": n,
                                 "method": "direct", "reps": reps, "seed": _seed(rng)}))
    for (n, chains, sweeps), f in zip(gibbs, fracs[len(smc) + len(direct):]):
        d = int(rng.integers(3, 6))
        ops.append(("gibbs", {"d": d, "lam": f * spectral_edge(d),
                              "alpha": float(rng.uniform(-0.5, 1.0)), "n": n,
                              "sweeps": sweeps, "burnin": sweeps // 5, "thin": 5,
                              "chains": chains, "seed": _seed(rng)}))
    for n, sweeps in ((10, 600), (40, 400)):
        ops.append(("gibbs", {"d": 3, "lam": 0.0, "alpha": 0.0, "n": n,
                              "sweeps": sweeps, "burnin": 100, "thin": 5,
                              "chains": 32, "seed": _seed(rng)}))
    return ops


def _threshold(rng):
    # Per degree: `threshold` at both edges and at one draw on each side of
    # 0, `bounds` at the negative draw, and `rate` at the edges (m = 64 at
    # -edge, m = 128 at +edge).  Rates and bounds sit at fixed spectral
    # positions so that seeds hardly move the cost, and thresholds, which
    # outnumber the rest, hold the median op.  lambda = -edge stays in every
    # seed: there the search fails today at d = 3 and d = 4 (iterate collapse
    # at the top of the bracket), and the benchmark counts those failures.
    ops = []
    for i, d in enumerate((3, 4, 5, 8, 16)):
        edge = spectral_edge(d)
        lams = [f * edge for f in (-1.0, float(rng.uniform(-1.0, 0.0)),
                                   float(rng.uniform(0.0, 1.0)), 1.0)]
        ops.append(("bounds", {"d": d, "lam": lams[1]}))
        for j, lam in enumerate(lams):
            ops.append(("threshold", {"d": d, "lam": lam, "tol": 1e-5 if (i + j) % 2 else 1e-4}))
        for lam, m, k in ((lams[0], 64, 6), (lams[3], 128, 3)):
            alphas = tuple(-1.0 + 3.0 * (a + float(rng.random())) / k for a in range(k))
            ops.append(("rate", {"d": d, "lam": lam, "alphas": alphas, "m": m}))
    return ops


_GENERATORS = {
    "ball-large": _ball_large,
    "ball-small": _ball_small,
    "path": _path,
    "threshold": _threshold,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one workload; the same (workload, seed) gives the same list."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng(np.random.SeedSequence([index, seed]))
    return [Op(i, cmd, p) for i, (cmd, p) in enumerate(_GENERATORS[workload](rng))]


# One small op per layer group.  The traced run calls these only for layers
# that the workload's own ops never reach, so every per-layer metric is a
# measurement on every workload; read a layer on the workload README.md names.
PROBE_OPS = [
    Op(0, "verify", {"d": 3, "lam": 0.5, "radius": 2, "reps": 2, "sampler": "both", "seed": 1}),
    Op(1, "pipeline", {"d": 3, "lam": 0.5, "radius": 4, "levels": (0.0,), "seed": 1}),
    Op(2, "survival", {"d": 3, "lam": 0.0, "alpha": 0.0, "n": 5, "method": "smc",
                       "particles": 1000, "seed": 1}),
    Op(3, "survival", {"d": 3, "lam": 0.0, "alpha": 0.0, "n": 2, "method": "direct",
                       "reps": 1000, "seed": 1}),
    Op(4, "gibbs", {"d": 3, "lam": 0.0, "alpha": 0.0, "n": 5, "sweeps": 20, "burnin": 5,
                    "thin": 1, "chains": 1, "seed": 1}),
    Op(5, "threshold", {"d": 3, "lam": 0.0, "tol": 1e-2, "m": 16}),
]


def cli_argv(op: Op, out: str, chain_out: str | None = None) -> list[str]:
    """The `treewaves` argument list of a CLI op, writing its output to `out`."""
    argv = [op.cmd]
    for key, val in op.params.items():
        flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
        if isinstance(val, tuple):
            val = ",".join(repr(float(v)) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        argv.append(f"{flag}={val}")
    argv.append(f"--out={out}")
    if chain_out is not None:
        argv.append(f"--out-chain={chain_out}")
    return argv
