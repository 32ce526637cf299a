"""Command-line interface.

Subcommands cover the library surface: covariance profiles, ball and path
samples, wave-identity verification, conditioned Gibbs runs, survival
estimates, rate curves, the critical threshold, and its rigorous bracket.
Only `gibbs` (scipy.special), `bounds` and `threshold` (also scipy.optimize,
scipy.integrate) load scipy subpackages, on first use; the rest load none.

Each subcommand returns its document and writes nothing: a payload dict for a
JSON summary, or a (metadata, columns) pair for a CSV table; `gibbs` adds its
--out-chain table to its payload as a pair under "out_chain".  `run` builds the
common header (schema version, tool, d, lambda, seed) once, has `textio` turn
each document into text and is the one place that writes: the chain table
first, then the document to --out or stdout.

Exit codes: 0 success, 2 invalid parameters, 1 runtime failure.  A rule on
one flag is that flag's argparse type; a rule across flags is checked by the
function that owns it, before any costly work.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__, textio
from .conditioned import (
    DEFAULT_BURNIN,
    DEFAULT_THIN,
    build_gibbs_plan,
    gibbs_run,
    repulsion_tail,
    retained_sweeps,
)
from .errors import ValidationError
from .levelset import (
    QUADRATURE_M_MAX,
    critical_threshold,
    expdec_alpha,
    haggstrom_alpha,
    search_m,
    site_alpha,
    survival_curve_smc,
    survival_direct,
    transfer_rate,
    union_alpha,
)
from .sampler import (
    DENSE_VERTEX_BUDGET,
    sample_ball_dense,
    sample_ball_recursive,
    sample_ball_recursive_many,
    sample_path_many,
    verify_residuals,
)
from .spectral import CovarianceProfile, SpectralPoint, build_profile
from .tree import DEFAULT_VERTEX_BUDGET, Ball, ball_vertex_count, shell_sizes

SCHEMA_VERSION = 1
TOOL = f"treewaves {__version__}"
EIGEN_RESIDUAL_RTOL = 1e-8
# The sample-path CSV gives the depth-k vertex the address "0/0/.../0" (2k - 1
# characters), so an n-vertex file is about n^2 bytes: ~100 MB at 10^4.  The
# column is built a block at a time, so memory does not grow with the file.
PATH_CSV_MAX_N = 10**4
PROFILE_MAX_N = 10**6  # phi(n) is exactly 0.0 past n ~ 2100 at d = 3; 10^6 rows take ~10 MB
PATH_MAX_N = 10**6  # survival and gibbs paths; a Gibbs plan build at 10^6 peaks near 170 MB
SMC_MAX_PARTICLES = 10**7  # survival --method smc peaks near 102 MB at 10^6 particles, 615 MB at 10^7
DIRECT_MAX_REPS = 10**7  # survival --method direct holds under 25 MB per 10^6 reps
GIBBS_MAX_VALUES = 2 * 10**7  # gibbs state plus retained output, float64; peaks near 290 MB
RATE_MAX_STEPS = 10**4  # rate --alpha-steps; every level costs two transfer-operator solves
# verify draws and checks its reps in (rows, ball size) blocks of at most this
# many float64 values (2 MB; one row when a ball is larger).  At d = 3, radius
# 16, 100 reps, one block of every rep peaked at 566 MB RSS and these at 46 MB,
# the same as one rep at a time.
_VERIFY_BLOCK_VALUES = 1 << 18
M_HELP = (
    f"quadrature nodes per axis, 16 to {QUADRATURE_M_MAX}; memory grows like m^2 "
    "(under 8 MB at m=256) and time like m^3"
)
# What a subcommand returns: a JSON payload, or CSV (metadata, columns).
Document = dict | tuple[dict, dict]


def _summary(args) -> dict:
    """The header keys every output starts with: a JSON summary's first keys,
    or the first lines of a CSV table's metadata block."""
    return {"schema_version": SCHEMA_VERSION, "tool": TOOL, "d": args.d, "lambda": args.lam,
            "seed": getattr(args, "seed", 0)}


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks in order to the file `out`, or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _bounded(kind: type, lo=None, hi=None):
    """An argparse type: a finite `kind` value, at least `lo` and at most `hi`
    where given.  A flag's own range is checked as it is parsed, before any work."""

    def parse(text: str):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{value} over the budget of {hi}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_finite = _bounded(float)


def _float_list(text: str) -> list[float]:
    """An argparse type: a comma list of finite numbers."""
    try:
        return [_finite(tok) for tok in text.split(",")]
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"not a comma list of finite numbers: {text!r}") from None


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(args.seed))


def _point(args) -> SpectralPoint:
    return SpectralPoint(args.d, args.lam)


def _add_common(sub: argparse.ArgumentParser, seed: bool = True) -> None:
    sub.add_argument("--d", type=int, required=True, help="tree degree, >= 3")
    sub.add_argument(
        "--lambda", dest="lam", type=float, required=True,
        help="eigenvalue, |lambda| <= 2 sqrt(d-1)",
    )
    if seed:
        sub.add_argument("--seed", type=_bounded(int, 0), default=0, help="master seed (default 0)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def _cmd_profile(args) -> Document:
    profile = build_profile(_point(args), args.n)
    columns = {"n": np.arange(profile.n_max + 1), "phi": profile.phi}
    return {"big_phi": profile.big_phi}, columns


def _ball_profile(args, dense: bool) -> CovarianceProfile:
    """The profile to distance 2 * radius a ball sample reads, built (in time
    linear in the radius) only once the ball fits its sampler's budget."""
    point = _point(args)
    shell_sizes(args.d, args.radius, DENSE_VERTEX_BUDGET if dense else DEFAULT_VERTEX_BUDGET)
    return build_profile(point, max(2, 2 * args.radius))


def _cmd_sample_ball(args) -> Document:
    profile = _ball_profile(args, dense=args.sampler == "dense")
    rng = _rng(args)
    draw = sample_ball_dense if args.sampler == "dense" else sample_ball_recursive
    sample = draw(profile, args.radius, rng)
    ball = sample.ball
    columns = {"vertex": ball.address_bytes(), "depth": ball.depth, "value": sample.values}
    return {"sampler": sample.sampler, "radius": args.radius}, columns


def _cmd_sample_path(args) -> Document:
    profile = build_profile(_point(args), 2)  # the path steps read phi(1) and phi(2)
    rng = _rng(args)
    values = sample_path_many(profile, args.n, 1, rng)[0]
    columns = {"vertex": _path_addresses, "depth": np.arange(args.n), "value": values}
    return {"sampler": "path", "n": args.n}, columns


def _path_addresses(depth: np.ndarray) -> np.ndarray:
    """Addresses of the path vertices at `depth` as a NUL-padded bytes array: the
    path follows child 0 from the root, so depth k is "0/0/.../0" (2k - 1 characters)."""
    width = max(1, 2 * int(depth.max()) - 1)
    chars = np.frombuffer(b"0/" * width, np.uint8, width)
    return np.where(np.arange(width) < 2 * depth[:, None] - 1, chars, 0).view(f"S{width}").ravel()


def _verify_blocks(
    name: str, profile: CovarianceProfile, radius: int, reps: int, rng: np.random.Generator
) -> Iterator[tuple[Ball, np.ndarray]]:
    """reps draws of the named sampler as (ball, (rows, ball size) block) pairs
    of at most _VERIFY_BLOCK_VALUES values each.  A dense block stacks one
    `sample_ball_dense` draw per rep; a recursive block is one
    `sample_ball_recursive_many` draw."""
    rows = max(1, _VERIFY_BLOCK_VALUES // ball_vertex_count(profile.point.d, radius))
    for lo in range(0, reps, rows):
        n = min(rows, reps - lo)
        if name == "recursive":
            yield sample_ball_recursive_many(profile, radius, n, rng)
        else:
            samples = [sample_ball_dense(profile, radius, rng) for _ in range(n)]
            yield samples[0].ball, np.stack([s.values for s in samples])


def _cmd_verify(args) -> Document:
    profile = _ball_profile(args, dense=args.sampler != "recursive")
    rng = _rng(args)
    samplers = ["dense", "recursive"] if args.sampler == "both" else [args.sampler]
    results = []
    for name in samplers:
        worst_eigen = worst_sphere = scale = 0.0
        for ball, block in _verify_blocks(name, profile, args.radius, args.reps, rng):
            eigen, sphere = verify_residuals(profile, ball, block)
            worst_eigen = max(worst_eigen, float(eigen.max()))
            worst_sphere = max(worst_sphere, float(sphere.max()))
            scale = max(scale, float(np.abs(block).max()))
        tol = EIGEN_RESIDUAL_RTOL * scale
        results.append(
            {
                "sampler": name,
                "max_eigen_residual": worst_eigen,
                "max_sphere_residual": worst_sphere,
                "scale": scale,
                "tolerance": tol,
                "pass": worst_eigen <= tol and worst_sphere <= tol,
            }
        )
    return {"radius": args.radius, "reps": args.reps, "results": results,
            "pass": all(r["pass"] for r in results)}


def _cmd_gibbs(args) -> Document:
    kept = retained_sweeps(args.sweeps, args.burnin, args.thin, args.chains)
    values = args.chains * (args.n + 4 + kept * args.n)
    if values > GIBBS_MAX_VALUES:
        raise ValidationError(f"state and retained sweeps of {values} values over the budget "
                              f"of {GIBBS_MAX_VALUES}; lower --chains, --n or --sweeps")
    plan = build_gibbs_plan(build_profile(_point(args), 2), args.n)
    rng = _rng(args)
    states = gibbs_run(
        plan, args.alpha, args.sweeps, args.burnin, args.thin, rng, args.chains
    )
    chains, kept, n = states.shape
    center = (n + 1) // 2
    grid = args.tail_grid or [args.alpha + off for off in (0.5, 1.0, 1.5, 2.0)]
    tail = repulsion_tail(states, center, grid)
    meta = {"n": n, "alpha": args.alpha, "sweeps": args.sweeps,
            "burnin": args.burnin, "thin": args.thin, "chains": chains}
    payload = {
        **meta,
        "retained": chains * kept,
        "center_coordinate": center,
        "center_mean": float(states[:, :, center - 1].mean()),
        "ess": tail.ess,
        "tail": [{"x": p.x, "p_hat": p.p_hat, "stderr": p.stderr} for p in tail.points],
    }
    if args.out_chain is not None:
        # chain-major rows, indexed block by block; the chain column only when there are several
        columns = {"chain": lambda i: i // (kept * n),
                   "sweep": lambda i: args.burnin + (i // n % kept + 1) * args.thin,
                   "coordinate": lambda i: i % n + 1, "value": states.ravel()}
        if chains == 1:
            del columns["chain"]
        payload["out_chain"] = meta, columns
    return payload


def _cmd_survival(args) -> Document:
    profile = build_profile(_point(args), 2)
    rng = _rng(args)
    if args.method == "direct":
        est = survival_direct(profile, args.n, args.alpha, args.reps, rng)
    else:
        est = survival_curve_smc(
            profile, args.n, args.alpha, args.particles, rng, args.batches
        ).estimate(args.n)
    return dataclasses.asdict(est)


def _cmd_rate(args) -> Document:
    if args.alphas is not None:
        grid = np.array(args.alphas)
    elif args.alpha_max > args.alpha_min:
        grid = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    else:
        raise ValidationError("--alpha-max must exceed --alpha-min")
    profile = build_profile(_point(args), 2)
    # the coarse rule is half of m, but never below 16 nor equal to m itself
    coarse = 32 if args.m == 16 else max(16, args.m // 2)
    r, r_coarse = (
        np.array([transfer_rate(profile, alpha, m, args.u_max_offset) for alpha in grid])
        for m in (args.m, coarse)
    )
    columns = {"alpha": grid, "r": r, "stderr_or_tol": np.abs(r - r_coarse)}
    return {"m": args.m, "u_max_offset": args.u_max_offset}, columns


def _cmd_threshold(args) -> Document:
    profile = build_profile(_point(args), 2)
    # Search first, so bad inputs cost no bound; only [site, union] brackets the search.
    rates: dict[float, float] = {}
    alpha_c = critical_threshold(profile, args.tol, args.m, args.u_max_offset, rates=rates)
    m_search = search_m(args.m)
    # the search ran at m_search nodes; the reported rate is the --m rule's, so it
    # has the bits `rate --alphas=<alpha_c>` prints at the same --m
    rate = (rates[alpha_c] if m_search == args.m
            else transfer_rate(profile, alpha_c, args.m, args.u_max_offset))
    bracket = {"haggstrom": haggstrom_alpha(profile), "expdec": expdec_alpha(profile),
               "site": site_alpha(profile), "union": union_alpha(profile)}
    return {
        "alpha_c": alpha_c,
        "bracket": bracket,
        "rate_at_alpha_c": rate,
        "rate_gap": abs(rate - rates[alpha_c]),
        "rate_evals": len(rates),
        "target_rate": 1.0 / (args.d - 1.0),
        "quadrature": {"m": args.m, "search_m": m_search, "u_max_offset": args.u_max_offset},
        "tol": args.tol,
    }


def _cmd_bounds(args) -> Document:
    profile = build_profile(_point(args), 2)
    return {
        "haggstrom_alpha": haggstrom_alpha(profile),
        "expdec_alpha": expdec_alpha(profile),
        "site_alpha": site_alpha(profile),
        "union_alpha": union_alpha(profile),
        "big_phi": profile.big_phi,
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later run."""
    parser = argparse.ArgumentParser(
        prog="treewaves",
        description="Invariant Gaussian waves on regular trees: samplers and "
        "level-set percolation analysis.",
    )
    parser.add_argument("--version", action="version", version=TOOL)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="covariance profile phi(0..n) as CSV")
    _add_common(p, seed=False)
    p.add_argument("--n", type=_bounded(int, hi=PROFILE_MAX_N), required=True,
                   help=f"largest distance, 2 to {PROFILE_MAX_N}")
    p.set_defaults(func=_cmd_profile)

    p = subs.add_parser("sample-ball", help="one exact ball sample as CSV")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sampler", choices=["dense", "recursive"], default="dense")
    p.set_defaults(func=_cmd_sample_ball)

    p = subs.add_parser("sample-path", help="one exact path sample as CSV")
    _add_common(p)
    p.add_argument("--n", type=_bounded(int, hi=PATH_CSV_MAX_N), required=True,
                   help=f"number of path vertices, at most {PATH_CSV_MAX_N}")
    p.set_defaults(func=_cmd_sample_path)

    p = subs.add_parser("verify", help="wave identities on repeated ball samples")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--reps", type=_bounded(int, 1), default=100)
    p.add_argument("--sampler", choices=["dense", "recursive", "both"], default="both")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("gibbs", help="conditioned-path Gibbs run")
    _add_common(p)
    p.add_argument("--n", type=_bounded(int, hi=PATH_MAX_N), required=True)
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    p.add_argument("--thin", type=int, default=DEFAULT_THIN)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--tail-grid", type=_float_list, default=None,
                   help="comma list of tail levels")
    p.add_argument("--out-chain", default=None, help="CSV path for retained states")
    p.set_defaults(func=_cmd_gibbs)

    p = subs.add_parser("survival", help="path survival probability estimate")
    _add_common(p)
    p.add_argument("--n", type=_bounded(int, hi=PATH_MAX_N), required=True)
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--method", choices=["direct", "smc"], default="smc")
    p.add_argument("--reps", type=_bounded(int, 1, DIRECT_MAX_REPS), default=100_000,
                   help=f"direct-method draws, 1 to {DIRECT_MAX_REPS}")
    p.add_argument("--particles", type=_bounded(int, hi=SMC_MAX_PARTICLES), default=10_000,
                   help=f"smc particles, 100 to {SMC_MAX_PARTICLES}")
    p.add_argument("--batches", type=int, default=16)
    p.set_defaults(func=_cmd_survival)

    p = subs.add_parser("rate", help="decay-rate curve r(alpha) as CSV")
    _add_common(p, seed=False)
    p.add_argument("--alphas", type=_float_list, default=None, help="comma list of levels")
    p.add_argument("--alpha-min", type=_finite, default=-1.0)
    p.add_argument("--alpha-max", type=_finite, default=2.0)
    p.add_argument("--alpha-steps", type=_bounded(int, 2, RATE_MAX_STEPS), default=13,
                   help=f"2 to {RATE_MAX_STEPS}")
    p.add_argument("--m", type=int, default=64, help=M_HELP)
    p.add_argument("--u-max-offset", type=float, default=8.0)
    p.set_defaults(func=_cmd_rate)

    p = subs.add_parser("threshold", help="critical level alpha_c as JSON")
    _add_common(p, seed=False)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--m", type=int, default=64, help=M_HELP)
    p.add_argument("--u-max-offset", type=float, default=8.0)
    p.set_defaults(func=_cmd_threshold)

    p = subs.add_parser("bounds", help="rigorous threshold bracket as JSON")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_bounds)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, header = args.func(args), _summary(args)
        writes = [(doc, args.out)]
        if isinstance(doc, dict) and "out_chain" in doc:  # the chain goes first
            writes.insert(0, (doc.pop("out_chain"), args.out_chain))
        for doc, out in writes:
            _emit(textio.json_chunks(header, doc) if isinstance(doc, dict)
                  else textio.csv_chunks({**header, **doc[0]}, doc[1]), out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime trouble: numerical failures, IO, ...
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
