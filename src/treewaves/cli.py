"""Command-line interface.

Subcommands cover the library surface: covariance profiles, ball and path
samples, wave-identity verification, conditioned Gibbs runs, survival
estimates, rate curves, the critical threshold, and its rigorous bracket.

Each subcommand returns its document and writes nothing: a payload dict for a
JSON summary, or a (metadata, columns) pair for a CSV table.  `run` adds the
common header (schema version, tool, d, lambda, seed), serializes the document
and writes it to --out or stdout; only `gibbs --out-chain` writes a second
table itself.

Outputs are deterministic for fixed (seed, flags): no timestamps, floats
printed with 17 significant digits and '.' as the decimal separator, fixed key
order, '\n' line endings.  Tables are CSV with a '#'-prefixed metadata block
(d, lambda, seed, tool version); summaries are JSON with "schema_version": 1.

Exit codes: 0 success, 2 invalid parameters, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .conditioned import (
    DEFAULT_BURNIN,
    DEFAULT_THIN,
    build_gibbs_plan,
    gibbs_run,
    repulsion_tail,
)
from .errors import ValidationError
from .levelset import (
    QUADRATURE_M_MAX,
    critical_threshold,
    expdec_alpha,
    haggstrom_alpha,
    survival_curve_smc,
    survival_direct,
    transfer_rate,
)
from .sampler import (
    DENSE_VERTEX_BUDGET,
    sample_ball_dense,
    sample_ball_recursive,
    sample_path_many,
    sample_scale,
    verify_eigen_residual,
    verify_sphere_sums,
)
from .spectral import CovarianceProfile, SpectralPoint, build_profile
from .tree import DEFAULT_VERTEX_BUDGET, shell_sizes

SCHEMA_VERSION = 1
TOOL = f"treewaves {__version__}"
EIGEN_RESIDUAL_RTOL = 1e-8
# CSV rows are formatted this many at a time.
CSV_BLOCK_ROWS = 1 << 14
# The sample-path CSV gives the depth-k vertex the address "0/0/.../0" (2k - 1
# characters), so an n-vertex table holds about n^2 characters: ~100 MB at 10^4.
PATH_CSV_MAX_N = 10**4
M_HELP = (
    f"quadrature nodes per axis, 16 to {QUADRATURE_M_MAX}; memory grows like m^2 "
    "(under 8 MB at m=256) and time like m^3"
)
# What a subcommand returns: a JSON payload, or CSV (metadata, columns).
Document = dict | tuple[dict, dict]


def _json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and insertion-order keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return '"nan"' if math.isnan(v) else ('"inf"' if v > 0 else '"-inf"')
        return f"{v:.17g}"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}{_json_text(str(k))}: {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{inner}{_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks in order to the file `out`, or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _summary(args, payload: dict) -> dict:
    """The header keys every output starts with, then `payload`: the body of a
    JSON summary, or the metadata block of a CSV table."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL,
        "d": args.d,
        "lambda": getattr(args, "lam", 0.0),
        "seed": getattr(args, "seed", 0),
        **payload,
    }


def _cells(column) -> list[str]:
    """One CSV column as text: a list holds strings already; an integer array
    is printed with str, a float array with 17 significant digits."""
    if isinstance(column, list):
        return column
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [f"{v:.17g}" for v in column.tolist()]


def _csv_chunks(args, meta: dict, columns: dict) -> Iterator[str]:
    """Metadata block, header and one row per entry of the named columns.

    Rows are formatted and yielded CSV_BLOCK_ROWS at a time, so no full copy
    of a large table is ever held as text.
    """
    lines = [f"# {k}={v if isinstance(v, str) else _json_text(v)}"
             for k, v in _summary(args, meta).items()]
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    size = len(next(iter(columns.values())))
    for lo in range(0, size, CSV_BLOCK_ROWS):
        cells = [_cells(c[lo : lo + CSV_BLOCK_ROWS]) for c in columns.values()]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _float_list(text: str, flag: str) -> list[float]:
    """A comma list of finite numbers; any other entry is invalid input."""
    error = ValidationError(f"{flag} takes a comma list of finite numbers, got {text!r}")
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise error from None
    if not all(map(math.isfinite, values)):
        raise error
    return values


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
        sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
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
    columns = {"vertex": ball.addresses(), "depth": ball.depth, "value": sample.values}
    return {"sampler": sample.sampler, "radius": args.radius}, columns


def _cmd_sample_path(args) -> Document:
    if args.n > PATH_CSV_MAX_N:
        raise ValidationError(f"path length {args.n} over the budget of {PATH_CSV_MAX_N}")
    profile = build_profile(_point(args), 2)  # the path steps read phi(1), phi(2)
    rng = _rng(args)
    values = sample_path_many(profile, args.n, 1, rng)[0]
    # the path follows child 0 from the root
    addresses = [""] + ["0" + "/0" * (k - 1) for k in range(1, args.n)]
    columns = {"vertex": addresses, "depth": np.arange(args.n), "value": values}
    return {"sampler": "path", "n": args.n}, columns


def _cmd_verify(args) -> Document:
    if args.reps < 1:
        raise ValidationError(f"--reps must be >= 1, got {args.reps}")
    profile = _ball_profile(args, dense=args.sampler != "recursive")
    rng = _rng(args)
    samplers = ["dense", "recursive"] if args.sampler == "both" else [args.sampler]
    results = []
    all_pass = True
    for name in samplers:
        draw = sample_ball_dense if name == "dense" else sample_ball_recursive
        worst_eigen = 0.0
        worst_sphere = 0.0
        scale = 0.0
        for _ in range(args.reps):
            sample = draw(profile, args.radius, rng)
            worst_eigen = max(worst_eigen, verify_eigen_residual(sample))
            worst_sphere = max(worst_sphere, verify_sphere_sums(sample))
            scale = max(scale, sample_scale(sample))
        tol = EIGEN_RESIDUAL_RTOL * scale
        ok = worst_eigen <= tol and worst_sphere <= tol
        all_pass = all_pass and ok
        results.append(
            {
                "sampler": name,
                "max_eigen_residual": worst_eigen,
                "max_sphere_residual": worst_sphere,
                "scale": scale,
                "tolerance": tol,
                "pass": ok,
            }
        )
    return {"radius": args.radius, "reps": args.reps, "results": results, "pass": all_pass}


def _cmd_gibbs(args) -> Document:
    if args.tail_grid is not None:
        grid = _float_list(args.tail_grid, "--tail-grid")
    else:
        grid = [args.alpha + off for off in (0.5, 1.0, 1.5, 2.0)]
    profile = build_profile(_point(args), 4)
    plan = build_gibbs_plan(profile, args.n)
    rng = _rng(args)
    states = gibbs_run(
        plan, args.alpha, args.sweeps, args.burnin, args.thin, rng, args.chains
    )
    chains, kept, n = states.shape
    center = (n + 1) // 2
    tail = repulsion_tail(states, center, grid)
    meta = {"n": n, "alpha": args.alpha, "sweeps": args.sweeps,
            "burnin": args.burnin, "thin": args.thin, "chains": chains}
    if args.out_chain is not None:
        # chain-major rows; the chain column only when there are several
        chain, t, k = (a.ravel() for a in np.indices(states.shape))
        columns = {"chain": chain, "sweep": args.burnin + (t + 1) * args.thin,
                   "coordinate": k + 1, "value": states.ravel()}
        if chains == 1:
            del columns["chain"]
        _emit(_csv_chunks(args, meta, columns), args.out_chain)
    return {
        **meta,
        "retained": chains * kept,
        "center_coordinate": center,
        "center_mean": float(states[:, :, center - 1].mean()),
        "ess": tail.ess,
        "tail": [{"x": p.x, "p_hat": p.p_hat, "stderr": p.stderr} for p in tail.points],
    }


def _cmd_survival(args) -> Document:
    profile = build_profile(_point(args), 2)  # the path steps read phi(1), phi(2)
    rng = _rng(args)
    if args.method == "direct":
        est = survival_direct(profile, args.n, args.alpha, args.reps, rng)
    else:
        est = survival_curve_smc(
            profile, args.n, args.alpha, args.particles, rng, args.batches
        ).estimate(args.n)
    return {
        "n": est.n,
        "alpha": est.alpha,
        "method": est.method,
        "reps": est.reps,
        "p_hat": est.p_hat,
        "stderr": est.stderr,
        "collapsed": est.collapsed,
    }


def _parse_alpha_grid(args) -> list[float]:
    if args.alphas is not None:
        return _float_list(args.alphas, "--alphas")
    if args.alpha_steps < 2:
        raise ValidationError("--alpha-steps must be >= 2")
    if not (math.isfinite(args.alpha_min) and math.isfinite(args.alpha_max)):
        raise ValidationError("--alpha-min and --alpha-max must be finite")
    if not args.alpha_max > args.alpha_min:
        raise ValidationError("--alpha-max must exceed --alpha-min")
    return list(np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps))


def _cmd_rate(args) -> Document:
    grid = np.array(_parse_alpha_grid(args), dtype=float)
    profile = build_profile(_point(args), 2)
    r, r_coarse = (
        np.array([transfer_rate(profile, alpha, m, args.u_max_offset) for alpha in grid])
        for m in (args.m, max(16, args.m // 2))
    )
    columns = {"alpha": grid, "r": r, "stderr_or_tol": np.abs(r - r_coarse)}
    return {"m": args.m, "u_max_offset": args.u_max_offset}, columns


def _cmd_threshold(args) -> Document:
    profile = build_profile(_point(args), 2)
    # critical_threshold computes this bound again; bench/tracing.py times both names.
    lo = haggstrom_alpha(profile)
    hi = expdec_alpha(profile)
    alpha_c = critical_threshold(profile, args.tol, args.m, args.u_max_offset)
    rate_at = transfer_rate(profile, alpha_c, args.m, args.u_max_offset)
    return {
        "alpha_c": alpha_c,
        "bracket": {"haggstrom": lo, "expdec": hi},
        "rate_at_alpha_c": rate_at,
        "target_rate": 1.0 / (args.d - 1.0),
        "quadrature": {"m": args.m, "u_max_offset": args.u_max_offset},
        "tol": args.tol,
    }


def _cmd_bounds(args) -> Document:
    profile = build_profile(_point(args), 2)
    return {
        "haggstrom_alpha": haggstrom_alpha(profile),
        "expdec_alpha": expdec_alpha(profile),
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
    p.add_argument("--n", type=int, required=True, help="largest distance, >= 2")
    p.set_defaults(func=_cmd_profile)

    p = subs.add_parser("sample-ball", help="one exact ball sample as CSV")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--sampler", choices=["dense", "recursive"], default="dense")
    p.set_defaults(func=_cmd_sample_ball)

    p = subs.add_parser("sample-path", help="one exact path sample as CSV")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="number of path vertices")
    p.set_defaults(func=_cmd_sample_path)

    p = subs.add_parser("verify", help="wave identities on repeated ball samples")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--sampler", choices=["dense", "recursive", "both"], default="both")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("gibbs", help="conditioned-path Gibbs run")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    p.add_argument("--thin", type=int, default=DEFAULT_THIN)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--tail-grid", default=None, help="comma list of tail levels")
    p.add_argument("--out-chain", default=None, help="CSV path for retained states")
    p.set_defaults(func=_cmd_gibbs)

    p = subs.add_parser("survival", help="path survival probability estimate")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=["direct", "smc"], default="smc")
    p.add_argument("--reps", type=int, default=100_000, help="direct-method draws")
    p.add_argument("--particles", type=int, default=10_000, help="smc particles")
    p.add_argument("--batches", type=int, default=16)
    p.set_defaults(func=_cmd_survival)

    p = subs.add_parser("rate", help="decay-rate curve r(alpha) as CSV")
    _add_common(p, seed=False)
    p.add_argument("--alphas", default=None, help="comma list of levels")
    p.add_argument("--alpha-min", type=float, default=-1.0)
    p.add_argument("--alpha-max", type=float, default=2.0)
    p.add_argument("--alpha-steps", type=int, default=13)
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
        doc = args.func(args)
        if isinstance(doc, dict):
            chunks = [_json_text(_summary(args, doc)), "\n"]
        else:
            chunks = _csv_chunks(args, *doc)
        _emit(chunks, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime trouble: numerical failures, IO, ...
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
