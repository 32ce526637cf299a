"""Command-line interface.

Subcommands cover the library surface: covariance profiles, ball and path
samples, wave-identity verification, conditioned Gibbs runs, survival
estimates, rate curves, the critical threshold, and its rigorous bracket.
Only `gibbs` (scipy.special), `bounds` and `threshold` (also scipy.optimize,
scipy.integrate) load scipy subpackages, on first use; the rest load none.

Each subcommand returns its document and writes nothing: a payload dict for a
JSON summary, or a (metadata, columns) pair for a CSV table.  `run` adds the
common header (schema version, tool, d, lambda, seed), serializes the document
and writes it to --out or stdout; only `gibbs --out-chain` writes a second
table itself.

Outputs are deterministic for fixed (seed, flags): no timestamps, floats
printed with 17 significant digits and '.' as the decimal separator, fixed key
order, '\n' line endings.  Tables are CSV with a '#'-prefixed metadata block
(d, lambda, seed, tool version), their rows formatted in numpy blocks with the
bytes of Python's `%d` and `%.17g`; summaries are JSON with "schema_version": 1.

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
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
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
# CSV rows are formatted in blocks of at most CSV_BLOCK_ROWS rows and
# _CSV_BLOCK_BYTES of padded text (up to 48 bytes a number).  A block of fewer rows,
# or more string bytes a row, takes one `%`: numpy's fixed cost or NUL padding loses.
CSV_BLOCK_ROWS = 1 << 14
_CSV_BLOCK_BYTES = 1 << 22
_CSV_SMALL_ROWS, _CSV_WIDE_TEXT = 256, 192
# 10^e as doubles (those under 1 round up, so |v| >= _DECADES[e + 4] is exactly
# |v| >= 10^e), and 10^q with its Veltkamp halves for Dekker's product
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _POW10 * (2.0**27 + 1) - (_POW10 * (2.0**27 + 1) - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the unit of each digit of a 17-digit integer, in its top nine or low eight digits
_DIGIT_UNIT = (10 ** np.r_[8:-1:-1, 7:-1:-1])[:, None].astype(np.int32)
# The sample-path CSV gives the depth-k vertex the address "0/0/.../0" (2k - 1
# characters), so an n-vertex file is about n^2 bytes: ~100 MB at 10^4.  The
# column is built a block at a time, so memory does not grow with the file.
PATH_CSV_MAX_N = 10**4
PROFILE_MAX_N = 10**6  # phi(n) is exactly 0.0 past n ~ 2100 at d = 3; 10^6 rows take ~10 MB
PATH_MAX_N = 10**6  # survival and gibbs paths; a Gibbs plan build at 10^6 peaks near 170 MB
SMC_MAX_PARTICLES = 10**7  # survival --method smc peaks near 55 MB per 10^6 particles
DIRECT_MAX_REPS = 10**7  # survival --method direct holds under 25 MB per 10^6 reps
GIBBS_MAX_VALUES = 2 * 10**7  # gibbs state plus retained output, float64; peaks near 220 MB
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
        "lambda": args.lam,
        "seed": getattr(args, "seed", 0),
        **payload,
    }


def _csv_chunks(args, meta: dict, columns: dict) -> Iterator[str]:
    """Metadata block, header and one row per entry of the named columns:
    strings from a list or a bytes array (its NULs deleted), integers like
    str, floats with 17 significant digits.  A column is a list, an array, or
    a function from row indices to values; a function's text is measured at a
    block's last row, so its strings must not narrow as the index grows.
    Rows are formatted a block at a time, so no large table is held as text:
    a block's columns become NUL-padded uint8 text matrices, joined by ',' and
    '\n' columns, and the NULs are deleted."""
    lines = [f"# {k}={v if isinstance(v, str) else _json_text(v)}"
             for k, v in _summary(args, meta).items()]
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    size = len(next(c for c in columns.values() if not callable(c)))
    lo = 0
    while lo < size:
        hi = min(lo + CSV_BLOCK_ROWS, size)
        widths = [_text_width(c(np.arange(hi - 1, hi)) if callable(c) else c[lo:hi])
                  for c in columns.values()]
        hi = min(hi, lo + max(1, _CSV_BLOCK_BYTES // (sum(widths) + 48 * len(widths))))
        block = [c(np.arange(lo, hi)) if callable(c) else c[lo:hi] for c in columns.values()]
        text = [isinstance(b, list) or b.dtype.kind == "S" for b in block]
        if hi - lo < _CSV_SMALL_ROWS or sum(widths) > _CSV_WIDE_TEXT:
            row = ",".join("%s" if t else "%d" if b.dtype.kind in "iu"
                           else "%.17g" for b, t in zip(block, text)) + "\n"
            cells = zip(*(b if isinstance(b, list) else
                          [a.replace(b"\0", b"").decode() for a in b.tolist()] if t else
                          b.tolist() for b, t in zip(block, text)))
            yield (row * (hi - lo)) % tuple(chain.from_iterable(cells))
        else:
            parts = []
            for b, t, w, end in zip(block, text, widths, b"," * (len(block) - 1) + b"\n"):
                parts += [np.asarray(b, f"S{w}").view(np.uint8).reshape(hi - lo, -1)
                          if t else _int_text(b) if b.dtype.kind in "iu"
                          else _float_text(b), np.full((hi - lo, 1), end, np.uint8)]
            yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()
        lo = hi


def _text_width(part) -> int:
    """The longest string of a list, the width of a bytes array, 0 for numbers."""
    if isinstance(part, list):
        return max(map(len, part))
    return part.itemsize if part.dtype.kind == "S" else 0


def _int_text(v: np.ndarray) -> np.ndarray:
    """`"%d" % i` for each 64-bit integer i in v, NUL-padded, one row each."""
    neg, v = v < 0, -np.abs(v.astype(np.int64))  # -|i|: at -2^63 both signs wrap back
    q = v // -10  # |i| // 10
    m = np.zeros((len(str(q.max())) + 2, len(v)), np.uint8)
    m[0] = neg * ord("-")
    m[-1] = ord("0") - (v + 10 * q)
    for k in range(len(m) - 2, 0, -1):  # leading digits, while the quotient is > 0
        m[k] = (q > 0) * (ord("0") + q - q // 10 * 10)
        q //= 10
    return m.T


def _float_text(x: np.ndarray) -> np.ndarray:
    """`"%.17g" % v` for each v in x, NUL-padded, one row each.  For
    1e-4 <= |v| < 1e17, of decade e, the digits are d = round(|v| 10^(16 - e)),
    ties to even: Dekker's product is hi + lo exactly, hi >= 2^53 an integer.
    The point follows digit e; trailing zeros after it are dropped.  Zeros print
    as 0 and -0; the rest (exponent form, nan, inf) take one `%` per block."""
    x = np.asarray(x, np.float64)
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0
    point = np.searchsorted(_DECADES, a, "right") - 5  # the decade e of |v|
    hi = a * _POW10[16 - point]
    ah = a * (2.0**27 + 1)
    ah -= ah - a
    al = a - ah
    bh, bl = _POW10_HI[16 - point], _POW10_LO[16 - point]
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # tail[j]: digits j.. of j's half of d, in place (new (17, rows) arrays page-fault)
    tail = np.empty((17, len(x)), np.int32)
    tail[:9], tail[9:] = np.divmod(d, 10**8)
    high = tail // (10 * _DIGIT_UNIT)
    tail -= np.multiply(high, 10 * _DIGIT_UNIT, out=high)
    digits = np.floor_divide(tail, _DIGIT_UNIT, out=high).astype(np.uint8) + ord("0")
    tail = tail != 0
    tail[:9] |= tail[9]  # now: a nonzero digit from j on
    digits[1:] *= tail[1:] | (np.arange(1, 17)[:, None] <= point)
    # sign, lead, then digits 0..top each with a slot for the point after it
    top = max(int(point.max()), -1)
    m = np.zeros((24 + max(top, 0), len(x)), np.uint8)
    m[0] = np.signbit(x) * ord("-")
    m[1:6] = (point < np.c_[[0, 0, -1, -2, -3]]) * np.c_[list(b"0.000")]  # below 1: 0.0..
    m[6:8 + 2 * top:2] = digits[:top + 1]
    m[8 + 2 * top:24 + top] = digits[top + 1:]
    at = np.flatnonzero((point >= 0) & (point < 16))
    at = at[tail[point[at] + 1, at]]
    m[7 + 2 * point[at], at] = ord(".")
    rest = np.flatnonzero(~exact)
    if len(rest):
        m[1:, rest] = 0
        m[1, rest] = ord("0")
        other = rest[x[rest] != 0]  # no "%.17g" text is longer than 24 characters
        if len(other):
            text = ("%.17g\0" * len(other) % tuple(x[other].tolist())).split("\0")[:-1]
            m[:24, other] = np.array(text, "S24").view(np.uint8).reshape(-1, 24).T
    return m.T


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
    chars = np.resize(np.frombuffer(b"0/", np.uint8), width)
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
    if args.out_chain is not None:
        # chain-major rows, indexed block by block; the chain column only when there are several
        columns = {"chain": lambda i: i // (kept * n),
                   "sweep": lambda i: args.burnin + (i // n % kept + 1) * args.thin,
                   "coordinate": lambda i: i % n + 1, "value": states.ravel()}
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
    bracket = {"haggstrom": haggstrom_alpha(profile), "expdec": expdec_alpha(profile),
               "site": site_alpha(profile), "union": union_alpha(profile)}
    return {
        "alpha_c": alpha_c,
        "bracket": bracket,
        "rate_at_alpha_c": rates[alpha_c],
        "target_rate": 1.0 / (args.d - 1.0),
        "quadrature": {"m": args.m, "u_max_offset": args.u_max_offset},
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
