"""Output checks, each by a route independent of the code that produced the
output.  Every check raises CheckError on a wrong output and returns None on a
right one.  None compares against frozen seed-specific bytes, so a change to
the random stream does not fail them.

Statistical checks allow Z_MAX standard errors: a run checks hundreds of Monte
Carlo outputs, and at 3 standard errors about one correct output in 370 would
be flagged.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtr
from scipy.stats import multivariate_normal

import treewaves as tw
from workloads import EXACT_CENTER_MEAN, Op

Z_MAX = 5.0
IDENTITY_RTOL = 1e-8  # ball identities, relative to max(1, max |value|)
SLOPE_TOL = 0.02  # SMC log-slope against log r(alpha), as acceptance criterion 06
RATE_TOL = 1e-3  # r(alpha_c) against 1 / (d - 1), as acceptance criterion 07


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def phi(d: int, lam: float, n: int) -> np.ndarray:
    """Covariance by distance from the wave recursion, phi(0..n)."""
    out = np.empty(n + 1)
    out[0] = 1.0
    if n >= 1:
        out[1] = lam / d
    for k in range(1, n):
        out[k + 1] = (lam * out[k] - out[k - 1]) / (d - 1.0)
    return out


def ball_structure(d: int, r: int) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """BFS parent index, depth and address string of every ball vertex; the
    children of one vertex are consecutive and ordered by label."""
    parent, depth, addr = [-1], [0], [""]
    shell = [0]
    for k in range(1, r + 1):
        fan = d if k == 1 else d - 1
        nxt = []
        for v in shell:
            prefix = addr[v] + "/" if addr[v] else ""
            for c in range(fan):
                nxt.append(len(parent))
                parent.append(v)
                depth.append(k)
                addr.append(f"{prefix}{c}")
        shell = nxt
    return np.array(parent), np.array(depth), addr


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        meta[key] = val
        i += 1
    expect(i < len(lines), f"{path}: no header line")
    header = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:]]
    return meta, header, rows


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _expect_point(doc: dict, p: dict) -> None:
    expect(int(doc["d"]) == p["d"], f"d {doc['d']} != {p['d']}")
    expect(float(doc["lambda"]) == p["lam"], f"lambda {doc['lambda']} != {p['lam']!r}")


def check_identities(d: int, lam: float, r: int, values: np.ndarray,
                     parent: np.ndarray, depth: np.ndarray) -> None:
    """Eigenvector equation at interior vertices and the sphere-sum law."""
    expect(values.shape == parent.shape, f"{values.size} values for {parent.size} vertices")
    expect(bool(np.all(np.isfinite(values))), "non-finite value")
    tol = IDENTITY_RTOL * max(1.0, float(np.abs(values).max()))
    child_sum = np.bincount(parent[1:], weights=values[1:], minlength=values.size)
    around = child_sum.copy()
    around[1:] += values[parent[1:]]
    interior = depth < r
    resid = np.abs(lam * values[interior] - around[interior]).max(initial=0.0)
    expect(resid <= tol, f"eigen residual {resid:.3e} > {tol:.3e}")
    prof = phi(d, lam, r)
    sizes = np.bincount(depth, minlength=r + 1)
    sums = np.bincount(depth, weights=values, minlength=r + 1)
    gap = np.abs(sums - sizes * prof * values[0]).max()
    expect(gap <= tol, f"sphere-sum residual {gap:.3e} > {tol:.3e}")


def components(values: np.ndarray, parent: np.ndarray, depth: np.ndarray,
               r: int, alpha: float) -> list[tuple]:
    """Sorted (size, reach, touches_boundary, contains_root) of every cluster
    of {value > alpha}, by a sparse-graph labelling."""
    above = values > alpha
    kids = np.flatnonzero(above[1:] & above[parent[1:]]) + 1
    n = values.size
    graph = coo_matrix((np.ones(kids.size), (parent[kids], kids)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    members = labels[above]
    uniq, inv = np.unique(members, return_inverse=True)
    size = np.bincount(inv)
    reach = np.zeros(uniq.size, dtype=int)
    np.maximum.at(reach, inv, depth[above])
    root_label = labels[0] if above[0] else -1
    return sorted(
        (int(s), int(h), bool(h == r), bool(u == root_label))
        for s, h, u in zip(size, reach, uniq)
    )


def _sample_ball(op: Op, out: str) -> None:
    p = op.params
    d, r = p["d"], p["radius"]
    meta, header, rows = read_csv(out)
    _expect_point(meta, p)
    expect(int(meta["seed"]) == p["seed"], "seed not echoed")
    expect(meta["sampler"] == p["sampler"] and int(meta["radius"]) == r, "sampler/radius")
    expect(header == ["vertex", "depth", "value"], f"header {header}")
    parent, depth, addr = ball_structure(d, r)
    expect(len(rows) == len(addr), f"{len(rows)} rows, ball has {len(addr)} vertices")
    expect([row[0] for row in rows] == addr, "vertex addresses out of BFS order")
    expect([int(row[1]) for row in rows] == depth.tolist(), "depth column")
    values = np.array([float(row[2]) for row in rows])
    check_identities(d, p["lam"], r, values, parent, depth)


def check_pipeline(op: Op, result) -> None:
    p = op.params
    d, r = p["d"], p["radius"]
    values, eigen, sphere, summaries = result
    parent, depth, _ = ball_structure(d, r)
    check_identities(d, p["lam"], r, values, parent, depth)
    tol = IDENTITY_RTOL * max(1.0, float(np.abs(values).max()))
    expect(eigen <= tol and sphere <= tol, f"library residuals {eigen:.3e}, {sphere:.3e}")
    for alpha, summary in zip(p["levels"], summaries):
        got = sorted((c.size, c.reach, c.touches_boundary, c.contains_root)
                     for c in summary.components)
        want = components(values, parent, depth, r, alpha)
        expect(got == want, f"clusters at alpha={alpha!r} differ from the graph labelling")
        root = [c for c in want if c[3]]
        expect(summary.root_size == (root[0][0] if root else 0), "root cluster size")
        expect(summary.root_reach == (root[0][1] if root else -1), "root cluster reach")


def _verify(op: Op, out: str) -> None:
    p = op.params
    doc = read_json(out)
    _expect_point(doc, p)
    expect(doc["radius"] == p["radius"] and doc["reps"] == p["reps"], "radius/reps")
    names = [res["sampler"] for res in doc["results"]]
    expect(names == ["dense", "recursive"], f"samplers {names}")
    for res in doc["results"]:
        tol = res["tolerance"]
        expect(0.0 < tol <= IDENTITY_RTOL * max(1.0, res["scale"]), "tolerance")
        worst = max(res["max_eigen_residual"], res["max_sphere_residual"])
        expect(res["pass"] is True and worst <= tol, f"{res['sampler']} residual {worst:.3e}")
    expect(doc["pass"] is True, "verify did not pass")


def _survival(op: Op, out: str) -> None:
    p = op.params
    doc = read_json(out)
    _expect_point(doc, p)
    n, alpha = p["n"], p["alpha"]
    expect(doc["n"] == n and doc["alpha"] == alpha and doc["method"] == p["method"], "echo")
    p_hat = float(doc["p_hat"])
    expect(0.0 < p_hat < 1.0 and doc["collapsed"] is False, f"p_hat {p_hat!r}")
    if p["method"] == "direct":
        if n == 1:
            exact = float(ndtr(-alpha))
        else:
            exact = orthant(p["lam"] / p["d"], alpha)
        se = math.sqrt(exact * (1.0 - exact) / p["reps"])
        expect(abs(p_hat - exact) <= Z_MAX * se,
               f"p_hat {p_hat:.6g} vs exact {exact:.6g} (se {se:.2g})")
        return
    # An independent SMC replicate gives the curve for the log-slope, and the
    # transfer operator gives the rate it must match.
    prof = tw.build_profile(tw.SpectralPoint(p["d"], p["lam"]), max(2, n - 1))
    rng = np.random.default_rng(np.random.SeedSequence([p["seed"], 1]))
    curve = tw.survival_curve_smc(prof, n, alpha, p["particles"], rng)
    q, q_se = float(curve.p_hat[n - 1]), float(curve.stderr[n - 1])
    se = math.hypot(float(doc["stderr"]), q_se)
    expect(abs(p_hat - q) <= Z_MAX * se, f"p_hat {p_hat:.6g} vs replicate {q:.6g} (se {se:.2g})")
    ns = np.arange(10, n + 1)
    slope = float(np.polyfit(ns, np.log(curve.p_hat[9:n]), 1)[0])
    log_rate = math.log(tw.transfer_rate(prof, alpha, 64))
    expect(abs(slope - log_rate) <= SLOPE_TOL,
           f"SMC log-slope {slope:.4f} vs log r {log_rate:.4f}")


def _gibbs(op: Op, out: str, chain_out: str) -> None:
    p = op.params
    doc = read_json(out)
    _expect_point(doc, p)
    n, alpha, chains = p["n"], p["alpha"], p["chains"]
    kept = (p["sweeps"] - p["burnin"]) // p["thin"]
    expect(doc["n"] == n and doc["chains"] == chains, "n/chains")
    expect(doc["retained"] == chains * kept, f"retained {doc['retained']} != {chains * kept}")
    meta, header, rows = read_csv(chain_out)
    _expect_point(meta, p)
    want = ["sweep", "coordinate", "value"]
    expect(header == (["chain"] + want if chains > 1 else want), f"header {header}")
    expect(len(rows) == chains * kept * n, f"{len(rows)} chain rows")
    states = np.array([float(row[-1]) for row in rows]).reshape(chains, kept, n)
    expect(bool(np.all(states > alpha)), f"a state is <= alpha = {alpha!r}")
    center = doc["center_coordinate"]
    expect(center == (n + 1) // 2, f"centre coordinate {center}")
    series = states[:, :, center - 1]
    mean = float(series.mean())
    expect(abs(mean - doc["center_mean"]) <= 1e-12 * max(1.0, abs(mean)), "centre mean")
    exact = EXACT_CENTER_MEAN.get(n)
    if (p["d"], p["lam"], alpha) == (3, 0.0, 0.0) and exact is not None and chains > 1:
        se = float(series.mean(axis=1).std(ddof=1)) / math.sqrt(chains)
        expect(abs(mean - exact) <= Z_MAX * se,
               f"centre mean {mean:.5f} vs quadrature {exact:.5f} (se {se:.2g})")


def big_phi(d: int, lam: float) -> float:
    """phi(0) + 2 sum_{j>=1} |phi(j)|; |phi(j)| <= (j+1) (d-1)^(-j/2)."""
    terms = int(math.ceil(60.0 / math.log10(d - 1.0))) + 40
    return float(1.0 + 2.0 * np.abs(phi(d, lam, terms)[1:]).sum())


def orthant(rho: float, alpha: float) -> float:
    """P(X > alpha, Y > alpha) for a standard bivariate normal (Genz's method)."""
    return float(multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).cdf([-alpha, -alpha]))


def _bounds(op: Op, out: str) -> None:
    p = op.params
    d = p["d"]
    doc = read_json(out)
    _expect_point(doc, p)
    lo, hi, bphi = doc["haggstrom_alpha"], doc["expdec_alpha"], doc["big_phi"]
    expect(abs(bphi - big_phi(d, p["lam"])) <= 1e-9 * bphi, f"big_phi {bphi!r}")
    expect(abs(hi - math.sqrt(2.0 * (d - 1.0) * bphi)) <= 1e-12 * hi, "expdec bound")
    edge = orthant(p["lam"] / d, lo)
    expect(abs(edge - 2.0 / d) <= 1e-5, f"edge survival at haggstrom {edge:.8f} != 2/d")
    expect(lo < hi, f"bracket [{lo}, {hi}] is empty")


def _threshold(op: Op, out: str) -> None:
    p = op.params
    d = p["d"]
    doc = read_json(out)
    _expect_point(doc, p)
    ac = doc["alpha_c"]
    lo, hi = doc["bracket"]["haggstrom"], doc["bracket"]["expdec"]
    expect(lo < ac < hi, f"alpha_c {ac!r} outside its bracket [{lo!r}, {hi!r}]")
    prof = tw.build_profile(tw.SpectralPoint(d, p["lam"]), 2)
    rate = tw.transfer_rate(prof, ac, 96)
    expect(abs(rate - 1.0 / (d - 1.0)) <= RATE_TOL, f"r(alpha_c) = {rate:.6f} != 1/(d-1)")


def _rate(op: Op, out: str) -> None:
    p = op.params
    meta, header, rows = read_csv(out)
    _expect_point(meta, p)
    expect(int(meta["m"]) == p["m"], "m not echoed")
    expect(header == ["alpha", "r", "stderr_or_tol"], f"header {header}")
    expect([float(row[0]) for row in rows] == list(p["alphas"]), "alpha grid")
    r = np.array([float(row[1]) for row in rows])
    expect(bool(np.all((r > 0.0) & (r < 1.0))), f"rate outside (0, 1): {r}")
    expect(bool(np.all(np.diff(r) < 0.0)), f"rate not decreasing in alpha: {r}")


_CLI_CHECKS = {
    "sample-ball": _sample_ball,
    "verify": _verify,
    "survival": _survival,
    "bounds": _bounds,
    "threshold": _threshold,
    "rate": _rate,
}


def check_cli(op: Op, out: str, chain_out: str | None) -> None:
    """Check the files a CLI op wrote."""
    if op.cmd == "gibbs":
        _gibbs(op, out, chain_out)
    else:
        _CLI_CHECKS[op.cmd](op, out)
