"""Property tests over random (d, lambda): the wave identities of recursive
ball samples, the rank of the dense ball covariance, a decay rate that does
not increase with the level, Gibbs stencils that match their closed forms,
byte-identical CLI reruns, and CSV cells with the bytes of per-value `%`.

Runs are derandomized, so every run draws the same cases; the `example` rows
pin the spectral edges at both ends of the degree range.
"""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import treewaves as tw  # noqa: E402
from treewaves import textio  # noqa: E402
from treewaves.cli import run  # noqa: E402

LOW_EDGE_D3 = (3, -tw.spectral_edge(3))
HIGH_EDGE_D12 = (12, tw.spectral_edge(12))
SEEDS = st.integers(0, 2**32 - 1)
# Same cases on every run, no deadline, and no example database on disk.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def spectral_points(draw):
    """(d, lambda) with d in 3..12 and lambda in [-edge, edge], edges included."""
    d = draw(st.integers(3, 12))
    u = draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)))
    return d, u * tw.spectral_edge(d)


def _profile(point, n_max):
    return tw.build_profile(tw.SpectralPoint(*point), max(2, n_max))


@settings(PROPERTY, max_examples=40)
@given(point=spectral_points(), r=st.integers(0, 4), seed=SEEDS)
@example(point=LOW_EDGE_D3, r=4, seed=0)
@example(point=HIGH_EDGE_D12, r=4, seed=1)
def test_recursive_sample_satisfies_wave_identities(point, r, seed):
    sample = tw.sample_ball_recursive(_profile(point, 2 * r), r, np.random.default_rng(seed))
    tol = 1e-8 * tw.sample_scale(sample)
    assert tw.verify_sphere_sums(sample) <= tol
    assert tw.verify_eigen_residual(sample) <= tol


@settings(PROPERTY, max_examples=20)
@given(point=spectral_points(), r=st.integers(0, 3))
@example(point=LOW_EDGE_D3, r=3)
@example(point=HIGH_EDGE_D12, r=2)
def test_dense_covariance_rank_is_outer_sphere_size(point, r):
    cov = tw.assemble_covariance(_profile(point, 2 * r), tw.enumerate_ball(point[0], r))
    assert tw.factor_psd(cov).rank == tw.sphere_size(point[0], r)


@settings(PROPERTY, max_examples=30)
@given(
    point=spectral_points(),
    alpha=st.floats(-2.0, 2.0),
    steps=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3),
)
@example(point=LOW_EDGE_D3, alpha=-2.0, steps=[0.5, 0.5, 0.5])
@example(point=HIGH_EDGE_D12, alpha=2.0, steps=[0.05])
def test_transfer_rate_does_not_increase_in_alpha(point, alpha, steps):
    # Steps of at least 0.05 move the rate far more than the 1e-10 power
    # iteration tolerance, so rounding cannot reorder neighbouring levels.
    profile = _profile(point, 2)
    levels = alpha + np.cumsum([0.0] + steps)
    rates = [tw.transfer_rate(profile, float(a), m=32) for a in levels]
    assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))


@settings(PROPERTY, max_examples=20)
@given(point=spectral_points(), n=st.integers(1, 12))
@example(point=LOW_EDGE_D3, n=9)
@example(point=HIGH_EDGE_D12, n=9)
def test_gibbs_stencils_agree_with_closed_forms(point, n):
    # build_gibbs_plan raises when a Schur-complement stencil leaves its
    # closed form; in the bulk both equal the repulsion coefficients.
    plan = tw.build_gibbs_plan(_profile(point, 4), n)
    c = tw.repulsion_coefficients(plan.profile.point)
    bulk = [-c.a2 / 2, c.a1 / 2, c.a1 / 2, -c.a2 / 2]
    np.testing.assert_allclose(plan.coeffs[2:-2], np.tile(bulk, (max(n - 4, 0), 1)), atol=1e-12)
    assert (plan.sigma2 > 0.0).all()


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


@settings(PROPERTY, max_examples=15)
@given(point=spectral_points(), n=st.integers(1, 60), seed=SEEDS)
@example(point=LOW_EDGE_D3, n=1, seed=0)
@example(point=HIGH_EDGE_D12, n=60, seed=0)
def test_sample_path_reruns_byte_identical(point, n, seed):
    d, lam = point
    argv = ["sample-path", "--d", str(d), f"--lambda={lam!r}", "--n", str(n),
            "--seed", str(seed)]
    assert _stdout(argv) == _stdout(argv)


@settings(PROPERTY, max_examples=15)
@given(
    point=spectral_points(),
    n=st.integers(1, 30),
    alpha=st.floats(-1.0, 2.0),
    method=st.sampled_from(["smc", "direct"]),
    seed=SEEDS,
)
@example(point=LOW_EDGE_D3, n=30, alpha=2.0, method="smc", seed=0)
@example(point=HIGH_EDGE_D12, n=30, alpha=-1.0, method="direct", seed=0)
def test_survival_reruns_byte_identical(point, n, alpha, method, seed):
    d, lam = point
    argv = ["survival", "--d", str(d), f"--lambda={lam!r}", "--n", str(n),
            f"--alpha={alpha!r}", "--method", method, "--particles", "400",
            "--reps", "2000", "--seed", str(seed)]
    assert _stdout(argv) == _stdout(argv)


def _csv_cells(values, fmt):
    """A one-column `csv_chunks` body of `values`, repeated to the row count
    that takes the numpy block path, and the same rows as per-value `fmt`."""
    rows = max(len(values), textio._CSV_SMALL_ROWS)
    column = [values[i % len(values)] for i in range(rows)]
    if not isinstance(values, list):
        column = np.asarray(column, values.dtype)
    text = "".join(textio.csv_chunks({"d": 3, "lambda": 0.0, "seed": 0}, {"x": column}))
    return text.split("\nx\n", 1)[1], "".join(fmt % v + "\n" for v in column)


@pytest.mark.filterwarnings("error")  # nan and inf cells raise no numpy RuntimeWarning
@settings(PROPERTY, max_examples=200)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
@example(values=[float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 2.2250738585072014e-308])
def test_csv_floats_match_per_value_formatting(values):
    body, expected = _csv_cells(np.array(values, dtype=np.float64), "%.17g")
    assert body == expected


@pytest.mark.filterwarnings("error")
@settings(PROPERTY, max_examples=100)
@given(values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
@example(values=[-(2**63), 2**63 - 1, 0, -1, 9, 10, -10])
def test_csv_integers_match_per_value_formatting(values):
    body, expected = _csv_cells(np.array(values, dtype=np.int64), "%d")
    assert body == expected


@pytest.mark.filterwarnings("error")
@settings(PROPERTY, max_examples=100)
@given(values=st.lists(st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=12),
                       min_size=1, max_size=40))
def test_csv_strings_match_per_value_formatting(values):
    body, expected = _csv_cells(values, "%s")
    assert body == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value, text", [
    (1234567890123456.25, "1234567890123456.2"),  # a tie: rounds to even
    (1234567890123456.75, "1234567890123456.8"),  # a tie: rounds to even
    (99999999999999984.0, "99999999999999984"),  # the largest fixed-point double
    (1e17, "1e+17"),
    (9.9999999999999991e-05, "9.9999999999999991e-05"),  # under 1e-4: exponent form
    (1e-4, "0.0001"),
    (0.09999999999999999, "0.099999999999999992"),  # one ulp under a decade
    (0.9999999999999999, "0.99999999999999989"),
    (0.1, "0.10000000000000001"),
    (5e-324, "4.9406564584124654e-324"),
    (-0.0, "-0"),
])
def test_csv_float_pinned_rows(value, text):
    body, expected = _csv_cells(np.array([value, -2.5]), "%.17g")
    assert body == expected
    assert body.split("\n", 1)[0] == text
