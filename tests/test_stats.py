import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import average_ranks_by_sorting, brute_force_spearman_p
from hypothesis import given, settings, strategies as st

import fedcard
from fedcard.stats import (
    EXACT_PERMUTATION_MAX_N,
    METHODS,
    StatsError,
    _average_ranks,
    _median,
    _t_two_sided_p,
    correlate_results,
    correlation_band,
    irls_huber,
    ols,
    spearman,
)


# ------------------------------------------------------------ spearman


def test_spearman_monotone():
    assert spearman([1, 2, 3], [2, 4, 6]).rho == pytest.approx(1.0)


def test_spearman_worked_example():
    # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d^2 = (4, 1, 1)
    assert spearman([1, 2, 3], [3, 1, 2]).rho == pytest.approx(-0.5)


def test_spearman_reversed():
    assert spearman([1, 2, 3], [3, 2, 1]).rho == pytest.approx(-1.0)


def test_spearman_average_ranks_for_ties():
    result = spearman([1, 2, 2, 3], [1, 3, 3, 4])
    assert result.rho == pytest.approx(1.0)


def test_spearman_constant_vector_rejected():
    with pytest.raises(StatsError, match="zero rank variance"):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_exact_permutation_small_n():
    result = spearman([1, 2, 3], [2, 4, 6])
    # Two of the six permutations reach |rho| = 1.
    assert result.p_value == pytest.approx(2 / 6)


def test_spearman_t_approximation_large_n():
    rng = random.Random(5)
    x = [float(i) for i in range(30)]
    y = [v + rng.uniform(-3, 3) for v in x]
    result = spearman(x, y)
    assert result.n == 30
    assert 0.0 <= result.p_value <= 1.0
    assert result.rho > 0.8


def test_spearman_invariant_under_monotone_transform():
    rng = random.Random(6)
    x = [rng.uniform(0, 10) for _ in range(20)]
    y = [rng.uniform(0, 10) for _ in range(20)]
    base = spearman(x, y).rho
    assert spearman([math.exp(v) for v in x], y).rho == pytest.approx(base)
    assert spearman(x, [v**3 for v in y]).rho == pytest.approx(base)


def test_spearman_requires_three_points():
    with pytest.raises(StatsError):
        spearman([1, 2], [1, 2])


def _tied_pairs(n):
    """Two integer vectors of length n over n - 1 values, so each holds a tie."""
    values = st.lists(st.integers(0, n - 2), min_size=n, max_size=n)
    return st.tuples(values, values).filter(lambda xy: min(map(len, map(set, xy))) > 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 8).flatmap(_tied_pairs))
def test_exact_spearman_p_equals_brute_force(xy):
    x, y = xy
    assert spearman(x, y).p_value == brute_force_spearman_p(x, y)


@pytest.mark.slow
def test_exact_spearman_p_equals_brute_force_at_the_largest_exact_n():
    x = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    y = [2, 7, 1, 8, 2, 8, 1, 8, 2, 8]
    assert len(x) == EXACT_PERMUTATION_MAX_N
    assert spearman(x, y).p_value == brute_force_spearman_p(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-3, 3) | st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_average_ranks_equal_the_sort_based_reference(values):
    assert _average_ranks([float(v) for v in values]) == average_ranks_by_sorting(values)


# |t| from 0 to 60. Near t = 0 stdtr itself strays (3e-11 relative at df = 1,
# t = 1e-6; 3e-9 at t = 1e-8), so the closed forms below cover small t. On the
# grid, stdtr is within 8.3e-14 of 40-digit values (at df = 20,000, t = 30),
# which sets the 1e-13 bound; the large df catch cancellation for x near 1.
T_GRID = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0,
          15.0, 20.0, 30.0, 45.0, 60.0)


def test_t_tail_matches_scipy_stdtr():
    stdtr = pytest.importorskip("scipy.special").stdtr
    for df in [*range(1, 201), 500, 5000, 20_000, 100_000]:
        for t in T_GRID:
            expected = 2.0 * float(stdtr(df, -t))
            for got in (_t_two_sided_p(t, df), _t_two_sided_p(-t, df)):
                if got < 1e-300 and expected < 1e-300:
                    continue
                assert got == pytest.approx(expected, rel=1e-13, abs=0), (df, t)


@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3, 0.2, 1.0, 3.0, 30.0])
def test_t_tail_closed_forms(t):
    """df = 1 is the Cauchy tail and df = 2 has a closed form; both hold near t = 0."""
    assert _t_two_sided_p(t, 1) == pytest.approx(1 - 2 / math.pi * math.atan(t), rel=1e-13)
    assert _t_two_sided_p(t, 2) == pytest.approx(1 - t / math.sqrt(2 + t * t), rel=1e-13)


# ------------------------------------------------------------ OLS


def test_ols_exact_line():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    fit = ols(x, [2 * v + 1 for v in x])
    assert fit.intercept == pytest.approx(1.0, abs=1e-10)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.r == pytest.approx(1.0)


def test_ols_hand_computed_example():
    fit = ols([1, 2, 3, 4], [2, 4, 5, 9])
    assert fit.slope == pytest.approx(2.2)
    assert fit.intercept == pytest.approx(-0.5)
    assert fit.r == pytest.approx(11 / math.sqrt(130))  # ~0.96476


def test_ols_noise_bounded():
    x = [1, 2, 3, 4, 5]
    y = [5, 1, 4, 2, 3]
    assert abs(ols(x, y).r) < 1.0


def test_ols_constant_x_rejected():
    with pytest.raises(StatsError):
        ols([2, 2, 2], [1, 2, 3])


def test_ols_r_squared_identity_random():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(5, 40)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [2.5 * v - 1 + rng.gauss(0, 2) for v in x]
        fit = ols(x, y)
        resid = [yv - fit.intercept - fit.slope * xv for xv, yv in zip(x, y)]
        ss_res = sum(r * r for r in resid)
        mean_y = sum(y) / n
        ss_tot = sum((yv - mean_y) ** 2 for yv in y)
        assert fit.r**2 == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)


# ------------------------------------------------------------ IRLS


def test_irls_clean_data_equals_ols():
    x = list(range(1, 11))
    y = [2.0 * v + 1.0 for v in x]
    robust = irls_huber(x, y)
    plain = ols(x, y)
    assert robust.slope == pytest.approx(plain.slope, abs=1e-8)
    assert robust.intercept == pytest.approx(plain.intercept, abs=1e-8)
    assert all(w == 1.0 for w in robust.weights)
    assert robust.outliers == ()
    assert robust.converged


def test_irls_planted_outlier():
    x = [float(i) for i in range(1, 11)]
    y = [2.0 * v for v in x]
    y[4] = 100.0  # x = 5
    result = irls_huber(x, y)
    assert abs(result.slope - 2.0) < 0.05
    assert result.outliers == (4,)
    assert result.converged


def test_irls_minimal_exact_line_converges_immediately():
    result = irls_huber([1, 2, 3, 4], [3, 5, 7, 9])
    assert result.converged
    assert result.iterations == 1
    assert result.slope == pytest.approx(2.0)


def test_irls_noisy_data_close_to_ols():
    rng = random.Random(10)
    x = [float(i) for i in range(30)]
    y = [1.5 * v + rng.gauss(0, 0.5) for v in x]
    robust = irls_huber(x, y)
    plain = ols(x, y)
    assert robust.slope == pytest.approx(plain.slope, abs=0.1)
    assert -1.0 <= robust.r <= 1.0


def test_irls_all_residuals_below_threshold_equals_ols():
    # Alternating +-0.1 residuals all stay below k * sigma, so every weight
    # is 1 and the robust fit is the plain least-squares fit.
    x = [float(i) for i in range(1, 11)]
    y = [2.0 * v + 1.0 + (0.1 if i % 2 else -0.1) for i, v in enumerate(x)]
    robust = irls_huber(x, y)
    plain = ols(x, y)
    assert all(w == 1.0 for w in robust.weights)
    assert robust.slope == pytest.approx(plain.slope, abs=1e-12)
    assert robust.intercept == pytest.approx(plain.intercept, abs=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=20))
def test_median_equals_statistics_median(values):
    """IRLS's MAD scale takes the same middle value (or mean of two) as before."""
    assert _median(values) == statistics.median(values)


def test_irls_requires_four_points():
    with pytest.raises(StatsError):
        irls_huber([1, 2, 3], [1, 2, 3])


# ------------------------------------------------------------ scipy references


def test_spearman_and_ols_match_scipy_stats():
    """scipy.stats' Spearman (t-approximated p) and linregress are the references."""
    sps = pytest.importorskip("scipy.stats")
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(EXACT_PERMUTATION_MAX_N + 1, 40)
        x = [float(rng.randrange(2, 8)) + (i == 0) * 10 for i in range(n)]
        y = [float(rng.randrange(5)) + v / 3 for v in x]
        expected = sps.spearmanr(x, y)
        got = spearman(x, y)
        assert got.rho == pytest.approx(expected.statistic, rel=1e-12, abs=1e-12)
        assert got.p_value == pytest.approx(expected.pvalue, rel=1e-9, abs=1e-300)
        ref = sps.linregress(x, y)
        fit = ols(x, y)
        assert (fit.intercept, fit.slope) == pytest.approx((ref.intercept, ref.slope), rel=1e-9)
        assert fit.r == pytest.approx(ref.rvalue, rel=1e-12, abs=1e-12)
        assert fit.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-300)


def test_irls_p_value_is_the_weighted_slope_t_test():
    sps = pytest.importorskip("scipy.stats")
    rng = random.Random(12)
    x = [rng.uniform(0, 10) for _ in range(25)]
    y = [2 + 0.5 * v + rng.gauss(0, 1) for v in x]
    y[3] += 40
    np = pytest.importorskip("numpy")
    fit = irls_huber(x, y)
    assert fit.converged and fit.outliers
    w = np.array(fit.weights)
    ax, ay = np.array(x), np.array(y)
    sxx = np.sum(w * (ax - np.sum(w * ax) / np.sum(w)) ** 2)
    sse = np.sum(w * (ay - fit.intercept - fit.slope * ax) ** 2)
    t = fit.slope / math.sqrt(sse / (len(x) - 2) / sxx)
    assert fit.p_value == pytest.approx(2 * sps.t.sf(abs(t), len(x) - 2), rel=1e-9)


@pytest.mark.parametrize("method", [spearman, ols, irls_huber])
def test_constant_y_rejected_by_every_method(method):
    with pytest.raises(StatsError):
        method([1, 2, 3, 4, 5], [7, 7, 7, 7, 7])


# ------------------------------------------------------------ bands


@pytest.mark.parametrize(
    "value,label",
    [
        (0.0, "very weak"),
        (0.19, "very weak"),
        (0.20, "weak"),
        (0.39, "weak"),
        (0.40, "moderate"),
        (0.59, "moderate"),
        (0.60, "strong"),
        (0.79, "strong"),
        (0.80, "very strong"),
        (1.0, "very strong"),
        (-0.5, "moderate"),
        (-0.85, "very strong"),
    ],
)
def test_correlation_bands(value, label):
    assert correlation_band(value) == label


# ------------------------------------------------------------ result tables


def make_rows(engine, pairs, status="ok"):
    return [
        {
            "engine": engine,
            "query_id": f"q{i}",
            "status": status,
            "E_P": feature,
            "runtime_ms": runtime,
        }
        for i, (feature, runtime) in enumerate(pairs)
    ]


def test_correlate_monotone_table():
    rows = make_rows("costfed", [(0.1, 10), (0.2, 20), (0.3, 30), (0.4, 40)])
    rows += make_rows("lhd", [(0.4, 12), (0.3, 9), (0.2, 6), (0.1, 3)])
    report = correlate_results(rows, "E_P", "runtime_ms", method="spearman")
    by_engine = {r.engine: r for r in report.rows}
    assert by_engine["costfed"].coefficient == pytest.approx(1.0)
    assert by_engine["costfed"].band == "very strong"
    assert by_engine["lhd"].coefficient == pytest.approx(1.0)
    assert by_engine["average"].coefficient == pytest.approx(1.0)


def test_correlate_skips_small_engines():
    rows = make_rows("costfed", [(0.1, 10), (0.2, 20), (0.3, 30)])
    rows += make_rows("lhd", [(0.4, 12), (0.3, 9)])
    report = correlate_results(rows, "E_P", "runtime_ms")
    assert {r.engine for r in report.rows} == {"costfed", "average"}
    assert any("lhd" in w for w in report.warnings)


def test_correlate_filters_failed_rows():
    rows = make_rows("costfed", [(0.1, 10), (0.2, 20), (0.3, 30), (0.4, 40)])
    rows += make_rows("costfed", [(9.9, 1)], status="failed")
    report = correlate_results(rows, "E_P", "runtime_ms")
    engine_row = next(r for r in report.rows if r.engine == "costfed")
    assert engine_row.n == 4


def test_correlate_common_only_intersects_queries():
    rows = make_rows("costfed", [(0.1, 10), (0.2, 20), (0.3, 30), (0.4, 40)])
    lhd_rows = make_rows("lhd", [(0.1, 1), (0.2, 2), (0.3, 3), (0.4, 4)])
    lhd_rows[3]["status"] = "oracle_blowup"
    report = correlate_results(rows + lhd_rows, "E_P", "runtime_ms", common_only=True)
    for row in report.rows:
        if row.engine != "average":
            assert row.n == 3


def test_correlate_irls_reports_outliers():
    xs = [0.05 * i for i in range(10)]
    pairs = [(x, 100.0 * x) for x in xs]
    pairs[5] = (xs[5], 1e4)
    rows = make_rows("costfed", pairs)
    report = correlate_results(rows, "E_P", "runtime_ms", method="irls")
    engine_row = next(r for r in report.rows if r.engine == "costfed")
    assert "q5" in engine_row.outlier_ids


def test_correlate_unknown_method():
    with pytest.raises(StatsError):
        correlate_results([], "E_P", "runtime_ms", method="magic")


@pytest.mark.parametrize("method", METHODS)
def test_correlate_skips_engine_with_constant_runtimes(method):
    rng = random.Random(3)
    features = [rng.uniform(0, 1) for _ in range(12)]
    rows = make_rows("costfed", [(f, 100 * f + rng.uniform(0, 50)) for f in features])
    rows += make_rows("lhd", [(f, 250.0) for f in features])
    report = correlate_results(rows, "E_P", "runtime_ms", method=method)
    assert [r.engine for r in report.rows] == ["costfed", "average"]
    assert any(w.startswith("engine lhd: ") for w in report.warnings)
    for row in report.rows[:-1]:
        assert not math.isnan(row.coefficient) and row.p_value > 0


def test_correlate_leaves_scipy_stats_unloaded():
    """No method loads numpy or any scipy module: fedcard.stats is standard library only."""
    code = (
        "import sys\n"
        "from fedcard.stats import METHODS, correlate_results\n"
        "rows = [{'engine': 'e', 'query_id': f'q{i}', 'E_P': i % 7, 'runtime_ms': i} for i in range(20)]\n"
        "for method in METHODS:\n"
        "    assert correlate_results(rows, 'E_P', 'runtime_ms', method=method).rows\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fedcard.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
