"""Correlation and regression between error metrics and runtimes.

Spearman rank correlation (average ranks for ties, t-approximated p-value,
exact permutation p for n <= 10), simple least squares, and robust
regression via iteratively reweighted least squares with Huber weights
(k = 1.345, MAD-based scale). Coefficients are banded into the usual
very-weak .. very-strong classes with boundaries at 0.20/0.40/0.60/0.80.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

# scipy is imported inside the functions that use it: the import takes about
# a second, and of the CLI commands only ``correlate`` needs it.

HUBER_K = 1.345
MAD_TO_SIGMA = 0.6745
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
OUTLIER_WEIGHT_THRESHOLD = 0.95
EXACT_PERMUTATION_MAX_N = 10

BAND_BOUNDARIES = (0.20, 0.40, 0.60, 0.80)
BAND_LABELS = ("very weak", "weak", "moderate", "strong", "very strong")


class StatsError(ValueError):
    pass


@dataclass(slots=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int


@dataclass(slots=True)
class RegressionResult:
    intercept: float
    slope: float
    r: float
    p_value: float
    n: int
    weights: Optional[tuple[float, ...]] = None
    outliers: tuple[int, ...] = ()
    converged: bool = True
    iterations: int = 0


def correlation_band(coefficient: float) -> str:
    """Strength label by magnitude; the sign stays on the coefficient."""
    magnitude = abs(coefficient)
    for boundary, label in zip(BAND_BOUNDARIES, BAND_LABELS):
        if magnitude < boundary:
            return label
    return BAND_LABELS[-1]


def _as_float_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise StatsError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise StatsError(f"{name} contains non-finite entries")
    return arr


def _t_sf_two_sided(t: float, df: int) -> float:
    from scipy import stats as sps

    return float(2.0 * sps.t.sf(abs(t), df))


def _exact_spearman_p(rank_x: np.ndarray, rank_y: np.ndarray, observed_rho: float) -> float:
    """Two-sided exact permutation p-value on the rank vectors."""
    n = len(rank_x)
    cx = rank_x - rank_x.mean()
    cy = rank_y - rank_y.mean()
    denom = math.sqrt(float(np.sum(cx**2)) * float(np.sum(cy**2)))
    threshold = abs(observed_rho) * denom - 1e-12
    hits = 0
    total = 0
    # The statistic is affine in sum(cx * cy[perm]); enumerate in chunks.
    chunk = []
    for perm in itertools.permutations(range(n)):
        chunk.append(perm)
        if len(chunk) == 100_000:
            dots = np.abs(cy[np.array(chunk)] @ cx)
            hits += int(np.sum(dots >= threshold))
            total += len(chunk)
            chunk = []
    if chunk:
        dots = np.abs(cy[np.array(chunk)] @ cx)
        hits += int(np.sum(dots >= threshold))
        total += len(chunk)
    return hits / total


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

    The p-value uses the exact permutation distribution for n <= 10 and
    the t-approximation with n - 2 degrees of freedom otherwise.
    """
    ax = _as_float_array(x, "x")
    ay = _as_float_array(y, "y")
    if len(ax) != len(ay):
        raise StatsError("x and y must have equal length")
    n = len(ax)
    if n < 3:
        raise StatsError("spearman requires at least 3 points")
    from scipy import stats as sps

    rank_x = sps.rankdata(ax)
    rank_y = sps.rankdata(ay)
    if np.ptp(rank_x) == 0 or np.ptp(rank_y) == 0:
        raise StatsError("zero rank variance: input vector is constant")
    rho = float(np.corrcoef(rank_x, rank_y)[0, 1])
    rho = max(-1.0, min(1.0, rho))

    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_spearman_p(rank_x, rank_y, rho)
    elif abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _t_sf_two_sided(t, n - 2)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def ols(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Simple least squares; R is the Pearson correlation of x and y."""
    ax = _as_float_array(x, "x")
    ay = _as_float_array(y, "y")
    if len(ax) != len(ay):
        raise StatsError("x and y must have equal length")
    if len(ax) < 3:
        raise StatsError("ols requires at least 3 points")
    if np.ptp(ax) == 0:
        raise StatsError("x is constant; slope undefined")
    from scipy import stats as sps

    fit = sps.linregress(ax, ay)
    return RegressionResult(
        intercept=float(fit.intercept),
        slope=float(fit.slope),
        r=float(fit.rvalue),
        p_value=float(fit.pvalue),
        n=len(ax),
    )


def _weighted_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    sw = np.sum(w)
    mx = np.sum(w * x) / sw
    my = np.sum(w * y) / sw
    sxx = np.sum(w * (x - mx) ** 2)
    if sxx == 0:
        raise StatsError("x is constant under the current weights")
    slope = float(np.sum(w * (x - mx) * (y - my)) / sxx)
    return float(my - slope * mx), slope


def _weighted_pearson(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    sw = np.sum(w)
    mx = np.sum(w * x) / sw
    my = np.sum(w * y) / sw
    cov = np.sum(w * (x - mx) * (y - my))
    vx = np.sum(w * (x - mx) ** 2)
    vy = np.sum(w * (y - my) ** 2)
    if vx == 0 or vy == 0:
        return 0.0
    return float(cov / math.sqrt(vx * vy))


def _weighted_slope_p(x: np.ndarray, y: np.ndarray, w: np.ndarray, intercept: float, slope: float) -> float:
    n = len(x)
    if n <= 2:
        return float("nan")
    resid = y - intercept - slope * x
    sw = np.sum(w)
    mx = np.sum(w * x) / sw
    sxx = float(np.sum(w * (x - mx) ** 2))
    sse = float(np.sum(w * resid**2))
    if sse <= 0 or sxx <= 0:
        return 0.0
    se = math.sqrt(sse / (n - 2) / sxx)
    return _t_sf_two_sided(slope / se, n - 2)


def irls_huber(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Robust line fit by IRLS with Huber weights.

    Weights are ``min(1, k * sigma / |residual|)`` with k = 1.345 and
    sigma the MAD-based scale, both refreshed every iteration; the loop
    stops when no coefficient moves by more than 1e-8 (or after 50
    iterations, flagged via ``converged``). Points whose final weight
    drops below 0.95 are reported as outliers, and R is the weighted
    Pearson correlation under the final weights.
    """
    ax = _as_float_array(x, "x")
    ay = _as_float_array(y, "y")
    if len(ax) != len(ay):
        raise StatsError("x and y must have equal length")
    n = len(ax)
    if n < 4:
        raise StatsError("irls_huber requires at least 4 points")
    if np.ptp(ax) == 0:
        raise StatsError("x is constant; slope undefined")

    w = np.ones(n)
    intercept, slope = _weighted_fit(ax, ay, w)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        resid = ay - intercept - slope * ax
        # MAD about zero: residuals of an intercept model are centered.
        mad = float(np.median(np.abs(resid)))
        sigma = mad / MAD_TO_SIGMA
        if sigma == 0.0:
            w = np.ones(n)
            converged = True
            break
        with np.errstate(divide="ignore"):
            w = np.minimum(1.0, HUBER_K * sigma / np.abs(resid))
        w[~np.isfinite(w)] = 1.0
        new_intercept, new_slope = _weighted_fit(ax, ay, w)
        delta = max(abs(new_intercept - intercept), abs(new_slope - slope))
        intercept, slope = new_intercept, new_slope
        if delta < IRLS_TOL:
            converged = True
            break

    outliers = tuple(int(i) for i in np.flatnonzero(w < OUTLIER_WEIGHT_THRESHOLD))
    return RegressionResult(
        intercept=intercept,
        slope=slope,
        r=_weighted_pearson(ax, ay, w),
        p_value=_weighted_slope_p(ax, ay, w, intercept, slope),
        n=n,
        weights=tuple(float(v) for v in w),
        outliers=outliers,
        converged=converged,
        iterations=iterations,
    )


# ---------------------------------------------------------------- reports


@dataclass(slots=True)
class CorrelationRow:
    engine: str
    feature: str
    method: str
    coefficient: float
    p_value: float
    n: int
    band: str
    outlier_ids: tuple[str, ...] = ()


@dataclass(slots=True)
class CorrelationReport:
    rows: list[CorrelationRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


METHODS = ("spearman", "ols", "irls")


def correlate_results(
    rows: Iterable[dict],
    feature: str,
    target: str,
    method: str = "spearman",
    common_only: bool = False,
    min_points: int = 3,
) -> CorrelationReport:
    """Per-engine correlation between a feature column and a target column.

    Rows are dicts with at least ``engine``, ``query_id``, ``status``, the
    feature, and the target. Rows whose status is not ``ok`` are dropped;
    with ``common_only`` only queries every engine passed are kept.
    Engines with fewer than ``min_points`` usable rows are skipped with a
    warning, and an averages row is appended across the reported engines.
    """
    if method not in METHODS:
        raise StatsError(f"unknown method {method!r}; expected one of {METHODS}")
    report = CorrelationReport()
    usable = [r for r in rows if r.get("status", "ok") == "ok"]
    engines = sorted({r["engine"] for r in usable})
    if common_only and engines:
        passed: dict[str, set[str]] = {e: set() for e in engines}
        for r in usable:
            passed[r["engine"]].add(r["query_id"])
        common = set.intersection(*passed.values()) if passed else set()
        usable = [r for r in usable if r["query_id"] in common]

    coefficients = []
    for engine in engines:
        engine_rows = [r for r in usable if r["engine"] == engine]
        points = [
            (float(r[feature]), float(r[target]), str(r["query_id"]))
            for r in engine_rows
            if r.get(feature) not in (None, "") and r.get(target) not in (None, "")
        ]
        if len(points) < min_points:
            report.warnings.append(
                f"engine {engine}: only {len(points)} usable rows for {feature}, skipped"
            )
            continue
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        ids = [p[2] for p in points]
        try:
            if method == "spearman":
                res = spearman(xs, ys)
                coef, p, n, outliers = res.rho, res.p_value, res.n, ()
            elif method == "ols":
                fit = ols(xs, ys)
                coef, p, n, outliers = fit.r, fit.p_value, fit.n, ()
            else:
                fit = irls_huber(xs, ys)
                coef, p, n = fit.r, fit.p_value, fit.n
                outliers = tuple(ids[i] for i in fit.outliers)
        except StatsError as exc:
            report.warnings.append(f"engine {engine}: {exc}")
            continue
        report.rows.append(
            CorrelationRow(engine, feature, method, coef, p, n, correlation_band(coef), outliers)
        )
        coefficients.append(coef)

    if coefficients:
        avg = sum(coefficients) / len(coefficients)
        report.rows.append(
            CorrelationRow(
                engine="average",
                feature=feature,
                method=method,
                coefficient=avg,
                p_value=float("nan"),
                n=sum(r.n for r in report.rows if r.feature == feature and r.engine != "average"),
                band=correlation_band(avg),
            )
        )
    return report
