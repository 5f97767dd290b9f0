"""Correlation and regression between error metrics and runtimes.

Spearman rank correlation (average ranks for ties, exact permutation p for
n <= 10), simple least squares, and robust regression via iteratively
reweighted least squares with Huber weights (k = 1.345, MAD-based scale).
All three take R and its p-value from one weighted Pearson kernel: unit
weights on the ranks, unit weights on the values, and the final IRLS
weights. Coefficients are banded into the usual very-weak .. very-strong
classes with boundaries at 0.20/0.40/0.60/0.80.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

# Only ``scipy.special`` is used, for the t distribution, and it is imported
# where the p-value is computed: of the CLI commands only ``correlate``
# needs it.

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


def _paired(
    x: Sequence[float], y: Sequence[float], minimum: int, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """x and y as finite one-dimensional float arrays of equal length >= minimum."""
    ax, ay = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    for arr, label in ((ax, "x"), (ay, "y")):
        if arr.ndim != 1:
            raise StatsError(f"{label} must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise StatsError(f"{label} contains non-finite entries")
    if len(ax) != len(ay):
        raise StatsError("x and y must have equal length")
    if len(ax) < minimum:
        raise StatsError(f"{name} requires at least {minimum} points")
    return ax, ay


def _correlation(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Weighted Pearson R of x and y, and the two-sided p of its t-test.

    t = R * sqrt((n - 2) / (1 - R^2)) equals the t of the weighted
    least-squares slope, so this p is also the slope's; p = 0 when |R| = 1.
    """
    sw = np.sum(w)
    cx = x - np.sum(w * x) / sw
    cy = y - np.sum(w * y) / sw
    vy = np.sum(w * cy**2)
    if vy == 0:
        raise StatsError("y is constant; correlation undefined")
    r = float(np.sum(w * cx * cy) / math.sqrt(np.sum(w * cx**2) * vy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    from scipy.special import stdtr

    n = len(x)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, float(2.0 * stdtr(n - 2, -abs(t)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


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
    perms = itertools.permutations(range(n))
    while chunk := list(itertools.islice(perms, 100_000)):
        dots = np.abs(cy[np.array(chunk)] @ cx)
        hits += int(np.sum(dots >= threshold))
        total += len(chunk)
    return hits / total


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

    The p-value uses the exact permutation distribution for n <= 10 and
    the t-approximation with n - 2 degrees of freedom otherwise.
    """
    ax, ay = _paired(x, y, 3, "spearman")
    n = len(ax)
    rank_x = _average_ranks(ax)
    rank_y = _average_ranks(ay)
    if np.ptp(rank_x) == 0 or np.ptp(rank_y) == 0:
        raise StatsError("zero rank variance: input vector is constant")
    rho, p = _correlation(rank_x, rank_y, np.ones(n))
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_spearman_p(rank_x, rank_y, rho)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def ols(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Simple least squares; R is the Pearson correlation of x and y."""
    ax, ay = _paired(x, y, 3, "ols")
    if np.ptp(ax) == 0:
        raise StatsError("x is constant; slope undefined")
    w = np.ones(len(ax))
    intercept, slope = _weighted_fit(ax, ay, w)
    r, p = _correlation(ax, ay, w)
    return RegressionResult(intercept=intercept, slope=slope, r=r, p_value=p, n=len(ax))


def _weighted_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    sw = np.sum(w)
    mx = np.sum(w * x) / sw
    my = np.sum(w * y) / sw
    sxx = np.sum(w * (x - mx) ** 2)
    if sxx == 0:
        raise StatsError("x is constant under the current weights")
    slope = float(np.sum(w * (x - mx) * (y - my)) / sxx)
    return float(my - slope * mx), slope


def irls_huber(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Robust line fit by IRLS with Huber weights.

    Weights are ``min(1, k * sigma / |residual|)`` with k = 1.345 and
    sigma the MAD-based scale, both refreshed every iteration; the loop
    stops when no coefficient moves by more than 1e-8 (or after 50
    iterations, flagged via ``converged``). Points whose final weight
    drops below 0.95 are reported as outliers, and R is the weighted
    Pearson correlation under the final weights.
    """
    ax, ay = _paired(x, y, 4, "irls_huber")
    n = len(ax)
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
    r, p = _correlation(ax, ay, w)
    return RegressionResult(
        intercept=intercept,
        slope=slope,
        r=r,
        p_value=p,
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
    # Engines with enough rows that the method rejected (a constant feature or target).
    rejected: list[str] = field(default_factory=list)


METHODS = ("spearman", "ols", "irls")


def correlate_results(
    rows: Iterable[dict],
    feature: str,
    target: str,
    method: str = "spearman",
    common_only: bool = False,
) -> CorrelationReport:
    """Per-engine correlation between a feature column and a target column.

    Rows are dicts with at least ``engine``, ``query_id``, ``status``, the
    feature, and the target. Rows whose status is not ``ok`` are dropped;
    with ``common_only`` only queries every engine passed are kept.
    Engines with fewer than 3 usable rows, or whose rows the method rejects
    (a constant feature or target), are skipped with a warning; the latter
    are also listed in ``rejected``. An averages row is appended across the
    reported engines.
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

    for engine in engines:
        engine_rows = [r for r in usable if r["engine"] == engine]
        points = [
            (float(r[feature]), float(r[target]), str(r["query_id"]))
            for r in engine_rows
            if r.get(feature) not in (None, "") and r.get(target) not in (None, "")
        ]
        if len(points) < 3:
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
            else:
                fit = (ols if method == "ols" else irls_huber)(xs, ys)
                coef, p, n = fit.r, fit.p_value, fit.n
                outliers = tuple(ids[i] for i in fit.outliers)
        except StatsError as exc:
            report.warnings.append(f"engine {engine}: {exc}")
            report.rejected.append(engine)
            continue
        report.rows.append(
            CorrelationRow(engine, feature, method, coef, p, n, correlation_band(coef), outliers)
        )

    if report.rows:
        avg = sum(r.coefficient for r in report.rows) / len(report.rows)
        report.rows.append(
            CorrelationRow(
                engine="average",
                feature=feature,
                method=method,
                coefficient=avg,
                p_value=float("nan"),
                n=sum(r.n for r in report.rows),
                band=correlation_band(avg),
            )
        )
    return report
