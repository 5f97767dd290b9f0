"""Correlation and regression between error metrics and runtimes.

Spearman rank correlation (average ranks for ties, exact permutation p for
n <= 10), simple least squares, and robust regression via iteratively
reweighted least squares with Huber weights (k = 1.345, MAD-based scale).
All three take R and its p-value from one weighted Pearson kernel: unit
weights on the ranks, unit weights on the values, and the final IRLS
weights. Coefficients are banded into the usual very-weak .. very-strong
classes with boundaries at 0.20/0.40/0.60/0.80.

Only the standard library is used: the t tail comes from the regularized
incomplete beta function, and the exact Spearman p from a dynamic program
over integer (doubled) ranks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

HUBER_K = 1.345
MAD_TO_SIGMA = 0.6745
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
OUTLIER_WEIGHT_THRESHOLD = 0.95
EXACT_PERMUTATION_MAX_N = 10

BAND_BOUNDARIES = (0.20, 0.40, 0.60, 0.80)
BAND_LABELS = ("very weak", "weak", "moderate", "strong", "very strong")

# Modified Lentz: stop once a factor is within BETA_EPS of 1; BETA_TINY
# stands in for a zero denominator.
BETA_EPS = 1e-16
BETA_TINY = 1e-300
BETA_MAX_ITER = 10_000
# From here up, log B(a, b) takes lgamma(a + b) - lgamma(a) from Stirling's
# series; the first term it leaves out, 691 / (360360 z^11), is below 1e-17.
STIRLING_MIN = 20.0


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


def _floats(values: Iterable[float], label: str) -> list[float]:
    try:
        out = [float(v) for v in values]
    except TypeError:  # a scalar, or an entry that is itself a sequence
        raise StatsError(f"{label} must be one-dimensional") from None
    if not all(map(math.isfinite, out)):
        raise StatsError(f"{label} contains non-finite entries")
    return out


def _paired(
    x: Sequence[float], y: Sequence[float], minimum: int, name: str
) -> tuple[list[float], list[float]]:
    """x and y as finite float lists of equal length >= minimum."""
    xs, ys = _floats(x, "x"), _floats(y, "y")
    if len(xs) != len(ys):
        raise StatsError("x and y must have equal length")
    if len(xs) < minimum:
        raise StatsError(f"{name} requires at least {minimum} points")
    return xs, ys


def _is_constant(values: Sequence[float]) -> bool:
    return max(values) == min(values)


def _median(values: Sequence[float]) -> float:
    """The middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _stirling_remainder(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= STIRLING_MIN."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w * (1.0 / 1680 - w / 1188)))) / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), accurate when the larger argument is large.

    lgamma(a + b) - lgamma(a) cancels for large a and keeps about 1e-16 of
    lgamma(a) as error. Stirling's formula gives the difference directly:
    b log a + (a + b - 1/2) log1p(b / a) - b plus the remainders' difference.
    """
    small, large = min(a, b), max(a, b)
    if large < STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_ratio = (  # lgamma(large + small) - lgamma(large)
        small * math.log(large)
        + (large + small - 0.5) * math.log1p(small / large)
        - small
        + _stirling_remainder(large + small)
        - _stirling_remainder(large)
    )
    return math.lgamma(small) - log_ratio


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, with y = 1 - x.

    y is passed separately so that a caller can supply it without the
    cancellation of 1 - x; log x near x = 1 is taken as log1p(-y), and
    log y near y = 1 as log1p(-x). The continued fraction (modified Lentz)
    converges fast for x < (a + 1) / (a + b + 2); above that
    I_x(a, b) = 1 - I_y(b, a).
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _regularized_beta(b, a, y, x)
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    log_front = a * log_x + b * log_y - _log_beta(a, b)

    def odd_denominator(m: int) -> float:
        """1 - (a + m)(a + b + m) x / ((a + 2m)(a + 2m + 1)): one plus the
        odd partial numerator. For x near 1 the subtraction would lose about
        log10(1 / y) digits, so it is written in y, as
        (a (2m + 1 - b) + m (3m + 2 - b) + (a + m)(a + b + m) y) / (...)."""
        top, bottom = (a + m) * (a + b + m), (a + 2 * m) * (a + 2 * m + 1)
        if x > 0.5:
            return (a * (2 * m + 1 - b) + m * (3 * m + 2 - b) + top * y) / bottom
        return 1.0 - top * x / bottom

    # Modified Lentz over pairs of steps, the even then the odd one: with
    # u = even * d and v = even / c, the pair multiplies the fraction by
    # (odd + v) / (odd + u) and leaves c = (odd + v) / (1 + v) and
    # d = (1 + u) / (odd + u), where odd is odd_denominator(m); so the odd
    # numerator is needed only as one plus itself.
    d = odd_denominator(0)
    c, d = 1.0, 1.0 / (d if abs(d) > BETA_TINY else BETA_TINY)
    fraction = d
    for m in range(1, BETA_MAX_ITER + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = odd_denominator(m)
        u, v = even * d, even / c
        below, over = odd + u, 1.0 + v
        below = below if abs(below) > BETA_TINY else BETA_TINY
        over = over if abs(over) > BETA_TINY else BETA_TINY
        factor = (odd + v) / below
        fraction *= factor
        c, d = (odd + v) / over, (1.0 + u) / below
        c = c if abs(c) > BETA_TINY else BETA_TINY
        if abs(factor - 1.0) < BETA_EPS:
            return math.exp(log_front) * fraction / a
    raise StatsError(f"incomplete beta I_x({a}, {b}) did not converge at x = {x}")


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is I_x(df / 2, 1 / 2) at x = df / (df + t^2).
    """
    t2 = t * t
    return _regularized_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _correlation(x: list[float], y: list[float], w: list[float]) -> tuple[float, float]:
    """Weighted Pearson R of x and y, and the two-sided p of its t-test.

    t = R * sqrt((n - 2) / (1 - R^2)) equals the t of the weighted
    least-squares slope, so this p is also the slope's; p = 0 when |R| = 1.
    """
    sw = math.fsum(w)
    mx = math.fsum(wi * xi for wi, xi in zip(w, x)) / sw
    my = math.fsum(wi * yi for wi, yi in zip(w, y)) / sw
    cx = [xi - mx for xi in x]
    cy = [yi - my for yi in y]
    vy = math.fsum(wi * c * c for wi, c in zip(w, cy))
    if vy == 0:
        raise StatsError("y is constant; correlation undefined")
    vx = math.fsum(wi * c * c for wi, c in zip(w, cx))
    r = math.fsum(wi * a * b for wi, a, b in zip(w, cx, cy)) / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    n = len(x)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, _t_two_sided_p(t, n - 2)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for i in order[start:end]:  # positions start..end-1 hold ranks start+1..end
            ranks[i] = (start + 1 + end) / 2.0
        start = end
    return ranks


def _exact_spearman_p(rank_x: list[float], rank_y: list[float], observed_rho: float) -> float:
    """Two-sided exact permutation p-value on the rank vectors.

    Doubled average ranks are integers, and the statistic is affine in
    S = sum((2 r_x) (2 r_y[perm])): sum(c_x c_y[perm]) = (S - n (n + 1)^2) / 4.
    A dynamic program over the set of y positions used so far counts the
    permutations reaching each partial S: 2^n sets instead of n! orderings.
    """
    n = len(rank_x)
    mean = (n + 1) / 2.0
    denom = math.sqrt(
        math.fsum((r - mean) ** 2 for r in rank_x) * math.fsum((r - mean) ** 2 for r in rank_y)
    )
    bound = 4.0 * (abs(observed_rho) * denom - 1e-12)
    doubled_x = [int(2 * r) for r in rank_x]
    doubled_y = [int(2 * r) for r in rank_y]
    # level[mask] counts the ways to give x positions 0..i-1 the y positions
    # in mask, by their partial S.
    level: dict[int, dict[int, int]] = {0: {0: 1}}
    for rx in doubled_x:
        following: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for mask, sums in level.items():
            for j, ry in enumerate(doubled_y):
                if mask >> j & 1:
                    continue
                target = following[mask | 1 << j]
                step = rx * ry
                for s, count in sums.items():
                    target[s + step] += count
        level = following
    (sums,) = level.values()
    centre = n * (n + 1) ** 2
    hits = sum(count for s, count in sums.items() if abs(s - centre) >= bound)
    return hits / math.factorial(n)


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

    The p-value uses the exact permutation distribution for n <= 10 and
    the t-approximation with n - 2 degrees of freedom otherwise.
    """
    xs, ys = _paired(x, y, 3, "spearman")
    n = len(xs)
    rank_x = _average_ranks(xs)
    rank_y = _average_ranks(ys)
    if _is_constant(rank_x) or _is_constant(rank_y):
        raise StatsError("zero rank variance: input vector is constant")
    rho, p = _correlation(rank_x, rank_y, [1.0] * n)
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_spearman_p(rank_x, rank_y, rho)
    return CorrelationResult(rho=rho, p_value=p, n=n)


def ols(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Simple least squares; R is the Pearson correlation of x and y."""
    xs, ys = _paired(x, y, 3, "ols")
    if _is_constant(xs):
        raise StatsError("x is constant; slope undefined")
    w = [1.0] * len(xs)
    intercept, slope = _weighted_fit(xs, ys, w)
    r, p = _correlation(xs, ys, w)
    return RegressionResult(intercept=intercept, slope=slope, r=r, p_value=p, n=len(xs))


def _weighted_fit(x: list[float], y: list[float], w: list[float]) -> tuple[float, float]:
    sw = math.fsum(w)
    mx = math.fsum(wi * xi for wi, xi in zip(w, x)) / sw
    my = math.fsum(wi * yi for wi, yi in zip(w, y)) / sw
    sxx = math.fsum(wi * (xi - mx) ** 2 for wi, xi in zip(w, x))
    if sxx == 0:
        raise StatsError("x is constant under the current weights")
    slope = math.fsum(wi * (xi - mx) * (yi - my) for wi, xi, yi in zip(w, x, y)) / sxx
    return my - slope * mx, slope


def irls_huber(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Robust line fit by IRLS with Huber weights.

    Weights are ``min(1, k * sigma / |residual|)`` with k = 1.345 and
    sigma the MAD-based scale, both refreshed every iteration; the loop
    stops when no coefficient moves by more than 1e-8 (or after 50
    iterations, flagged via ``converged``). Points whose final weight
    drops below 0.95 are reported as outliers, and R is the weighted
    Pearson correlation under the final weights.
    """
    xs, ys = _paired(x, y, 4, "irls_huber")
    n = len(xs)
    if _is_constant(xs):
        raise StatsError("x is constant; slope undefined")

    w = [1.0] * n
    intercept, slope = _weighted_fit(xs, ys, w)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        abs_resid = [abs(yi - intercept - slope * xi) for xi, yi in zip(xs, ys)]
        # MAD about zero: residuals of an intercept model are centered.
        sigma = _median(abs_resid) / MAD_TO_SIGMA
        if sigma == 0.0:
            w = [1.0] * n
            converged = True
            break
        w = [min(1.0, HUBER_K * sigma / a) if a else 1.0 for a in abs_resid]
        new_intercept, new_slope = _weighted_fit(xs, ys, w)
        delta = max(abs(new_intercept - intercept), abs(new_slope - slope))
        intercept, slope = new_intercept, new_slope
        if delta < IRLS_TOL:
            converged = True
            break

    outliers = tuple(i for i, wi in enumerate(w) if wi < OUTLIER_WEIGHT_THRESHOLD)
    r, p = _correlation(xs, ys, w)
    return RegressionResult(
        intercept=intercept,
        slope=slope,
        r=r,
        p_value=p,
        n=n,
        weights=tuple(w),
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
