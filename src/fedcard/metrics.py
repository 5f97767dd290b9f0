"""Cardinality-error metrics: q-error and similarity errors.

The q-error of an estimate vector is the worst per-entry ratio
``max(e_i/r_i, r_i/e_i)``; it is at least 1 and treats over- and
underestimation symmetrically. The similarity error is
``norm(r - e) / (norm(r) + norm(e))`` and lies in [0, 1], reaching 0 only
for a perfect estimate. Both are computed over the triple-pattern vector,
the join vector, and their concatenation (the whole plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .oracle import CardinalityTrace


def _validate(real: Sequence[float], est: Sequence[float], minimum_length: int = 1) -> None:
    if len(real) != len(est):
        raise ValueError(f"vector length mismatch: {len(real)} vs {len(est)}")
    if len(real) < minimum_length:
        raise ValueError(f"vectors must have at least {minimum_length} entries")
    for v in (*real, *est):
        if not math.isfinite(v):
            raise ValueError(f"non-finite entry {v!r}")


def q_error(real: Sequence[float], est: Sequence[float]) -> float:
    """Maximum symmetric ratio between paired entries; requires positives.

    Zero counts must be clamped by the caller (see ``bundle``).
    """
    _validate(real, est)
    worst = 1.0
    for r, e in zip(real, est):
        if r <= 0 or e <= 0:
            raise ValueError("q-error requires positive entries; clamp zeros first")
        worst = max(worst, e / r, r / e)
    return worst


def similarity_error(real: Sequence[float], est: Sequence[float]) -> float:
    """Euclidean-norm ratio in [0, 1]; two all-zero vectors compare as 0."""
    _validate(real, est)
    diff = math.sqrt(sum((r - e) ** 2 for r, e in zip(real, est)))
    denom = math.sqrt(sum(r * r for r in real)) + math.sqrt(sum(e * e for e in est))
    if denom == 0.0:
        return 0.0
    return diff / denom


def clamp_positive(values: Sequence[float]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Clamp entries to at least 1 for q-error; returns (vector, clamped indexes)."""
    out = []
    clamped = []
    for i, v in enumerate(values):
        if v < 1.0:
            out.append(1.0)
            clamped.append(i)
        else:
            out.append(float(v))
    return tuple(out), tuple(clamped)


@dataclass(slots=True)
class MetricBundle:
    """Per-query error metrics of one engine's plan."""

    query_id: str
    engine: str
    q_tp: float
    q_join: float
    q_plan: float
    e_tp: float
    e_join: float
    e_plan: float
    # Diagnostics: vector positions whose zero counts were clamped to 1
    # before the ratio, and whether the query had no local joins.
    clamped_tp: tuple[int, ...] = ()
    clamped_join: tuple[int, ...] = ()
    no_joins: bool = False


def bundle(trace: CardinalityTrace) -> MetricBundle:
    """All six metrics from one trace.

    Queries without join nodes get q_join = 1 and e_join = 0 and are
    flagged via ``no_joins`` so correlation runs can exclude them.
    """
    if not trace.tp_real:
        raise ValueError("trace has no triple-pattern entries")
    tp_real_c, clamped_r = clamp_positive(trace.tp_real)
    tp_est_c, clamped_e = clamp_positive(trace.tp_est)
    clamped_tp = tuple(sorted(set(clamped_r) | set(clamped_e)))

    q_tp = q_error(tp_real_c, tp_est_c)
    e_tp = similarity_error(trace.tp_real, trace.tp_est)

    if trace.join_real:
        join_real_c, jclamped_r = clamp_positive(trace.join_real)
        join_est_c, jclamped_e = clamp_positive(trace.join_est)
        clamped_join = tuple(sorted(set(jclamped_r) | set(jclamped_e)))
        q_join = q_error(join_real_c, join_est_c)
        e_join = similarity_error(trace.join_real, trace.join_est)
        no_joins = False
    else:
        clamped_join = ()
        q_join = 1.0
        e_join = 0.0
        no_joins = True

    # The plan vector is the two vectors end to end, so its worst ratio is
    # the worse of theirs (q_join is 1 without joins).
    q_plan = max(q_tp, q_join)
    e_plan = similarity_error(
        tuple(trace.tp_real) + tuple(trace.join_real), tuple(trace.tp_est) + tuple(trace.join_est)
    )

    return MetricBundle(
        query_id=trace.query_id,
        engine=trace.engine,
        q_tp=q_tp,
        q_join=q_join,
        q_plan=q_plan,
        e_tp=e_tp,
        e_join=e_join,
        e_plan=e_plan,
        clamped_tp=clamped_tp,
        clamped_join=clamped_join,
        no_joins=no_joins,
    )
