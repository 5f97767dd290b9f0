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


def _validate(real: Sequence[float], est: Sequence[float]) -> None:
    if len(real) != len(est):
        raise ValueError(f"vector length mismatch: {len(real)} vs {len(est)}")
    if not real:
        raise ValueError("vectors must not be empty")
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


def _clamped_q_error(real: Sequence[float], est: Sequence[float]) -> float:
    """q-error with the zero counts on both sides clamped to 1."""
    return q_error(clamp_positive(real)[0], clamp_positive(est)[0])


@dataclass(slots=True)
class MetricBundle:
    """Per-query error metrics of one engine's plan."""

    q_tp: float
    q_join: float
    q_plan: float
    e_tp: float
    e_join: float
    e_plan: float


def bundle(trace: CardinalityTrace) -> MetricBundle:
    """All six metrics from one trace.

    Queries without join nodes get q_join = 1 and e_join = 0.
    """
    if not trace.tp_real:
        raise ValueError("trace has no triple-pattern entries")
    q_tp = _clamped_q_error(trace.tp_real, trace.tp_est)
    e_tp = similarity_error(trace.tp_real, trace.tp_est)

    if trace.join_real:
        q_join = _clamped_q_error(trace.join_real, trace.join_est)
        e_join = similarity_error(trace.join_real, trace.join_est)
    else:
        q_join = 1.0
        e_join = 0.0

    # The plan vector is the two vectors end to end, so its worst ratio is
    # the worse of theirs (q_join is 1 without joins).
    q_plan = max(q_tp, q_join)
    e_plan = similarity_error(
        tuple(trace.tp_real) + tuple(trace.join_real), tuple(trace.tp_est) + tuple(trace.join_est)
    )
    return MetricBundle(
        q_tp=q_tp, q_join=q_join, q_plan=q_plan, e_tp=e_tp, e_join=e_join, e_plan=e_plan
    )
