"""Per-(query, engine) evaluation rows and their CSV serialization.

The results-CSV header and readers live in ``fedcard.results``; this
module re-exports them for callers that import them from here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from .estimators import CardinalityEstimator, Engine, make_estimator
from .estimators.base import EstimationError
from .expr import Expression, join_nodes
from .metrics import MetricBundle, bundle
from .oracle import CardinalityTrace, Oracle, OracleBlowupError, trace_plan
from .planner import PlanClass, classify_plan, greedy_left_deep_plan, tp_sources_count
from .query import BasicGraphPattern, QueryParseError, parse_query
from .results import RESULTS_HEADER, read_results_csv, read_runtimes_csv  # noqa: F401
from .store import TripleStore
from .summaries import SummarySet, build_all

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_BLOWUP = "oracle_blowup"


@dataclass(slots=True)
class EvalRow:
    """One (query, engine) record; its results-CSV row is a projection of it."""

    query_id: str
    engine: str
    status: str = STATUS_OK
    metrics: Optional[MetricBundle] = None
    plan_class: Optional[PlanClass] = None
    num_tp: int = 0
    tp_sources: int = 0
    plan: Optional[Expression] = None
    trace: Optional[CardinalityTrace] = None
    error: str = ""

    @property
    def num_joins(self) -> int:
        return len(join_nodes(self.plan)) if self.plan is not None else 0

    @property
    def fallback_used(self) -> bool:
        return self.trace is not None and self.trace.fallback_used

    def csv_fields(self) -> list[str]:
        def real(value: Optional[float]) -> str:
            return "" if value is None else f"{value:.6g}"

        m = self.metrics
        return [
            self.query_id,
            self.engine,
            real(m.e_tp if m else None),
            real(m.e_join if m else None),
            real(m.e_plan if m else None),
            real(m.q_tp if m else None),
            real(m.q_join if m else None),
            real(m.q_plan if m else None),
            self.plan_class.value if self.plan_class else "Failed",
            str(self.num_tp),
            str(self.num_joins),
            str(self.tp_sources),
            str(self.fallback_used).lower(),
            self.status,
        ]


def evaluate_query(
    query_id: str,
    bgp: BasicGraphPattern,
    estimator: CardinalityEstimator,
    oracle: Oracle,
) -> EvalRow:
    """One row, keeping its plan and trace (if reached), class, #T, error, and ``ok`` metrics."""
    row = EvalRow(
        query_id=query_id,
        engine=estimator.name,
        num_tp=len(bgp.patterns),
        tp_sources=tp_sources_count(bgp, estimator),
    )
    try:
        row.plan = greedy_left_deep_plan(bgp, estimator.expression_card)
        row.trace = trace_plan(row.plan, estimator, oracle, query_id=query_id)
        row.plan_class = classify_plan(row.plan, oracle.cardinality)
    except OracleBlowupError as exc:
        row.status, row.plan_class, row.error = STATUS_BLOWUP, PlanClass.FAILED, str(exc)
    except EstimationError as exc:
        row.status, row.plan_class, row.error = STATUS_FAILED, PlanClass.FAILED, str(exc)
    else:
        row.metrics = bundle(row.trace)
    return row


def evaluate_queries(
    queries: dict[str, str],
    engines: Sequence[Union[Engine, str]],
    stores: Sequence[TripleStore],
    summaries: Optional[SummarySet] = None,
    cap: Optional[int] = None,
) -> list[EvalRow]:
    """Rows for every (query, engine) pair, sorted by (query_id, engine).

    Query text that fails to parse produces one failed row per engine.
    The oracle cache is shared per query across engines.
    """
    if summaries is None:
        summaries = build_all(stores)
    estimators = [make_estimator(engine, summaries, stores) for engine in engines]

    rows: list[EvalRow] = []
    for query_id in sorted(queries):
        try:
            bgp = parse_query(queries[query_id])
        except QueryParseError as exc:
            for est in estimators:
                rows.append(
                    EvalRow(
                        query_id=query_id,
                        engine=est.name,
                        status=STATUS_FAILED,
                        plan_class=PlanClass.FAILED,
                        error=str(exc),
                    )
                )
            continue
        oracle = Oracle(stores, cap)
        for est in estimators:
            rows.append(evaluate_query(query_id, bgp, est, oracle))
    rows.sort(key=lambda r: (r.query_id, r.engine))
    return rows


def rows_to_csv(rows: Sequence[EvalRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RESULTS_HEADER.split(","))
    for row in rows:
        writer.writerow(row.csv_fields())
    return out.getvalue()


def write_results_csv(rows: Sequence[EvalRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8")
