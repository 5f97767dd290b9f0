from collections import defaultdict
from pathlib import Path

import pytest

from conftest import TOY

from fedcard.estimators import ENGINE_NAMES, EstimationError, LhdEstimator, make_estimator
from fedcard.evaluation import (
    STATUS_BLOWUP,
    STATUS_FAILED,
    STATUS_OK,
    evaluate_queries,
    evaluate_query,
    rows_to_csv,
)
from fedcard.expr import Leaf, join_nodes
from fedcard.fixtures import bench_queries, bench_stores
from fedcard.oracle import Oracle, true_tp_card
from fedcard.planner import PlanClass
from fedcard.query import parse_query

QUERY = f"SELECT * WHERE {{ ?x <{TOY}p> ?y . ?x <{TOY}q> ?z }}"
SINGLE = f"SELECT * WHERE {{ ?s <{TOY}p> ?o }}"
GOLDEN = Path(__file__).parent / "golden"


class RaisingEstimator(LhdEstimator):
    def __init__(self, summaries, stores, error):
        super().__init__(summaries, stores)
        self.error = error
        self.calls = 0

    def tp_card(self, tp):
        self.calls += 1
        raise self.error


class NanEstimator(LhdEstimator):
    def tp_card(self, tp):
        return float("nan")


def _evaluate(toy1, toy1_summaries, error):
    estimator = RaisingEstimator(toy1_summaries, [toy1], error)
    return evaluate_query("q", parse_query(QUERY), estimator, Oracle([toy1]))


def test_estimation_error_gives_failed_row(toy1, toy1_summaries):
    row = _evaluate(toy1, toy1_summaries, EstimationError("bad estimate"))
    assert row.status == STATUS_FAILED
    assert row.error == "bad estimate"
    assert row.metrics is None


def test_program_error_is_not_turned_into_a_row(toy1, toy1_summaries):
    with pytest.raises(ValueError, match="bug"):
        _evaluate(toy1, toy1_summaries, ValueError("bug"))


@pytest.mark.parametrize(
    "query",
    [f"SELECT * WHERE {{ ?x <{TOY}p> ?y }}", QUERY],
    ids=["one-pattern", "two-patterns"],
)
def test_invalid_leaf_estimate_gives_failed_row_on_every_run(toy1, toy1_summaries, query):
    """A NaN leaf fails where a plan walk first checks it: in the trace for one
    pattern (after planning, so num_joins is the planned 0 joins), in the
    planner's leaf estimates for two. An invalid estimate is never memoised,
    so the second row fails the same way."""
    estimator = NanEstimator(toy1_summaries, [toy1])
    bgp = parse_query(query)
    rows = [evaluate_query("q", bgp, estimator, Oracle([toy1])) for _ in range(2)]
    for row in rows:
        assert row.status == STATUS_FAILED
        assert row.num_joins == 0
        assert row.error == "estimator produced invalid cardinality nan"
        assert row.metrics is None
    assert rows[0] == rows[1]


def test_expression_card_checks_a_leaf(toy1, toy1_summaries):
    """Every node is checked where it is estimated, a leaf as much as a join."""
    estimator = NanEstimator(toy1_summaries, [toy1])
    with pytest.raises(EstimationError, match="invalid cardinality nan"):
        estimator.expression_card(Leaf(parse_query(QUERY).patterns[0]))


def test_raising_estimate_is_not_memoised(toy1, toy1_summaries):
    estimator = RaisingEstimator(toy1_summaries, [toy1], EstimationError("bad estimate"))
    plan = Leaf(parse_query(QUERY).patterns[0])
    for calls in (1, 2):
        with pytest.raises(EstimationError, match="bad estimate"):
            estimator.evaluate_plan(plan)
        assert estimator.calls == calls


@pytest.mark.parametrize("cap, status", [(2, STATUS_BLOWUP), (3, STATUS_OK)])
def test_cap_applies_to_a_one_pattern_query(toy1, toy1_summaries, cap, status):
    """toy1 has 3 triples with predicate p: the oracle counts the only
    pattern of the query, so a cap of 2 blows it up and a cap of 3 does not."""
    bgp = parse_query(SINGLE)
    for engine in ENGINE_NAMES:
        estimator = make_estimator(engine, toy1_summaries, [toy1])
        row = evaluate_query("q", bgp, estimator, Oracle([toy1], cap=cap))
        assert row.status == status
        assert row.num_joins == 0
        if status == STATUS_BLOWUP:
            assert row.plan_class is PlanClass.FAILED
            assert row.metrics is None
            assert row.error == "oracle blow-up: intermediate result of 3 bindings exceeds cap 2"
        else:
            assert row.plan_class is PlanClass.ONLY_PLAN
            assert row.trace.tp_real == (3.0,)


def test_blowup_in_classification_keeps_the_row_error(toy2, toy2_summaries):
    """The trace's nodes fit under the cap of 4, but a rival join that
    classification counts holds 6 bindings: the row says so, and its CSV
    row is the blow-up row it always was."""
    bgp = parse_query(
        f"SELECT * WHERE {{ ?a <{TOY}p> ?b . ?a <{TOY}p> ?c . ?b <{TOY}p> ?a }}"
    )
    estimator = LhdEstimator(toy2_summaries, [toy2])
    row = evaluate_query("q", bgp, estimator, Oracle([toy2], cap=4))
    assert row.status == STATUS_BLOWUP
    assert row.plan_class is PlanClass.FAILED
    assert row.num_joins == 2
    assert row.error == "oracle blow-up: intermediate result of 6 bindings exceeds cap 4"
    assert row.csv_fields() == [
        "q", "lhd", "", "", "", "", "", "", "Failed", "3", "2", "3", "false", "oracle_blowup"
    ]


def test_rows_keep_plan_and_trace_counted_by_the_query_oracle():
    """Every bench row keeps its plan and trace; the trace's real counts are
    the query oracle's, its leaf vector is the same for the query's five
    engines, and the CSV projected from the rows is the golden one."""
    stores = bench_stores()
    rows = evaluate_queries(bench_queries(), ENGINE_NAMES, stores)
    assert rows_to_csv(rows) == (GOLDEN / "bench_results.csv").read_text(encoding="utf-8")

    by_query = defaultdict(list)
    for row in rows:
        by_query[row.query_id].append(row)
    for query_rows in by_query.values():
        assert [row.status for row in query_rows] == [STATUS_OK] * len(ENGINE_NAMES)
        oracle = Oracle(stores)
        for row in query_rows:
            tps = sorted(row.plan.patterns, key=lambda tp: tp.ordinal)
            assert row.trace.tp_real == tuple(float(true_tp_card(tp, stores)) for tp in tps)
            nodes = join_nodes(row.plan)
            assert row.trace.join_real == tuple(float(oracle.cardinality(n)) for n in nodes)
            assert row.num_joins == len(row.trace.join_real)
        assert len({row.trace.tp_real for row in query_rows}) == 1
