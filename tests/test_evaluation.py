import pytest

from conftest import TOY

from fedcard.estimators import EstimationError, LhdEstimator
from fedcard.evaluation import STATUS_FAILED, evaluate_query
from fedcard.expr import Leaf
from fedcard.oracle import Oracle
from fedcard.query import parse_query

QUERY = f"SELECT * WHERE {{ ?x <{TOY}p> ?y . ?x <{TOY}q> ?z }}"


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
    planner's first join estimate for two. The memoised NaN fails again."""
    estimator = NanEstimator(toy1_summaries, [toy1])
    bgp = parse_query(query)
    rows = [evaluate_query("q", bgp, estimator, Oracle([toy1])) for _ in range(2)]
    for row in rows:
        assert row.status == STATUS_FAILED
        assert row.num_joins == 0
        assert row.error == "estimator produced invalid cardinality nan"
        assert row.metrics is None
    assert rows[0] == rows[1]


def test_raising_estimate_is_not_memoised(toy1, toy1_summaries):
    estimator = RaisingEstimator(toy1_summaries, [toy1], EstimationError("bad estimate"))
    plan = Leaf(parse_query(QUERY).patterns[0])
    for calls in (1, 2):
        with pytest.raises(EstimationError, match="bad estimate"):
            estimator.evaluate_plan(plan)
        assert estimator.calls == calls
