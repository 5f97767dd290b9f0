import pytest

from conftest import TOY

from fedcard.estimators import EstimationError, LhdEstimator
from fedcard.evaluation import STATUS_FAILED, evaluate_query
from fedcard.oracle import Oracle
from fedcard.query import parse_query

QUERY = f"SELECT * WHERE {{ ?x <{TOY}p> ?y . ?x <{TOY}q> ?z }}"


class RaisingEstimator(LhdEstimator):
    def __init__(self, summaries, stores, error):
        super().__init__(summaries, stores)
        self.error = error

    def tp_card(self, tp, sources=None):
        raise self.error


def _evaluate(toy1, toy1_summaries, error):
    estimator = RaisingEstimator(toy1_summaries, [toy1], error)
    return evaluate_query("q", parse_query(QUERY), estimator, [toy1], Oracle([toy1]))


def test_estimation_error_gives_failed_row(toy1, toy1_summaries):
    row = _evaluate(toy1, toy1_summaries, EstimationError("bad estimate"))
    assert row.status == STATUS_FAILED
    assert row.error == "bad estimate"
    assert row.metrics is None


def test_program_error_is_not_turned_into_a_row(toy1, toy1_summaries):
    with pytest.raises(ValueError, match="bug"):
        _evaluate(toy1, toy1_summaries, ValueError("bug"))
