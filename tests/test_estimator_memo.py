"""Estimators memoise node estimates and source selections per instance.

The memos must change how often a hook runs, never what it returns: a
warmed estimator gives the results of a fresh one, and the CLI (one
estimator for every query) writes the bytes of one estimator per query.
"""

import sys
from collections import Counter

import pytest

from conftest import tp

from fedcard.estimators import (
    ENGINE_NAMES,
    CostFedEstimator,
    LhdEstimator,
    OdysseyEstimator,
    SemaGrowEstimator,
    SplendidEstimator,
    make_estimator,
    select_sources,
)
from fedcard.estimators import base as estimators_base
from fedcard.evaluation import evaluate_queries, evaluate_query, rows_to_csv
from fedcard.expr import join_nodes, leaves
from fedcard.fixtures import bench_queries, bench_stores
from fedcard.oracle import Oracle
from fedcard.planner import greedy_left_deep_plan
from fedcard.query import parse_query
from fedcard.summaries import build_all


@pytest.fixture(scope="module")
def bench():
    stores = bench_stores()
    queries = bench_queries()
    return stores, build_all(stores), queries


def test_sources_for_selects_by_slots(toy_ab, toy_ab_summaries):
    """The memo keys by the pattern's shape (a repeated variable included),
    never by ordinal or predicate alone."""
    estimator = make_estimator("lhd", toy_ab_summaries, toy_ab)
    patterns = [
        tp("?x", "q", "?y", 0),
        tp("?x", "q", "o3", 0),
        tp("u", "q", "?y", 0),
        tp("?x", "q", "?x", 0),
        tp("?x", "q", "?y", 1),
    ]
    expected = [{"A", "B"}, {"A"}, {"B"}, set(), {"A", "B"}]
    for _ in range(2):
        assert [estimator.sources_for(pattern) for pattern in patterns] == expected
    assert [select_sources(pattern, toy_ab) for pattern in patterns] == expected


def test_sources_for_selects_once_per_shape(toy_ab, toy_ab_summaries, monkeypatch):
    """Patterns that differ only in their variable names share one selection."""
    calls = []
    original = estimators_base.select_sources

    def counting_select_sources(pattern, stores):
        calls.append(pattern)
        return original(pattern, stores)

    monkeypatch.setattr(estimators_base, "select_sources", counting_select_sources)
    estimator = make_estimator("lhd", toy_ab_summaries, toy_ab)
    first = estimator.sources_for(tp("?s", "q", "?o", 0))
    assert estimator.sources_for(tp("?x", "q", "?y", 1)) is first
    assert len(calls) == 1
    assert estimator.sources_for(tp("?x", "q", "?x", 1)) == set()
    assert len(calls) == 2


def _plan_and_estimates(estimator, bgp):
    plan = greedy_left_deep_plan(bgp, estimator.expression_card)
    return plan, estimator.evaluate_plan(plan)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_warmed_estimator_plans_and_estimates_like_a_fresh_one(bench, engine):
    """On one estimator per order, each query runs once after the queries before
    it and once more after all of them; both runs must plan and estimate as a
    fresh estimator does."""
    stores, summaries, queries = bench
    bgps = {qid: parse_query(text) for qid, text in queries.items()}
    fresh = {
        qid: _plan_and_estimates(make_estimator(engine, summaries, stores), bgp)
        for qid, bgp in bgps.items()
    }
    for order in (sorted(bgps), sorted(bgps, reverse=True)):
        warmed = make_estimator(engine, summaries, stores)
        for qid in order:
            assert _plan_and_estimates(warmed, bgps[qid]) == fresh[qid], qid
        for qid in order:
            assert _plan_and_estimates(warmed, bgps[qid]) == fresh[qid], qid


def test_one_estimator_for_all_queries_writes_the_csv_of_one_per_query(bench):
    stores, summaries, queries = bench
    together = rows_to_csv(evaluate_queries(queries, ENGINE_NAMES, stores, summaries))
    rows = together.splitlines(keepends=True)[1:]
    apart = [
        line
        for qid in sorted(queries)
        for line in rows_to_csv(
            evaluate_queries({qid: queries[qid]}, ENGINE_NAMES, stores, summaries)
        ).splitlines(keepends=True)[1:]
    ]
    assert len(rows) == len(queries) * len(ENGINE_NAMES)
    assert rows == apart


def _counting(cls):
    class Counting(cls):
        def __init__(self, summaries, stores):
            super().__init__(summaries, stores)
            self.leaf_calls = Counter()
            self.join_calls = Counter()

        def _leaf_card_flagged(self, pattern):
            self.leaf_calls[pattern] += 1
            return super()._leaf_card_flagged(pattern)

        def _join_card_flagged(self, node, left_card, right_card):
            self.join_calls[node] += 1
            return super()._join_card_flagged(node, left_card, right_card)

    return Counting


# One 3-pattern query of each bench shape: star, path, star with a ground
# object (Odyssey's fallback leaf), star plus an outgoing hop.
THREE_PATTERN_QUERIES = ["q01", "q03", "q04", "q05"]


ESTIMATOR_CLASSES = [
    CostFedEstimator,
    SplendidEstimator,
    LhdEstimator,
    SemaGrowEstimator,
    OdysseyEstimator,
]


@pytest.mark.parametrize("qid", THREE_PATTERN_QUERIES)
@pytest.mark.parametrize("cls", ESTIMATOR_CLASSES, ids=lambda cls: cls.engine.value)
def test_plan_and_trace_estimate_each_node_once(bench, monkeypatch, cls, qid):
    """A whole row (plan, trace, classification and #T) estimates each node and
    selects each pattern shape's sources once, wherever ``select_sources`` is
    bound. q05's ``?s linksTo ?a`` and ``?s linksTo ?t`` share one selection."""
    stores, summaries, queries = bench
    bgp = parse_query(queries[qid])
    assert len(bgp.patterns) == 3
    plan = greedy_left_deep_plan(bgp, cls(summaries, stores).expression_card)
    selected = Counter()
    original = estimators_base.select_sources

    def counting_select_sources(pattern, stores):
        selected[pattern.shape] += 1
        return original(pattern, stores)

    for name, module in list(sys.modules.items()):
        if name.startswith("fedcard") and vars(module).get("select_sources") is original:
            monkeypatch.setattr(module, "select_sources", counting_select_sources)
    estimator = _counting(cls)(summaries, stores)

    row = evaluate_query(qid, bgp, estimator, Oracle(stores))

    assert row.status == "ok"
    assert set(estimator.leaf_calls) == {leaf.pattern for leaf in leaves(plan)}
    assert set(join_nodes(plan)) <= set(estimator.join_calls)
    assert set(estimator.leaf_calls.values()) == {1}
    assert set(estimator.join_calls.values()) == {1}
    assert set(selected) == {tp.shape for tp in bgp.patterns}
    assert set(selected.values()) <= {1}
