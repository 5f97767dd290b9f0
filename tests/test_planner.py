import random

import pytest

from conftest import tp

from fedcard.estimators import make_estimator
from fedcard.expr import Join, Leaf, describe, join_nodes, leaves
from fedcard.fixtures import fig_example_query
from fedcard.ntriples import Triple, iri
from fedcard.oracle import Oracle, OracleBlowupError
from fedcard.planner import PlanClass, classify_plan, greedy_left_deep_plan, tp_sources_count
from fedcard.query import BasicGraphPattern, TriplePattern, Var, parse_query
from fedcard.store import build_store


def injected_card(leaf_estimates):
    """Estimate function: injected leaf values, product for joins."""

    def card(expr):
        if isinstance(expr, Leaf):
            return float(leaf_estimates[expr.pattern.ordinal])
        total = 1.0
        for pattern in expr.patterns:
            total *= leaf_estimates[pattern.ordinal]
        return total

    return card


@pytest.fixture(scope="module")
def fig_bgp():
    return parse_query(fig_example_query())


def chain_ordinals(plan):
    return [leaf.pattern.ordinal for leaf in leaves(plan)]


def test_engine1_estimates_build_optimal_shape(fig_bgp):
    plan = greedy_left_deep_plan(fig_bgp, injected_card({0: 90, 1: 250, 2: 300}))
    assert chain_ordinals(plan) == [0, 1, 2]
    assert describe(plan) == "((tp0 JOIN tp1) JOIN tp2)"


def test_engine2_estimates_build_suboptimal_shape(fig_bgp):
    plan = greedy_left_deep_plan(fig_bgp, injected_card({0: 200, 1: 600, 2: 500}))
    assert chain_ordinals(plan) == [0, 2, 1]


def test_single_pattern_leaf_plan():
    bgp = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }")
    plan = greedy_left_deep_plan(bgp, lambda e: 1.0)
    assert isinstance(plan, Leaf)
    assert join_nodes(plan) == []


def test_planner_deterministic(fig_bgp):
    card = injected_card({0: 5, 1: 5, 2: 5})
    first = greedy_left_deep_plan(fig_bgp, card)
    second = greedy_left_deep_plan(fig_bgp, card)
    assert describe(first) == describe(second)
    assert chain_ordinals(first) == [0, 1, 2]  # ties break on ordinal


def test_disconnected_patterns_join_last():
    text = """SELECT * WHERE {
      ?a <http://x/p> ?b .
      ?b <http://x/q> ?c .
      ?z <http://x/r> ?w
    }"""
    bgp = parse_query(text)
    # The isolated pattern has the smallest estimate but cannot start the chain.
    plan = greedy_left_deep_plan(bgp, injected_card({0: 10, 1: 20, 2: 1}))
    assert chain_ordinals(plan) == [0, 1, 2]
    assert join_nodes(plan)[-1].edges == ()  # final join is cartesian


def test_classify_fig_plans(fig_bgp, fig_store):
    oracle = Oracle([fig_store])
    optimal = greedy_left_deep_plan(fig_bgp, injected_card({0: 90, 1: 250, 2: 300}))
    suboptimal = greedy_left_deep_plan(fig_bgp, injected_card({0: 200, 1: 600, 2: 500}))
    assert classify_plan(optimal, oracle.cardinality) is PlanClass.OPTIMAL
    assert classify_plan(suboptimal, oracle.cardinality) is PlanClass.SUB_OPTIMAL


def test_two_pattern_query_is_only_plan(toy1):
    bgp = parse_query(
        "SELECT * WHERE { ?s <http://example.org/toy/p> ?a . ?s <http://example.org/toy/q> ?b }"
    )
    oracle = Oracle([toy1])
    plan = greedy_left_deep_plan(bgp, oracle.cardinality)
    assert classify_plan(plan, oracle.cardinality) is PlanClass.ONLY_PLAN


def test_only_plan_decided_before_optimality(toy1):
    # Even a "bad" two-pattern order is OnlyP: there is nothing to reorder.
    plan = Join(Leaf(tp("?s", "q", "?b", 1)), Leaf(tp("?s", "p", "?a", 0)))
    oracle = Oracle([toy1])
    assert classify_plan(plan, oracle.cardinality) is PlanClass.ONLY_PLAN


def test_classify_failed_on_oracle_blowup(fig_bgp, fig_store):
    oracle = Oracle([fig_store], cap=10)
    plan = greedy_left_deep_plan(fig_bgp, injected_card({0: 90, 1: 250, 2: 300}))
    with pytest.raises(OracleBlowupError):
        classify_plan(plan, oracle.cardinality)


def test_classify_rejects_bushy_plans(fig_bgp):
    tps = fig_bgp.patterns
    bushy = Join(Join(Leaf(tps[0]), Leaf(tps[1])), Join(Leaf(tps[2]), Leaf(tps[0])))
    with pytest.raises(ValueError):
        classify_plan(bushy, lambda e: 0.0)


def test_planner_soundness_with_oracle_random():
    rng = random.Random(99)
    for _ in range(60):
        triples = [
            Triple(
                iri(f"http://r/s{rng.randrange(12)}"),
                iri(f"http://r/p{rng.randrange(5)}"),
                iri(f"http://r/o{rng.randrange(12)}"),
            )
            for _ in range(rng.randrange(5, 120))
        ]
        store = build_store("R", triples)
        oracle = Oracle([store])

        def slot(prefix, n):
            if rng.random() < 0.6:
                return Var(rng.choice("abcd"))
            return iri(f"http://r/{prefix}{rng.randrange(n)}")

        tps = tuple(
            TriplePattern(slot("s", 12), iri(f"http://r/p{rng.randrange(5)}"), slot("o", 12), i)
            for i in range(rng.randrange(2, 5))
        )
        bgp = BasicGraphPattern(tps, ())
        try:
            plan = greedy_left_deep_plan(bgp, oracle.cardinality)
            result = classify_plan(plan, oracle.cardinality)
        except OracleBlowupError:
            continue
        assert result in (PlanClass.OPTIMAL, PlanClass.ONLY_PLAN)


def test_tp_sources_count(toy_ab, toy_ab_summaries):
    estimator = make_estimator("lhd", toy_ab_summaries, toy_ab)
    bgp = parse_query(
        "SELECT * WHERE { ?x <http://example.org/toy/p> ?y . ?x <http://example.org/toy/q> ?z }"
    )
    assert tp_sources_count(bgp, estimator) == 3  # p -> {A}, q -> {A, B}
    nothing = parse_query("SELECT * WHERE { ?x <http://example.org/toy/absent> ?y }")
    assert tp_sources_count(nothing, estimator) == 0
