import gc
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations
from math import prod

import pytest

from conftest import edge_queries, tp, toy_iri
from helpers import decode_keys, evaluate_expression, match_triples

import fedcard.oracle
from fedcard.estimators import ENGINE_NAMES, make_estimator
from fedcard.evaluation import evaluate_queries
from fedcard.expr import Join, Leaf, join_nodes, leaves
from fedcard.fixtures import BENCH_BASE, bench_stores, fig_example_query
from fedcard.ntriples import Triple, iri
from fedcard.oracle import (
    Oracle,
    OracleBlowupError,
    trace_plan,
    true_tp_card,
)
from fedcard.query import TriplePattern, Var, parse_query
from fedcard.store import build_store, match


def nested_loop_rows(expr, stores) -> list[dict]:
    """Independent oracle: binding enumeration without hash tables."""
    rows = [dict()]
    for pattern in expr.patterns:
        leaf_rows = []
        for store in stores:
            for t in match_triples(store, pattern):
                binding = {}
                for (_, slot), value in zip(pattern.slots(), (t.subject, t.predicate, t.object)):
                    if isinstance(slot, Var):
                        binding[slot.name] = value
                leaf_rows.append(binding)
        rows = [
            {**acc, **extra}
            for acc in rows
            for extra in leaf_rows
            if all(acc.get(k, v) == v for k, v in extra.items())
        ]
    return rows


def nested_loop_count(expr, stores) -> int:
    return len(nested_loop_rows(expr, stores))


def test_true_tp_card(toy1):
    assert true_tp_card(tp("?x", "p", "?y"), [toy1]) == 3
    assert true_tp_card(tp("s1", "p", "o1"), [toy1]) == 1
    assert true_tp_card(tp("?x", "absent", "?y"), [toy1]) == 0


def test_true_tp_card_additive_over_sources(toy_ab):
    pattern = tp("?x", "q", "?y")
    total = true_tp_card(pattern, toy_ab)
    assert total == sum(true_tp_card(pattern, [s]) for s in toy_ab)


def test_star_join_binding(toy1):
    expr = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1)))
    bag = evaluate_expression(expr, [toy1])
    assert len(bag) == 1
    (binding,) = bag
    assert binding["x"] == toy_iri("s2")
    assert binding["z"] == toy_iri("o3")


def test_cartesian_product(toy1):
    expr = Join(Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?d", 1)))
    assert len(evaluate_expression(expr, [toy1])) == 6


def test_empty_leaf_empty_bag(toy1):
    expr = Join(Leaf(tp("?a", "absent", "?b", 0)), Leaf(tp("?c", "q", "?d", 1)))
    assert evaluate_expression(expr, [toy1]) == []


def test_oracle_blowup_raises(toy1):
    expr = Join(Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?d", 1)))
    with pytest.raises(OracleBlowupError) as err:
        evaluate_expression(expr, [toy1], cap=5)
    assert "oracle blow-up" in str(err.value)


def test_cross_source_joins_allowed():
    # The path exists only across the two sources.
    s1 = build_store("S1", [Triple(toy_iri("a"), toy_iri("p"), toy_iri("b"))])
    s2 = build_store("S2", [Triple(toy_iri("b"), toy_iri("q"), toy_iri("c"))])
    expr = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?y", "q", "?z", 1)))
    assert len(evaluate_expression(expr, [s1, s2])) == 1
    assert len(evaluate_expression(expr, [s1])) == 0
    assert len(evaluate_expression(expr, [s2])) == 0


def test_join_order_independence(toy1):
    left = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1)))
    right = Join(Leaf(tp("?x", "q", "?z", 1)), Leaf(tp("?x", "p", "?y", 0)))
    assert len(evaluate_expression(left, [toy1])) == len(evaluate_expression(right, [toy1]))


def test_hash_join_matches_nested_loop_random():
    rng = random.Random(3)
    for _ in range(40):
        stores = []
        for s in range(rng.randrange(1, 3)):
            triples = [
                Triple(
                    iri(f"http://r/s{rng.randrange(10)}"),
                    iri(f"http://r/p{rng.randrange(4)}"),
                    iri(f"http://r/o{rng.randrange(10)}"),
                )
                for _ in range(rng.randrange(0, 80))
            ]
            stores.append(build_store(f"S{s}", triples))

        def slot(prefix, n):
            if rng.random() < 0.55:
                return Var(rng.choice("abcd"))
            return iri(f"http://r/{prefix}{rng.randrange(n)}")

        from fedcard.query import TriplePattern

        tps = [
            TriplePattern(slot("s", 10), slot("p", 4), slot("o", 10), ordinal=i)
            for i in range(rng.randrange(1, 4))
        ]
        expr = Leaf(tps[0])
        for pattern in tps[1:]:
            expr = Join(expr, Leaf(pattern))
        assert len(evaluate_expression(expr, stores)) == nested_loop_count(expr, stores)


def test_oracle_cache_consistency(toy1):
    oracle = Oracle([toy1])
    expr = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1)))
    assert oracle.cardinality(expr) == 1
    assert oracle.cardinality(expr) == 1  # cached path
    assert oracle.cardinality(Leaf(tp("?x", "p", "?y", 0))) == 3
    assert Oracle([toy1]).cardinality(Leaf(tp("?x", "q", "?z", 0))) == 2


def test_trace_toy_star(toy1, toy1_summaries):
    plan = Join(Leaf(tp("?s", "p", "?a", 0)), Leaf(tp("?s", "q", "?b", 1)))
    for engine in ("costfed", "splendid", "lhd", "semagrow", "odyssey"):
        estimator = make_estimator(engine, toy1_summaries, [toy1])
        trace = trace_plan(plan, estimator, Oracle([toy1]), query_id="toy_star")
        assert trace.tp_real == (3.0, 2.0)
        assert trace.join_real == (1.0,)
        assert trace.engine == engine


def test_trace_fig_example(fig_store, fig_summaries):
    bgp = parse_query(fig_example_query())
    plan = Join(Join(Leaf(bgp.patterns[0]), Leaf(bgp.patterns[1])), Leaf(bgp.patterns[2]))
    estimator = make_estimator("costfed", fig_summaries, [fig_store])
    trace = trace_plan(plan, estimator, Oracle([fig_store]), query_id="fig1")
    assert trace.tp_real == (100.0, 200.0, 300.0)
    assert trace.join_real == (50.0, 50.0)


def test_trace_worked_example_with_stub_estimator(fig_store):
    """Synthetic data realizes the worked real counts; a stub injects the
    worked estimates; the trace carries both vectors verbatim."""
    from fedcard.estimators import CardinalityEstimator, Engine
    from fedcard.expr import ordinals
    from fedcard.metrics import bundle

    class Stub(CardinalityEstimator):
        engine = Engine.COSTFED
        name = "engine1"

        def __init__(self):
            super().__init__(None, ())

        def tp_card(self, pattern):
            return {0: 90.0, 1: 250.0, 2: 300.0}[pattern.ordinal]

        def join_card(self, node, left_card, right_card):
            return {frozenset({0, 1}): 65.0, frozenset({0, 1, 2}): 150.0}[ordinals(node)]

    bgp = parse_query(fig_example_query())
    plan = Join(Join(Leaf(bgp.patterns[0]), Leaf(bgp.patterns[1])), Leaf(bgp.patterns[2]))
    trace = trace_plan(plan, Stub(), Oracle([fig_store]), query_id="fig1")
    assert trace.tp_real + trace.join_real == (100.0, 200.0, 300.0, 50.0, 50.0)
    assert trace.tp_est + trace.join_est == (90.0, 250.0, 300.0, 65.0, 150.0)
    metrics = bundle(trace)
    assert metrics.e_tp == pytest.approx(0.0658, abs=5e-4)
    assert metrics.e_plan == pytest.approx(0.1391, abs=5e-4)
    assert metrics.q_plan == 3.0


def test_trace_over_empty_store():
    empty = build_store("E", [])
    from fedcard.summaries import build_all

    summaries = build_all([empty])
    plan = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1)))
    estimator = make_estimator("splendid", summaries, [empty])
    trace = trace_plan(plan, estimator, Oracle([empty]))
    assert trace.tp_real == (0.0, 0.0)
    assert trace.join_real == (0.0,)
    assert trace.tp_est == (0.0, 0.0)


def _random_case(rng):
    stores = []
    for s in range(rng.randrange(1, 3)):
        triples = [
            Triple(
                iri(f"http://r/n{rng.randrange(6)}"),
                iri(f"http://r/p{rng.randrange(3)}"),
                iri(f"http://r/n{rng.randrange(6)}"),
            )
            for _ in range(rng.randrange(0, 40))
        ]
        stores.append(build_store(f"S{s}", triples))

    def slot(prefix, n):
        if rng.random() < 0.6:
            return Var(rng.choice("abc"))  # three names over up to 12 slots: repeats are common
        return iri(f"http://r/{prefix}{rng.randrange(n)}")

    tps = [
        TriplePattern(slot("n", 6), slot("p", 3), slot("n", 6), ordinal=i)
        for i in range(rng.randrange(1, 5))
    ]
    return stores, tps


def _random_tree(rng, tps):
    """A random, possibly bushy, join tree over the patterns."""
    if len(tps) == 1:
        return Leaf(tps[0])
    tps = rng.sample(tps, len(tps))
    cut = rng.randrange(1, len(tps))
    return Join(_random_tree(rng, tps[:cut]), _random_tree(rng, tps[cut:]))


def _candidate_joins(plan):
    """Every join of a left-deep plan's prefix with a pattern not yet in it, as classification asks."""
    chain = [leaf.pattern for leaf in leaves(plan)]
    prefix = Leaf(chain[0])
    out = []
    for i, step in enumerate(chain[1:], start=1):
        out.extend(Join(prefix, Leaf(tp)) for tp in chain[i:])
        prefix = Join(prefix, Leaf(step))
    return out


def test_shared_oracle_counts_match_nested_loop_random():
    rng = random.Random(11)
    repeated = bushy = 0
    for _ in range(60):
        stores, tps = _random_case(rng)
        repeated += any(len(tp.variables()) < sum(isinstance(x, Var) for _, x in tp.slots()) for tp in tps)
        oracle = Oracle(stores)
        left_deep = Leaf(tps[0])
        for pattern in rng.sample(tps[1:], len(tps) - 1):
            left_deep = Join(left_deep, Leaf(pattern))
        plans = [left_deep, _random_tree(rng, tps), _random_tree(rng, tps)]
        bushy += any(not isinstance(node.right, Leaf) for p in plans for node in join_nodes(p))
        exprs = [node for p in plans for node in [*leaves(p), *join_nodes(p)]]
        exprs += _candidate_joins(left_deep)
        for expr in rng.sample(exprs, len(exprs)):
            rows = nested_loop_rows(expr, stores)
            root = oracle.bindings(expr)
            assert sum(root.values()) == len(rows) and set(root) <= {()}
            assert oracle.cardinality(expr) == len(rows)
            names = sorted(expr.variables)
            keep = frozenset(rng.sample(names, rng.randrange(len(names) + 1)))
            projected = Counter(tuple(row[v] for v in sorted(keep)) for row in rows)
            assert decode_keys(oracle.bindings(expr, keep)) == projected
    assert repeated and bushy


def _plan_nodes(rng, tps):
    """Every node of a random left-deep and a random bushy plan, plus the left-deep candidate joins."""
    left_deep = Leaf(tps[0])
    for pattern in rng.sample(tps[1:], len(tps) - 1):
        left_deep = Join(left_deep, Leaf(pattern))
    plans = [left_deep, _random_tree(rng, tps)]
    return [node for p in plans for node in [*leaves(p), *join_nodes(p)]] + _candidate_joins(left_deep)


def _projections(expr):
    names = sorted(expr.variables)
    return [frozenset(c) for r in range(len(names) + 1) for c in combinations(names, r)]


def _random_cases(seed, cases=40):
    """(stores, plan nodes) per random case; asserts the cases reach the nested join path."""
    rng = random.Random(seed)
    nested = multi_shared = 0
    for _ in range(cases):
        stores, tps = _random_case(rng)
        nodes = _plan_nodes(rng, tps)
        for expr in nodes:
            if not isinstance(expr, Leaf):
                lvars, rvars = expr.left.variables, expr.right.variables
                nested += not (lvars <= rvars or rvars <= lvars)  # each side can add a variable
                multi_shared += len(lvars & rvars) > 1
        yield stores, nodes
    assert nested and multi_shared


def test_fresh_oracle_totals_agree_for_every_projection():
    # A fresh oracle per call, so count-only and grouped nodes never share a cache.
    for stores, nodes in _random_cases(23):
        for expr in nodes:
            expected = nested_loop_count(expr, stores)
            assert Oracle(stores).cardinality(expr) == expected
            for keep in _projections(expr):
                assert sum(Oracle(stores).bindings(expr, keep).values()) == expected


def test_maps_are_keyed_by_term_ids():
    for stores, nodes in _random_cases(29):
        for expr in nodes:
            rows = nested_loop_rows(expr, stores)
            for keep in _projections(expr):
                counts = Oracle(stores).bindings(expr, keep)
                for key in counts:
                    if len(keep) == 1:
                        assert type(key) is int
                    else:
                        assert type(key) is tuple and len(key) == len(keep)
                        assert all(type(term) is int for term in key)
                projected = Counter(tuple(row[v] for v in sorted(keep)) for row in rows)
                assert decode_keys(counts) == projected


def test_one_variable_keys_reach_every_join_branch(monkeypatch):
    """A one-variable map is keyed by bare ids; the one-sided join probes
    and re-projects such maps, and the general join groups by such keys
    before it concatenates tuple parts."""
    seen = Counter()
    column_keys, group = fedcard.oracle._column_keys, fedcard.oracle._group

    def spy_column_keys(counts, names, onto):
        keys = list(column_keys(counts, names, onto))
        seen["one-sided"] += any(type(key) is int for key in [*counts, *keys])
        return keys

    def spy_group(counts, key_of, part_of):
        groups = group(counts, key_of, part_of)
        seen["general"] += any(type(key) is int for key in [*counts, *groups])
        return groups

    monkeypatch.setattr(fedcard.oracle, "_column_keys", spy_column_keys)
    monkeypatch.setattr(fedcard.oracle, "_group", spy_group)
    for stores, nodes in _random_cases(41):
        oracle = Oracle(stores)
        for expr in nodes:
            rows = nested_loop_rows(expr, stores)
            for keep in _projections(expr):
                projected = Counter(tuple(row[v] for v in sorted(keep)) for row in rows)
                assert decode_keys(oracle.bindings(expr, keep)) == projected
    assert seen["one-sided"] and seen["general"]

    seen.clear()
    rows = evaluate_queries(edge_queries(), ENGINE_NAMES, bench_stores())
    assert all(row.status == "ok" for row in rows)
    assert seen["one-sided"] and seen["general"]  # general: e07_cycle


def test_count_first_and_projected_first_agree():
    rng = random.Random(31)
    for stores, nodes in _random_cases(37):
        asks = [(expr, keep) for expr in nodes for keep in _projections(expr)]
        count_first, projected_first = Oracle(stores), Oracle(stores)
        for expr, keep in rng.sample(asks, len(asks)):
            total = count_first.cardinality(expr)
            counts = count_first.bindings(expr, keep)
            assert projected_first.bindings(expr, keep) == counts
            assert projected_first.cardinality(expr) == total == sum(counts.values())


def _fanout_store():
    """Four subjects share one ``p`` object; two ``q`` triples stand apart."""
    triples = [Triple(toy_iri(f"s{i}"), toy_iri("p"), toy_iri("o")) for i in range(4)]
    triples += [Triple(toy_iri(f"t{i}"), toy_iri("q"), toy_iri(f"u{i}")) for i in range(2)]
    return build_store("F", triples)


@pytest.mark.parametrize(
    "expr, total",
    [
        (Leaf(tp("?x", "p", "?o", 0)), 4),
        (Join(Leaf(tp("?x", "p", "?o", 0)), Leaf(tp("?y", "p", "?o", 1))), 16),
        (Join(Leaf(tp("?x", "p", "?o", 0)), Leaf(tp("?y", "q", "?z", 1))), 8),
    ],
    ids=["leaf", "keyed-join", "cartesian-join"],
)
def test_cap_boundary(expr, total):
    store = _fanout_store()
    assert Oracle([store], cap=total).cardinality(expr) == total
    with pytest.raises(OracleBlowupError) as err:
        Oracle([store], cap=total - 1).cardinality(expr)
    assert (err.value.size, err.value.cap) == (total, total - 1)
    # On a join, keeping nothing counts only, keeping ?x leaves one side
    # adding no output variable, and keeping every variable groups both sides.
    for keep in (frozenset(), frozenset({"x"}), frozenset(expr.variables)):
        assert sum(Oracle([store], cap=total).bindings(expr, keep).values()) == total
        with pytest.raises(OracleBlowupError) as err:
            Oracle([store], cap=total - 1).bindings(expr, keep)
        assert (err.value.size, err.value.cap) == (total, total - 1)


@pytest.mark.parametrize(
    "left, right, keep",
    [
        # The kept side is keyed by ?x and the shared ?o, so its map is
        # re-projected onto ?x alone.
        (("?x", "p", "?o"), ("?y", "p", "?o"), {"x"}),
        # The same with the kept side on the right.
        (("?y", "p", "?o"), ("?x", "p", "?o"), {"x"}),
        # Two shared variables, one of them kept.
        (("?x", "p", "?o"), ("?x", "q", "?o"), {"o"}),
        # No re-projection: the kept variables include every shared one.
        (("?x", "p", "?o"), ("?y", "p", "?o"), {"x", "o"}),
        # A cartesian join: the kept side's keys are empty tuples.
        (("?x", "p", "?o"), ("?y", "q", "?z"), {"x"}),
    ],
)
def test_one_sided_join_equals_the_expanded_bag(left, right, keep):
    stores = [_fanout_store(), build_store("G", [Triple(toy_iri("s1"), toy_iri("q"), toy_iri("o"))])]
    expr = Join(Leaf(tp(*left, 0)), Leaf(tp(*right, 1)))
    keep = frozenset(keep)
    assert keep <= expr.left.variables or keep <= expr.right.variables
    names = sorted(keep)
    expected = Counter(tuple(row[v] for v in names) for row in evaluate_expression(expr, stores))
    assert decode_keys(Oracle(stores).bindings(expr, keep)) == expected
    rows = nested_loop_rows(expr, stores)
    assert Counter(tuple(row[v] for v in names) for row in rows) == expected and rows


def test_cartesian_query_counts_without_materialising():
    stores = bench_stores()
    tps = [
        TriplePattern(Var(f"s{i}"), iri(BENCH_BASE + f"voc/{name}"), Var(f"o{i}"), ordinal=i)
        for i, name in enumerate(("type", "name", "linksTo"))
    ]
    expected = prod(true_tp_card(pattern, stores) for pattern in tps)
    plan = Join(Join(Leaf(tps[0]), Leaf(tps[1])), Leaf(tps[2]))
    tracemalloc.start()
    try:
        assert Oracle(stores, cap=10**12).cardinality(plan) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expected > 10**8
    assert peak < 20 * 2**20


def _memo_federation():
    """Two sources of ``p`` triples: reflexive ones, two ground objects, and a
    triple held by both sources, so that the bag counts it twice."""

    def store(name, rows):
        return build_store(name, [Triple(*map(toy_iri, row)) for row in rows])

    return [
        store("M1", [("s1", "p", "a"), ("s2", "p", "a"), ("s1", "p", "b"), ("s3", "p", "s3")]),
        store("M2", [("s2", "p", "b"), ("s4", "p", "s4"), ("s1", "p", "a"), ("a", "p", "s1")]),
    ]


def _leaf_reference(pattern, keep, stores) -> Counter:
    """The leaf's projected bag, counted from the nested-loop bindings."""
    names = sorted(keep)
    return Counter(tuple(row[v] for v in names) for row in nested_loop_rows(Leaf(pattern), stores))


def test_leaf_maps_are_shared_per_federation():
    stores = _memo_federation()
    first = Oracle(stores).bindings(Leaf(tp("?s", "p", "?o", 0)), frozenset({"s"}))
    # Another query's pattern of the same shape, under other names and ordinal.
    second = Oracle(stores).bindings(Leaf(tp("?x", "p", "?y", 2)), frozenset({"x"}))
    assert second is first
    pattern = tp("?s", "p", "?o")
    assert first == Counter(row[0] for store in stores for row in match(store, pattern))
    # Another order or a subset of the stores is another federation.
    for other in (stores[::-1], stores[:1]):
        counts = Oracle(other).bindings(Leaf(tp("?s", "p", "?o", 0)), frozenset({"s"}))
        assert counts is not first
        assert decode_keys(counts) == _leaf_reference(pattern, {"s"}, other)
    assert Oracle(stores[:1]).bindings(Leaf(pattern), frozenset({"s"})) != first


@pytest.mark.parametrize(
    "first, second, keep",
    [
        (("?x", "p", "?x"), ("?x", "p", "?y"), {"x"}),
        (("?s", "p", "a"), ("?s", "p", "b"), {"s"}),
        (("?a", "p", "?b"), ("?b", "p", "?a"), {"a", "b"}),
    ],
    ids=["repeated-variable", "ground-object", "swapped-names"],
)
def test_leaf_shapes_that_differ_get_their_own_maps(first, second, keep):
    stores = _memo_federation()
    keep = frozenset(keep)
    counts = []
    for slots in (first, second, first):  # the memo is warm from the first ask on
        pattern = tp(*slots)
        counts.append(decode_keys(Oracle(stores).bindings(Leaf(pattern), keep)))
        assert counts[-1] == _leaf_reference(pattern, keep, stores)
    assert counts[0] != counts[1]


def test_cap_applies_on_a_leaf_memo_hit():
    stores = _memo_federation()
    leaf, keep = Leaf(tp("?s", "p", "?o")), frozenset({"s"})
    total = sum(len(match(store, leaf.pattern)) for store in stores)
    assert sum(Oracle(stores, cap=10**6).bindings(leaf, keep).values()) == total
    with pytest.raises(OracleBlowupError) as err:
        Oracle(stores, cap=total - 1).bindings(leaf, keep)
    assert (err.value.size, err.value.cap) == (total, total - 1)


def test_leaf_maps_live_as_long_as_their_stores():
    leaf, keep = Leaf(tp("?s", "p", "?o")), frozenset({"s"})
    stores = _memo_federation()
    alive = weakref.ref(stores[0])
    oracle = Oracle(stores)
    oracle.bindings(leaf, keep)
    del stores, oracle
    assert alive() is None  # no store refers to itself, so no collection is needed
    # Two federations in opposite orders refer to each other's first store.
    stores = _memo_federation()
    alive = weakref.ref(stores[0])
    for federation in (stores, stores[::-1]):
        Oracle(federation).bindings(leaf, keep)
    del stores, federation
    gc.collect()
    assert alive() is None
