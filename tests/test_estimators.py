import itertools
import math
import random

import pytest

from conftest import TOY, tp
from helpers import (
    charset_star_card,
    lhd_multi_join_card,
    semagrow_join_card,
    semagrow_join_selectivity,
)

from fedcard.estimators import (
    CardinalityEstimator,
    Engine,
    make_estimator,
    select_sources,
)
from fedcard.expr import Join, Leaf, ordinals
from fedcard.fixtures import bench_stores
from fedcard.planner import greedy_left_deep_plan
from fedcard.query import parse_query
from fedcard.summaries import (
    CharSetStats,
    CharSetSummary,
    CostFedSummary,
    PredicateStats,
    SourceCharSets,
    SourceVoid,
    SummarySet,
    VoidSummary,
    build_all,
)

P = TOY + "p"
Q = TOY + "q"
A = frozenset({"A"})  # the one source of toy1 and of toy2


@pytest.fixture(scope="module")
def engines(toy1, toy1_summaries):
    return {
        name: make_estimator(name, toy1_summaries, [toy1])
        for name in ("costfed", "splendid", "lhd", "semagrow", "odyssey")
    }


# ------------------------------------------------------------ source selection


def test_select_sources(toy_ab):
    assert select_sources(tp("?x", "p", "?y"), toy_ab) == {"A"}
    assert select_sources(tp("?x", "q", "?y"), toy_ab) == {"A", "B"}
    assert select_sources(tp("?x", "absent", "?y"), toy_ab) == frozenset()


# ------------------------------------------------------------ CostFed


def test_costfed_tp_cases(engines):
    cf = engines["costfed"]
    assert cf.tp_card(tp("?x", "p", "?y")) == 3.0
    assert cf.tp_card(tp("s1", "p", "?y")) == 1.5
    assert cf.tp_card(tp("s1", "p", "o1")) == 1.0
    assert cf.tp_card(tp("?x", "?pr", "?y")) == 5.0
    assert cf.tp_card(tp("?x", "p", "o1")) == 1.5  # T(p) * avgOS(p)
    assert cf.tp_card(tp("s1", "?pr", "?y")) == pytest.approx(5 / 3)
    assert cf.tp_card(tp("?x", "?pr", "o1")) == pytest.approx(5 / 3)
    assert cf.tp_card(tp("s1", "?pr", "o1")) == pytest.approx(5 / 9)


def test_costfed_tp_empty_sources(engines):
    cf = engines["costfed"]
    assert cf.tp_card(tp("?x", "absent", "?y")) == 0.0
    assert cf.tp_card(tp("zzz", "p", "o_nope")) == 0.0  # fully bound, no match


def test_costfed_join_subject_star(engines):
    cf = engines["costfed"]
    e0, e1 = Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1))
    node = Join(e0, e1)
    c0, c1 = cf.tp_card(e0.pattern), cf.tp_card(e1.pattern)
    # M1 = 3/2, M2 = 2/2, min(3, 2) = 2
    assert cf.join_card(node, c0, c1) == pytest.approx(3.0)


def test_costfed_m_factor_bound_object(engines):
    cf = engines["costfed"]
    leaf = Leaf(tp("?x", "p", "o1", 0))
    node = Join(leaf, Leaf(tp("?x", "q", "?z", 1)))
    card = cf.tp_card(leaf.pattern)
    assert cf.multivalued_factor(leaf, card, node.edges) == pytest.approx(1 / math.sqrt(2))


def test_costfed_m_other_case_is_identity(engines):
    cf = engines["costfed"]
    # Ground subjects: no join involvement, M = 1 on both sides.
    e0, e1 = Leaf(tp("s1", "p", "?y", 0)), Leaf(tp("s2", "q", "?z", 1))
    assert cf.join_card(Join(e0, e1), 7.0, 7.0) == 7.0


def test_costfed_join_never_exceeds_m_bound(engines):
    cf = engines["costfed"]
    e0, e1 = Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1))
    node = Join(e0, e1)
    c0, c1 = cf.tp_card(e0.pattern), cf.tp_card(e1.pattern)
    m0 = cf.multivalued_factor(e0, c0, node.edges)
    m1 = cf.multivalued_factor(e1, c1, node.edges)
    estimate = cf.join_card(node, c0, c1)
    assert estimate <= max(m0, m1, 1.0) * min(c0, c1) + 1e-12


# ------------------------------------------------------------ SPLENDID


def test_splendid_tp_cases(engines):
    sp = engines["splendid"]
    assert sp.tp_card(tp("?x", "p", "?y")) == 3.0
    assert sp.tp_card(tp("s1", "?pr", "?y")) == pytest.approx(5 / 3)
    assert sp.tp_card(tp("?x", "p", "o1")) == pytest.approx(1.5)
    assert sp.tp_card(tp("s1", "p", "?y")) == pytest.approx(1.5)  # card(p) * sel.s(p)
    assert sp.tp_card(tp("?x", "?pr", "o1")) == pytest.approx(5 / 3)
    # Fully bound reuses the (s,?,o) formula: |d| * sel.s * sel.o.
    assert sp.tp_card(tp("s1", "p", "o1")) == pytest.approx(5 / 9)


def test_splendid_join(engines):
    sp = engines["splendid"]
    e0, e1 = Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1))
    node = Join(e0, e1)
    # sel = mean(1/2, 1/2) = 0.5 -> 3 * 2 * 0.5
    assert sp.join_card(node, 3.0, 2.0) == pytest.approx(3.0)


def test_splendid_cartesian_join(engines):
    sp = engines["splendid"]
    e0, e1 = Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?d", 1))
    assert sp.join_card(Join(e0, e1), 4.0, 5.0) == 20.0


def test_splendid_single_distinct_value_side(engines):
    sp = engines["splendid"]
    # object-object join; q has a single distinct object, so its side's
    # positional selectivity is 1 and sel = mean(1, 1/2).
    e0, e1 = Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?b", 1))
    node = Join(e0, e1)
    assert sp.join_card(node, 3.0, 2.0) == pytest.approx(3.0 * 2.0 * 0.75)


# ------------------------------------------------------------ LHD


def test_lhd_tp_cases(engines):
    lhd = engines["lhd"]
    assert lhd.tp_card(tp("?x", "p", "?y")) == 3.0
    assert lhd.tp_card(tp("s1", "p", "?y")) == pytest.approx(2.25)
    assert lhd.tp_card(tp("?x", "?pr", "?y")) == 5.0  # all selectivities 1


def test_lhd_join_subject_subject(engines):
    lhd = engines["lhd"]
    e0, e1 = Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1))
    node = Join(e0, e1)
    # sel = (2*2)/(3*3); card = 3 * 2 * 4/9
    assert lhd.join_card(node, 3.0, 2.0) == pytest.approx(8 / 3)


def test_lhd_join_subject_object(engines):
    lhd = engines["lhd"]
    t0, t1 = tp("?a", "p", "?b", 0), tp("?c", "q", "?a", 1)
    node = Join(Leaf(t0), Leaf(t1))
    (edge,) = node.edges
    assert lhd.edge_selectivity(edge, t0, t1) == pytest.approx(2 / 9)


def test_lhd_join_no_shared_variables(engines):
    lhd = engines["lhd"]
    e0, e1 = Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?d", 1))
    assert lhd.join_card(Join(e0, e1), 3.0, 2.0) == 6.0


def test_lhd_multi_join_flat_form(engines):
    lhd = engines["lhd"]
    tps = [tp("?x", "p", "?y", 0), tp("?x", "q", "?z", 1)]
    node = Join(Leaf(tps[0]), Leaf(tps[1]))
    flat = lhd_multi_join_card(lhd, tps, [3.0, 2.0], node.edges)
    recursive = lhd.join_card(node, 3.0, 2.0)
    assert flat == pytest.approx(recursive)


# ------------------------------------------------------------ SemaGrow


def test_semagrow_leaf_delegates_to_lhd(engines):
    sg, lhd = engines["semagrow"], engines["lhd"]
    for pattern in (tp("?x", "p", "?y"), tp("s1", "p", "?y"), tp("?x", "q", "o3")):
        assert sg.tp_card(pattern) == lhd.tp_card(pattern)


def test_semagrow_join(engines):
    sg = engines["semagrow"]
    e0, e1 = Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1))
    node = Join(e0, e1)
    assert sg.join_card(node, 3.0, 2.0) == pytest.approx(3.0)


def test_semagrow_single_distinct_value_leaf(engines):
    sg = engines["semagrow"]
    # q's only join attribute (object) has one distinct value -> JoinSel 1.
    t1 = tp("?c", "q", "?b", 1)
    node = Join(Leaf(tp("?a", "p", "?b", 0)), Leaf(t1))
    assert sg.leaf_join_selectivity(t1, node.edges) == 1.0


def test_semagrow_no_join_attributes_gives_unity(engines):
    sg = engines["semagrow"]
    e0, e1 = Leaf(tp("?a", "p", "?b", 0)), Leaf(tp("?c", "q", "?d", 1))
    assert sg.join_card(Join(e0, e1), 4.0, 5.0) == 20.0


def test_semagrow_joinsel_monotone_under_nesting(engines):
    sg = engines["semagrow"]
    t0, t1, t2 = tp("?x", "p", "?y", 0), tp("?x", "q", "?z", 1), tp("?y", "q", "?w", 2)
    inner = Join(Leaf(t0), Leaf(t1))
    outer = Join(inner, Leaf(t2))
    sel_inner = semagrow_join_selectivity(sg, inner, inner.edges)
    scope = tuple(inner.edges) + tuple(outer.edges)
    sel_outer = semagrow_join_selectivity(sg, outer, scope)
    assert sel_outer <= sel_inner + 1e-12


def test_semagrow_join_card_equals_the_min_chain(bench_nodes):
    stores = bench_stores()
    sg = make_estimator("semagrow", build_all(stores), stores)
    joins = [node for node in bench_nodes if isinstance(node, Join)]
    assert any(isinstance(node.left, Join) for node in joins)
    for node in joins:
        left, right = sg.expression_card(node.left), sg.expression_card(node.right)
        assert sg.join_card(node, left, right) == semagrow_join_card(sg, node, left, right)


# ------------------------------------------------------------ Odyssey


def test_odyssey_star_cases(engines):
    od = engines["odyssey"]
    assert od.star_card([P, Q], A) == pytest.approx(1.0)
    assert od.star_card([P], A) == pytest.approx(3.0)  # exact: equals t_dp


@pytest.mark.parametrize("corpus", ["toy", "toy2", "bench"])
def test_odyssey_one_predicate_star_equals_the_charset_sum(corpus, toy_ab, toy2):
    stores = {"toy": toy_ab, "toy2": [toy2], "bench": bench_stores()}[corpus]
    summaries = build_all(stores)
    od = make_estimator("odyssey", summaries, stores)
    names = [store.source_name for store in stores]
    predicates = {p for name in names for p in summaries.void.source(name).predicates}
    subsets = [frozenset(c) for r in range(len(names) + 1) for c in itertools.combinations(names, r)]
    for p in sorted(predicates):
        for sources in subsets:
            assert od.star_card([p], sources) == charset_star_card(summaries.charsets, [p], sources)
    assert len(predicates) > 1
    # Stars of two predicates still scan the characteristic sets.
    everywhere = frozenset(names)
    for pair in itertools.combinations(sorted(predicates), 2):
        assert od.star_card(pair, everywhere) == charset_star_card(summaries.charsets, pair, everywhere)


def test_odyssey_linked_star_toy2(toy2, toy2_summaries):
    od = make_estimator("odyssey", toy2_summaries, [toy2])
    # Verbatim characteristic-pair formula on toy2 statistics: CS {p} has
    # count 2 and occurrences(p) = 3 after o3 becomes an entity, so each
    # CP entry contributes 1 * (3/2).
    assert od.linked_star_card([Q], [P], Q, A) == pytest.approx(3.0)
    assert od.linked_star_card([P, Q], [P], Q, A) == pytest.approx(1.5)


def test_odyssey_linked_star_empty_cp(engines):
    od = engines["odyssey"]
    assert od.linked_star_card([Q], [P], Q, A) == 0.0  # toy1 has no CP entries


def test_odyssey_link_predicate_must_be_in_star(engines):
    with pytest.raises(ValueError):
        engines["odyssey"].linked_star_card([P], [Q], Q, A)


def test_odyssey_plan_on_star_uses_charsets(toy1, toy1_summaries):
    od = make_estimator("odyssey", toy1_summaries, [toy1])
    plan = Join(Leaf(tp("?s", "p", "?a", 0)), Leaf(tp("?s", "q", "?b", 1)))
    tp_est, join_est, fallback_used = od.evaluate_plan(plan)
    assert tp_est == (3.0, 2.0)
    assert join_est == (1.0,)
    assert not fallback_used


def test_odyssey_path_uses_charpairs(toy2, toy2_summaries):
    od = make_estimator("odyssey", toy2_summaries, [toy2])
    plan = Join(Leaf(tp("?x", "q", "?y", 0)), Leaf(tp("?y", "p", "?z", 1)))
    _, join_est, fallback_used = od.evaluate_plan(plan)
    assert join_est == (pytest.approx(3.0),)
    assert not fallback_used


def test_odyssey_fallback_flagged(toy1, toy1_summaries):
    od = make_estimator("odyssey", toy1_summaries, [toy1])
    # object-object join is neither a star nor a linked star
    plan = Join(Leaf(tp("?a", "p", "?x", 0)), Leaf(tp("?b", "q", "?x", 1)))
    tp_est, join_est, fallback_used = od.evaluate_plan(plan)
    assert fallback_used
    sg = make_estimator("semagrow", toy1_summaries, [toy1])
    expected = sg.join_card(plan, tp_est[0], tp_est[1])
    assert join_est == (pytest.approx(expected),)


def test_odyssey_ground_subject_leaf_falls_back(toy1, toy1_summaries):
    od = make_estimator("odyssey", toy1_summaries, [toy1])
    tp_est, _, fallback_used = od.evaluate_plan(Leaf(tp("s1", "p", "?y", 0)))
    assert fallback_used
    lhd = make_estimator("lhd", toy1_summaries, [toy1])
    assert tp_est[0] == lhd.tp_card(tp("s1", "p", "?y", 0))


# ------------------------------------------------------------ plan estimation


def test_a_hand_built_join_has_the_planner_nodes_edges_and_estimates(toy_ab, toy_ab_summaries):
    """``Join(l, r)`` derives its own edges, so no engine takes it for a cartesian product."""
    bgp = parse_query(f"SELECT * WHERE {{ ?x <{P}> ?y . ?x <{Q}> ?z }}")
    l, r = (Leaf(pattern) for pattern in bgp.patterns)
    expected = {"costfed": 4.5, "splendid": 3.75, "lhd": 4.5, "semagrow": 3.0, "odyssey": 1.0}
    for engine, value in expected.items():
        planner = make_estimator(engine, toy_ab_summaries, toy_ab)
        plan = greedy_left_deep_plan(bgp, planner.expression_card)
        assert Join(Leaf(plan.left.pattern), Leaf(plan.right.pattern)).edges == plan.edges != ()
        # A fresh estimator, so the hand-built node's estimate is not the planner's memo.
        hand = make_estimator(engine, toy_ab_summaries, toy_ab).expression_card(Join(l, r))
        assert hand == planner.expression_card(plan)
        assert hand == pytest.approx(value)


class StubEstimator(CardinalityEstimator):
    """Injectable per-node estimates, keyed by covered ordinals."""

    engine = Engine.COSTFED
    name = "stub"

    def __init__(self, leaf_cards, join_cards):
        super().__init__(None, ())
        self.leaf_cards = leaf_cards
        self.join_cards = join_cards

    def tp_card(self, pattern):
        return float(self.leaf_cards[pattern.ordinal])

    def join_card(self, node, left_card, right_card):
        return float(self.join_cards[ordinals(node)])


def test_estimate_plan_with_injected_stub():
    tps = [tp("?s", "p1", "?o1", 0), tp("?s", "p2", "?o2", 1), tp("?s", "p3", "?o3", 2)]
    plan = Join(Join(Leaf(tps[0]), Leaf(tps[1])), Leaf(tps[2]))
    stub = StubEstimator(
        {0: 90, 1: 250, 2: 300},
        {frozenset({0, 1}): 65, frozenset({0, 1, 2}): 150},
    )
    tp_est, join_est, _ = stub.evaluate_plan(plan)
    assert tp_est + join_est == (90.0, 250.0, 300.0, 65.0, 150.0)


def test_estimate_plan_single_leaf(engines):
    tp_est, join_est, _ = engines["costfed"].evaluate_plan(Leaf(tp("?x", "p", "?y", 0)))
    assert tp_est == (3.0,)
    assert join_est == ()


def test_semagrow_two_leaf_plan(engines):
    plan = Join(Leaf(tp("?x", "p", "?y", 0)), Leaf(tp("?x", "q", "?z", 1)))
    tp_est, join_est, _ = engines["semagrow"].evaluate_plan(plan)
    assert tp_est + join_est == (3.0, 2.0, 3.0)


def test_estimates_finite_and_nonnegative_random(toy_ab, toy_ab_summaries):
    rng = random.Random(11)
    names = ["s1", "s2", "s3", "u", "o1", "o3", "v"]
    preds = ["p", "q", "absent"]
    estimators = [
        make_estimator(name, toy_ab_summaries, toy_ab)
        for name in ("costfed", "splendid", "lhd", "semagrow", "odyssey")
    ]
    for _ in range(60):
        def slot(pool):
            return "?" + rng.choice("abcd") if rng.random() < 0.6 else rng.choice(pool)

        tps = [
            tp(slot(names), slot(preds), slot(names), ordinal=i)
            for i in range(rng.randrange(1, 4))
        ]
        plan = Leaf(tps[0])
        for t in tps[1:]:
            plan = Join(plan, Leaf(t))
        for estimator in estimators:
            tp_est, join_est, _ = estimator.evaluate_plan(plan)
            for value in tp_est + join_est:
                assert math.isfinite(value) and value >= 0.0


# ------------------------------------------------------------ summation order


def _three_source_summaries() -> SummarySet:
    """Sources S1-S3 whose per-source leaf terms are 0.1, 0.2 and 0.3.

    In the VoID counts predicate p has triples / distinct subjects 1/10,
    2/10 and 3/10; in the characteristic sets the star {p, q} has
    occurrences(p) * occurrences(q) / count 1/10, 2/10 and 3/10. The counts
    are made up (no real source has fewer triples than subjects) so that
    the terms are fractions whose float sum depends on its order:
    (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
    """
    voids, charsets = [], []
    for k in (1, 2, 3):
        name = f"S{k}"
        voids.append(SourceVoid(name, 100, 10, 10, {P: PredicateStats(k, 10, 10)}))
        stats = CharSetStats(10, {P: 1, Q: k})
        charsets.append(SourceCharSets(name, {frozenset({P, Q}): stats}))
    return SummarySet(VoidSummary(voids), CostFedSummary(voids), CharSetSummary(charsets))


def test_estimates_do_not_depend_on_source_order(monkeypatch):
    """Every engine that sums floats over sources gives one estimate for all
    six orders of the same three sources (the order of a frozenset of
    source names follows PYTHONHASHSEED)."""
    summaries = _three_source_summaries()
    leaf = tp("s1", "p", "?y")  # bound subject: triples / distinct subjects per source
    orders = list(itertools.permutations(("S1", "S2", "S3")))
    estimates: dict[str, set[float]] = {}
    for engine in ("costfed", "splendid", "lhd", "semagrow"):
        estimator = make_estimator(engine, summaries, [])
        for order in orders:
            monkeypatch.setattr(estimator, "sources_for", lambda _tp, order=order: order)
            estimates.setdefault(engine, set()).add(estimator.tp_card(leaf))
    odyssey = make_estimator("odyssey", summaries, [])
    estimates["odyssey"] = {odyssey.star_card([P, Q], order) for order in orders}

    assert {engine: len(values) for engine, values in estimates.items()} == dict.fromkeys(estimates, 1)
    # The exactly rounded sum of the three terms is 0.6.
    assert estimates["costfed"] == estimates["splendid"] == estimates["odyssey"] == {0.6}
    # LHD (and SemaGrow's leaf): t * sel(S) * sel(P) with t = 300,
    # sel(S) = (0.1 + 0.2 + 0.3) / 30 and sel(P) = 6 / 300.
    (lhd,) = estimates["lhd"]
    assert estimates["semagrow"] == {lhd}
    assert lhd == pytest.approx(300 * (0.6 / 30) * (6 / 300))
