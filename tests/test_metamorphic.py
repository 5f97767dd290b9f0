"""Metamorphic tests: an input change whose effect on the output is known.

Each test evaluates the oracle on an input and on a transformed copy of it
and checks the relation between the two results, so no expected count is
written down by hand.
"""

from hypothesis import given, settings, strategies as st

from fedcard.expr import Leaf, join, join_nodes, leaves
from fedcard.ntriples import Triple, iri
from fedcard.oracle import Oracle, true_tp_card
from fedcard.query import TriplePattern, Var
from fedcard.store import build_store

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

terms = st.integers(0, 4).map(lambda i: iri(f"http://m/n{i}"))
predicates = st.integers(0, 2).map(lambda i: iri(f"http://m/p{i}"))
triples = st.lists(st.builds(Triple, terms, predicates, terms), max_size=30)


def _slot(constants):
    return st.one_of(st.sampled_from("abc").map(Var), constants)


patterns = st.lists(
    st.tuples(_slot(terms), _slot(predicates), _slot(terms)), min_size=1, max_size=4
).map(lambda slots: [TriplePattern(*spo, ordinal=i) for i, spo in enumerate(slots)])


def _left_deep(tps):
    plan = Leaf(tps[0])
    for pattern in tps[1:]:
        plan = join(plan, Leaf(pattern))
    return plan


@SETTINGS
@given(triples=triples, tps=patterns, data=st.data())
def test_splitting_a_source_keeps_every_count(triples, tps, data):
    distinct = list(dict.fromkeys(triples))
    in_first = data.draw(st.lists(st.booleans(), min_size=len(distinct), max_size=len(distinct)))
    whole = [build_store("S", distinct)]
    split = [
        build_store("S1", [t for t, first in zip(distinct, in_first) if first]),
        build_store("S2", [t for t, first in zip(distinct, in_first) if not first]),
    ]
    plan = _left_deep(data.draw(st.permutations(tps)))
    nodes = [*leaves(plan), *join_nodes(plan)]
    whole_oracle, split_oracle = Oracle(whole), Oracle(split)
    assert [split_oracle.cardinality(n) for n in nodes] == [whole_oracle.cardinality(n) for n in nodes]
    assert [true_tp_card(tp, split) for tp in tps] == [true_tp_card(tp, whole) for tp in tps]


@SETTINGS
@given(triples=triples, tps=patterns, data=st.data())
def test_permuting_pattern_order_keeps_counts(triples, tps, data):
    stores = [build_store("S", triples)]
    order = data.draw(st.permutations(range(len(tps))))
    # The same patterns in another query order: new ordinals, another left-deep plan.
    renumbered = [
        TriplePattern(tps[old].subject, tps[old].predicate, tps[old].object, ordinal=new)
        for new, old in enumerate(order)
    ]
    root = Oracle(stores).cardinality(_left_deep(tps))
    assert Oracle(stores).cardinality(_left_deep(renumbered)) == root
    assert [true_tp_card(tp, stores) for tp in renumbered] == [
        true_tp_card(tps[old], stores) for old in order
    ]
