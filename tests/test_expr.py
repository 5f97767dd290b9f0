"""Facts that query patterns and plan nodes cache at construction.

Each cached fact is checked against its recursive definition, on every
node that planning and classification build over the bench queries, and
each cached hash against the hash the dataclass itself would compute.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fedcard.estimators import ENGINE_NAMES, make_estimator
from fedcard.expr import Join, Leaf, join, leaves, ordinals, patterns, variables
from fedcard.fixtures import bench_queries, bench_stores
from fedcard.ntriples import Term, format_term
from fedcard.oracle import Oracle
from fedcard.planner import classify_plan, greedy_left_deep_plan
from fedcard.query import JoinEdge, TriplePattern, Var, parse_query
from fedcard.summaries import build_all

SRC = Path(__file__).resolve().parents[1] / "src"


# -- the recursive definitions, as they were before the facts were cached ------


def reference_leaves(expr):
    if isinstance(expr, Leaf):
        return [expr]
    return reference_leaves(expr.left) + reference_leaves(expr.right)


def reference_patterns(expr):
    return [leaf.pattern for leaf in reference_leaves(expr)]


def reference_variables(expr):
    out = set()
    for tp in reference_patterns(expr):
        out |= {slot.name for slot in (tp.subject, tp.predicate, tp.object) if isinstance(slot, Var)}
    return out


def reference_slot_key(tp):
    return tuple(
        f"?{slot.name}" if isinstance(slot, Var) else format_term(slot)
        for slot in (tp.subject, tp.predicate, tp.object)
    )


def plain(value):
    """A tuple twin of a query object, whose hash is the generated dataclass hash."""
    if isinstance(value, Term):
        return value
    if isinstance(value, (Var, TriplePattern, JoinEdge, Leaf, Join)):
        return tuple(plain(getattr(value, f.name)) for f in dataclasses.fields(value) if f.compare)
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


@pytest.fixture(scope="module")
def bench_nodes():
    """Every node that the planner and ``classify_plan`` ask about, over the bench queries."""
    stores = bench_stores()
    summaries = build_all(stores)
    nodes = []

    def recording(card):
        def wrapped(expr):
            nodes.append(expr)
            return card(expr)

        return wrapped

    for text in bench_queries().values():
        bgp = parse_query(text)
        oracle = Oracle(stores)
        for engine in ENGINE_NAMES:
            estimator = make_estimator(engine, summaries, stores)
            plan = greedy_left_deep_plan(bgp, recording(estimator.expression_card))
            nodes.append(plan)
            classify_plan(plan, recording(oracle.cardinality))
    return nodes


def test_cached_facts_equal_their_recursive_definitions(bench_nodes):
    joins = sum(isinstance(node, Join) for node in bench_nodes)
    assert joins and len(bench_nodes) > joins
    for node in bench_nodes:
        assert leaves(node) == reference_leaves(node)
        assert list(patterns(node)) == reference_patterns(node)
        assert ordinals(node) == frozenset(tp.ordinal for tp in reference_patterns(node))
        assert variables(node) == reference_variables(node)
        for tp in reference_patterns(node):
            assert tp.slot_key == reference_slot_key(tp)
            assert tp.var_names == tp.variables() == reference_variables(Leaf(tp))


def test_cached_hashes_equal_the_dataclass_hashes(bench_nodes):
    for node in bench_nodes:
        assert hash(node) == hash(plain(node))
        for tp in patterns(node):
            assert hash(tp) == hash(plain(tp))
            for slot in (tp.subject, tp.predicate, tp.object):
                assert hash(slot) == hash(plain(slot))
        if isinstance(node, Join):
            for edge in node.edges:
                assert hash(edge) == hash(plain(edge))


def test_caches_stay_out_of_equality_repr_and_replace():
    x, y = Var("x"), Var("y")
    p = parse_query("SELECT * WHERE { ?x <http://e/p> ?y }").patterns[0]
    assert repr(x) == "Var(name='x')"
    assert repr(p).startswith("TriplePattern(subject=Var(name='x'), predicate=Term(")
    assert repr(p).endswith(", object=Var(name='y'), ordinal=0)")
    moved = dataclasses.replace(p, object=x, ordinal=1)
    assert moved.var_names == {"x"} and moved.slot_key == ("?x", "<http://e/p>", "?x")
    assert hash(moved) == hash(plain(moved)) and moved != p
    assert dataclasses.replace(moved, object=y, ordinal=0) == p
    node = join(Leaf(p), Leaf(moved))
    assert repr(node) == f"Join(left={Leaf(p)!r}, right={Leaf(moved)!r}, edges={node.edges!r})"
    assert dataclasses.replace(node, edges=()).variables == {"x", "y"}
    with pytest.raises(ValueError):
        dataclasses.replace(x, _hash=0)


def test_copies_are_equal_and_hash_alike():
    bgp = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> \"v\" }")
    plan = join(Leaf(bgp.patterns[0]), Leaf(bgp.patterns[1]))
    for value in (bgp, plan, plan.edges[0], Var("x")):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert copy.deepcopy(plan).variables == plan.variables


_BUILD = """
from fedcard.expr import Leaf, join
from fedcard.query import parse_query

bgp = parse_query(
    'SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . ?z <http://e/r> "v"@en }'
)
leaf0, leaf1, leaf2 = (Leaf(tp) for tp in bgp.patterns)
plan = join(join(leaf0, leaf1), leaf2)
objects = [bgp, plan, plan.left, leaf2, plan.edges[0], *bgp.patterns, bgp.patterns[0].subject]
"""

_DUMP = _BUILD + """
import sys, pickle
sys.stdout.buffer.write(pickle.dumps(objects))
"""

_LOOKUP = _BUILD + """
import sys, pickle
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = {value: i for i, value in enumerate(objects)}
print([fresh.get(value) for value in loaded])
"""


def _run(code: str, seed: str, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, timeout=60, check=True
    )
    return proc.stdout


def test_pickled_objects_hash_by_the_seed_of_the_process_that_loads_them():
    # String hashes differ between the two seeds, so an object that carried
    # its cached hash across would miss the dict of freshly built twins.
    dumped = _run(_DUMP, "1")
    found = _run(_LOOKUP, "2", dumped).decode().strip()
    assert found == str(list(range(9)))
