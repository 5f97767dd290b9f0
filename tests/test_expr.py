"""Facts that query patterns and plan nodes cache at construction.

Each cached fact is checked against its recursive definition, on every
node that planning and classification build over the bench and edge-kind
queries (the ``bench_nodes`` fixture), and each cached hash against the
hash the dataclass itself would compute.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fedcard.expr import Join, Leaf, leaves, ordinals
from fedcard.ntriples import Term, format_term
from fedcard.query import JoinEdge, TriplePattern, Var, parse_query

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


def reference_shape(tp):
    return tuple(
        "spo".index(tp.var_positions(slot.name)[0]) if isinstance(slot, Var) else format_term(slot)
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


def test_cached_facts_equal_their_recursive_definitions(bench_nodes):
    joins = sum(isinstance(node, Join) for node in bench_nodes)
    assert joins and len(bench_nodes) > joins
    for node in bench_nodes:
        assert leaves(node) == reference_leaves(node)
        assert list(node.patterns) == reference_patterns(node)
        assert ordinals(node) == frozenset(tp.ordinal for tp in reference_patterns(node))
        assert node.variables == reference_variables(node)
        for tp in reference_patterns(node):
            assert tp.shape == reference_shape(tp)
            assert tp.var_names == tp.variables() == reference_variables(Leaf(tp))


def test_every_edge_runs_from_a_left_pattern_to_a_right_pattern(bench_nodes):
    joins = [node for node in bench_nodes if isinstance(node, Join)]
    for node in joins:
        for edge in node.edges:
            assert edge.left in node.left.ordinals and edge.right in node.right.ordinals
        shared = [
            (ltp.ordinal, rtp.ordinal, name)
            for ltp in reference_patterns(node.left)
            for rtp in reference_patterns(node.right)
            for name in sorted(reference_variables(Leaf(ltp)) & reference_variables(Leaf(rtp)))
        ]
        assert [(edge.left, edge.right, edge.variable) for edge in node.edges] == shared
    # Some left side holds the higher ordinal, so the orientation is by side, not by ordinal.
    assert any(edge.left > edge.right for node in joins for edge in node.edges)


def test_cached_hashes_equal_the_dataclass_hashes(bench_nodes):
    for node in bench_nodes:
        assert hash(node) == hash(plain(node))
        for tp in node.patterns:
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
    assert moved.var_names == {"x"} and moved.shape == (0, "<http://e/p>", 0)
    assert hash(moved) == hash(plain(moved)) and moved != p
    assert dataclasses.replace(moved, object=y, ordinal=0) == p
    node = Join(Leaf(p), Leaf(moved))
    assert repr(node) == f"Join(left={Leaf(p)!r}, right={Leaf(moved)!r}, edges={node.edges!r})"
    with pytest.raises(ValueError):
        dataclasses.replace(node, edges=())
    swapped = dataclasses.replace(node, left=Leaf(moved), right=Leaf(p))
    assert swapped.variables == {"x", "y"}
    assert [(e.left, e.right) for e in swapped.edges] == [(1, 0)]
    with pytest.raises(ValueError):
        dataclasses.replace(x, _hash=0)


def test_copies_are_equal_and_hash_alike():
    bgp = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> \"v\" }")
    plan = Join(Leaf(bgp.patterns[0]), Leaf(bgp.patterns[1]))
    for value in (bgp, plan, plan.edges[0], Var("x")):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert copy.deepcopy(plan).variables == plan.variables


_BUILD = """
from fedcard.expr import Join, Leaf
from fedcard.query import parse_query

bgp = parse_query(
    'SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . ?z <http://e/r> "v"@en }'
)
leaf0, leaf1, leaf2 = (Leaf(tp) for tp in bgp.patterns)
plan = Join(Join(leaf0, leaf1), leaf2)
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
