"""Exact cardinalities by counting evaluation over leaf matches.

Bag semantics throughout: duplicates are preserved, matching SELECT without
DISTINCT. No intermediate binding is materialised. Each node's bag is kept
as a multiplicity map projected onto the variables that the rest of the
plan still reads: a distinct projected binding maps to the number of full
bindings that share it. Every map is keyed by process-wide term ids, from
the leaf's counted id rows to the root, so no term is decoded or hashed
here. A key is what ``operator.itemgetter`` returns over the kept
positions: the bare id of a single kept variable, a tuple of ids in sorted
variable-name order for two or more, and ``()`` for none. Most maps keep one
variable, so most keys are plain ints and no per-row tuple is built. A
join sums each side per shared-variable key and multiplies counts, so a
cartesian product is one multiplication (the aggregate form of
Yannakakis-style evaluation). A count-only node (one asked for no
variables) is pure arithmetic: a leaf's total is the length of its matches,
and a join's is ``sum(left[k] * right[k])`` over maps keyed by exactly the
shared variables. Leaf bindings come from the union of all registered
sources, and bindings from different sources join freely. Every real count
of a trace, leaf or join, is an ``Oracle.cardinality`` lookup, and a
configurable cap on every node's bag size (its total count, not its map
size; a one-pattern query's leaf included) turns runaway joins into a hard
error instead of a silently truncated (and therefore wrong) count.

A leaf map with kept variables is counted once per federation, not once per
query: every Oracle over the same ordered store tuple shares one memo of leaf
maps, keyed by the pattern's ``shape`` (which also keys its match memo:
``?s p ?o`` and ``?x p ?y`` share a shape and ``?x p ?x`` does not) and the
first positions of the kept variables in sorted-name order. That memo lives
on the federation's first store, next to its match memo, so it lives exactly
as long as the stores. Join maps and count-only maps stay per Oracle
(``evaluate_queries`` makes one per query).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter, mul
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .estimators.base import CardinalityEstimator
from .expr import Expression, Leaf, join_nodes, leaves, ordinals
from .query import TriplePattern
from .store import TripleStore, match

DEFAULT_ORACLE_CAP = 10_000_000
ORACLE_CAP_ENV = "FEDCARD_ORACLE_CAP"

# Projected binding -> its multiplicity. The key is ``itemgetter`` over the
# kept variables in sorted-name order: a bare term id for one variable, a
# tuple of ids for two or more, ``()`` for none.
Counts = dict[int | tuple[int, ...], int]


class OracleBlowupError(RuntimeError):
    """An intermediate result exceeded the configured cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"oracle blow-up: intermediate result of {size} bindings exceeds cap {cap}")
        self.size = size
        self.cap = cap


def default_cap() -> int:
    """The cap from ``FEDCARD_ORACLE_CAP`` if set, else the default.

    Raises ValueError unless the variable holds a positive integer.
    """
    env = os.environ.get(ORACLE_CAP_ENV)
    if not env:
        return DEFAULT_ORACLE_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{ORACLE_CAP_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _projector(names: Sequence[str], onto: Sequence[str]) -> Callable:
    """Map a key over ``names`` to its key over ``onto``, a subsequence of ``names``."""
    if not onto:
        return lambda key: ()
    if onto == names:
        return lambda key: key
    return itemgetter(*map(names.index, onto))


def _tuple_projector(names: Sequence[str], onto: Sequence[str]) -> Callable:
    """``_projector`` whose one-variable keys are 1-tuples, so that parts concatenate."""
    get = _projector(names, onto)
    return (lambda key: (get(key),)) if len(onto) == 1 else get


def _column_keys(counts: Counts, names: Sequence[str], onto: Sequence[str]) -> Iterable:
    """Each key of ``counts`` (over ``names``) projected onto ``onto``, in map order, built in C."""
    if not onto:
        return repeat((), len(counts))
    if onto == names:
        return counts
    return map(_projector(names, onto), counts)


def _group(counts: Counts, key_of: Callable, part_of: Callable) -> dict[Hashable, Counts]:
    """Split a map by ``key_of``, summing multiplicities per ``part_of`` within each key."""
    groups: dict[Hashable, Counts] = {}
    for row, n in counts.items():
        group = groups.setdefault(key_of(row), {})
        part = part_of(row)
        group[part] = group.get(part, 0) + n
    return groups


def true_tp_card(tp: TriplePattern, stores: Sequence[TripleStore]) -> int:
    """Exact, uncapped cardinality of one pattern, summed over the stores (a test reference)."""
    return sum(len(match(store, tp)) for store in stores)


class Oracle:
    """Counting evaluator over a fixed store set.

    Natural joins are associative and commutative under bag semantics, so
    a node's bag depends only on the set of leaf ordinals it covers. Maps
    are keyed by term ids and cached by that set and the projection.
    ``cardinality`` asks for no variables, so it reads the node's count-only
    map, ``{(): n}`` or ``{}``, cached like any other: a leaf takes its
    total from the match lengths without counting rows, and a join
    multiplies its children's per-key counts without building any nested
    map.

    A leaf map with kept variables comes from the federation's shared leaf
    memo (see the module docstring), keyed by the pattern's shape: every
    Oracle over the same ordered stores, in any query, engine or pass, reads
    the map counted first for that shape and kept positions. An
    Oracle over another order or another subset of the stores has its own
    memo. The cap is checked on the match lengths before the memo is read,
    so a smaller cap still raises on a memo hit.
    """

    def __init__(self, stores: Sequence[TripleStore], cap: Optional[int] = None):
        self.stores = tuple(stores)
        self.cap = default_cap() if cap is None else cap
        self._maps: dict[tuple[frozenset[int], frozenset[str]], Counts] = {}
        # Leaf maps by (shape, kept positions), shared by every Oracle over
        # the same ordered stores: kept on the first store under the others,
        # so that no store refers to itself and one federation's stores are
        # freed as soon as nothing else holds them.
        self._leaf_maps: dict[tuple[tuple, tuple[int, ...]], Counts] = (
            self.stores[0]._leaf_maps.setdefault(self.stores[1:], {}) if self.stores else {}
        )

    def bindings(self, expr: Expression, keep: frozenset[str] = frozenset()) -> Counts:
        """The bag of ``expr`` projected onto ``sorted(keep)``, with multiplicities.

        ``keep`` is a subset of the expression's variables. Each key holds
        the kept variables' term ids (``store.term_of`` decodes them): the
        bare id when one variable is kept, a tuple of ids in sorted-name
        order when two or more are, and ``()`` when none is. Raises
        OracleBlowupError, before building the map, when the bag of this
        node or of any node below it holds more than ``cap`` bindings.

        The map is read-only: repeated calls return the same object, and a
        leaf's map is shared with every Oracle over the same stores and with
        every pattern of the same shape, whatever its variables are named.
        """
        node = ordinals(expr)
        cached = self._maps.get((node, keep))
        if cached is not None:
            return cached

        names = sorted(keep)
        if isinstance(expr, Leaf):
            tp = expr.pattern
            parts = [match(store, tp) for store in self.stores]
            total = sum(map(len, parts))
            if total > self.cap:
                raise OracleBlowupError(total, self.cap)
            if keep:
                # The shape fixes the rows, and the kept variables' first
                # positions fix the key layout, so together they fix the map.
                kept = tuple("spo".index(tp.var_positions(v)[0]) for v in names)
                result = self._leaf_maps.get((tp.shape, kept))
                if result is None:
                    key_of = itemgetter(*kept)
                    result = self._leaf_maps[(tp.shape, kept)] = Counter()
                    for rows in parts:
                        result.update(map(key_of, rows))
            else:
                result = {(): total} if total else {}
        else:
            lvars, rvars = expr.left.variables, expr.right.variables
            lnames = sorted(lvars & (keep | rvars))
            rnames = sorted(rvars & (keep | lvars))
            left = self.bindings(expr.left, frozenset(lnames))
            right = self.bindings(expr.right, frozenset(rnames))

            shared = sorted(lvars & rvars)
            if not keep:
                # Both sides are keyed by exactly the shared variables, so the
                # total is a sum of products over their keys.
                if len(right) < len(left):
                    left, right = right, left
                total = sum(map(mul, left.values(), map(right.get, left, repeat(0))))
                if total > self.cap:
                    raise OracleBlowupError(total, self.cap)
                result = {(): total} if total else {}
            elif keep <= lvars or keep <= rvars:
                # One side adds no output variable, so it was asked for exactly
                # the shared variables: its map is already the flat per-key sum
                # that scales the other side's rows, which carry every kept variable.
                if not keep <= lvars:
                    left, lnames, right = right, rnames, left
                keys = _column_keys(left, lnames, shared)
                counts = list(map(mul, left.values(), map(right.get, keys, repeat(0))))
                total = sum(counts)
                if total > self.cap:
                    raise OracleBlowupError(total, self.cap)
                # Each row that found a partner, re-projected onto the kept variables.
                out = _column_keys(left, lnames, names)
                result = {}
                for key, n in compress(zip(out, counts), counts):
                    result[key] = result.get(key, 0) + n
            else:
                lout = [v for v in names if v in lvars]
                rout = [v for v in names if v not in lvars]
                lgroups = _group(left, _projector(lnames, shared), _tuple_projector(lnames, lout))
                rgroups = _group(right, _projector(rnames, shared), _tuple_projector(rnames, rout))
                matched = [
                    (lg, rg) for k, lg in lgroups.items() if (rg := rgroups.get(k)) is not None
                ]
                total = sum(sum(lg.values()) * sum(rg.values()) for lg, rg in matched)
                if total > self.cap:
                    raise OracleBlowupError(total, self.cap)

                arrange = _projector(lout + rout, names)
                result = {}
                for lg, rg in matched:
                    for lpart, ln in lg.items():
                        for rpart, rn in rg.items():
                            key = arrange(lpart + rpart)
                            result[key] = result.get(key, 0) + ln * rn
        self._maps[(node, keep)] = result
        return result

    def cardinality(self, expr: Expression) -> int:
        """The exact bag size of ``expr``: the sum of its count-only map.

        Raises OracleBlowupError as ``bindings`` does.
        """
        return sum(self.bindings(expr).values())


@dataclass(slots=True)
class CardinalityTrace:
    """Paired real/estimated cardinalities for every node of one plan."""

    query_id: str
    engine: str
    plan: Expression
    tp_real: tuple[float, ...]
    tp_est: tuple[float, ...]
    join_real: tuple[float, ...]
    join_est: tuple[float, ...]
    fallback_used: bool = False  # some node's estimate took the engine's fallback


def trace_plan(
    plan: Expression, estimator: CardinalityEstimator, oracle: Oracle, query_id: str = ""
) -> CardinalityTrace:
    """Real and estimated cardinality vectors for every plan node.

    Estimates come first, so an EstimationError wins over a blow-up; every
    real count, leaf or join, is then ``oracle.cardinality`` of its node.
    Triple-pattern entries are indexed by pattern ordinal, join entries by
    bottom-up join order. Real counts never apply DISTINCT projection.
    """
    tp_est, join_est, fallback_used = estimator.evaluate_plan(plan)

    join_real = tuple(float(oracle.cardinality(node)) for node in join_nodes(plan))
    tp_leaves = sorted(leaves(plan), key=lambda leaf: leaf.pattern.ordinal)
    tp_real = tuple(float(oracle.cardinality(leaf)) for leaf in tp_leaves)
    return CardinalityTrace(
        query_id=query_id,
        engine=estimator.name,
        plan=plan,
        tp_real=tp_real,
        tp_est=tp_est,
        join_real=join_real,
        join_est=join_est,
        fallback_used=fallback_used,
    )
