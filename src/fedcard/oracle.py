"""Exact cardinalities by brute-force evaluation (hash joins over leaf matches).

Bag semantics throughout: duplicates are preserved, matching SELECT without
DISTINCT. Leaf bindings come from the union of all registered sources, and
bindings from different sources join freely. A configurable cap on
intermediate bag sizes turns runaway joins into a hard error instead of a
silently truncated (and therefore wrong) count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .estimators.base import CardinalityEstimator, PlanEstimates
from .expr import Expression, Join, Leaf, join_nodes, ordinals, patterns as expr_patterns, variables
from .ntriples import Term
from .query import TriplePattern, Var
from .store import TripleStore, match

DEFAULT_ORACLE_CAP = 10_000_000
ORACLE_CAP_ENV = "FEDCARD_ORACLE_CAP"

Binding = dict  # variable name -> Term


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


def _leaf_bindings(tp: TriplePattern, stores: Sequence[TripleStore]) -> list[Binding]:
    out: list[Binding] = []
    slots = tp.slots()
    for store in stores:
        for triple in match(store, tp):
            values = (triple.subject, triple.predicate, triple.object)
            binding: Binding = {}
            for (_, slot), value in zip(slots, values):
                if isinstance(slot, Var):
                    binding[slot.name] = value
            out.append(binding)
    return out


def _hash_join(left: list[Binding], right: list[Binding], shared: tuple[str, ...], cap: int) -> list[Binding]:
    if not shared:
        size = len(left) * len(right)
        if size > cap:
            raise OracleBlowupError(size, cap)
        return [{**l, **r} for l in left for r in right]

    build, probe, build_is_left = (left, right, True) if len(left) <= len(right) else (right, left, False)
    table: dict[tuple[Term, ...], list[Binding]] = {}
    for b in build:
        table.setdefault(tuple(b[v] for v in shared), []).append(b)

    size = 0
    for b in probe:
        size += len(table.get(tuple(b[v] for v in shared), ()))
        if size > cap:
            raise OracleBlowupError(size, cap)

    out = []
    for b in probe:
        for other in table.get(tuple(b[v] for v in shared), ()):
            merged = {**other, **b} if build_is_left else {**b, **other}
            out.append(merged)
    return out


def _shared_vars(expr: Join) -> tuple[str, ...]:
    return tuple(sorted(variables(expr.left) & variables(expr.right)))


def true_tp_card(
    tp: TriplePattern,
    stores: Sequence[TripleStore],
    sources: Optional[frozenset[str]] = None,
) -> int:
    """Exact cardinality of one pattern, summed over (selected) sources."""
    total = 0
    for store in stores:
        if sources is not None and store.source_name not in sources:
            continue
        total += len(match(store, tp))
    return total


class Oracle:
    """Caching evaluator over a fixed store set.

    Natural joins are associative and commutative under bag semantics, so
    results are cached by the set of leaf ordinals an expression covers.
    """

    def __init__(self, stores: Sequence[TripleStore], cap: Optional[int] = None):
        self.stores = tuple(stores)
        self.cap = default_cap() if cap is None else cap
        self._cache: dict[frozenset[int], list[Binding]] = {}

    def bindings(self, expr: Expression) -> list[Binding]:
        key = ordinals(expr)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        if isinstance(expr, Leaf):
            result = _leaf_bindings(expr.pattern, self.stores)
            if len(result) > self.cap:
                raise OracleBlowupError(len(result), self.cap)
        else:
            left = self.bindings(expr.left)
            right = self.bindings(expr.right)
            result = _hash_join(left, right, _shared_vars(expr), self.cap)
        self._cache[key] = result
        return result

    def cardinality(self, expr: Expression) -> int:
        return len(self.bindings(expr))


def evaluate_expression(
    expr: Expression,
    stores: Sequence[TripleStore],
    cap: Optional[int] = None,
) -> list[Binding]:
    """Bag of bindings produced by the expression over all stores.

    Leaves are told apart by pattern ordinal, as in ``Oracle``.
    """
    return Oracle(stores, cap).bindings(expr)


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
    tp_fallback: tuple[bool, ...] = ()
    join_fallback: tuple[bool, ...] = ()

    @property
    def fallback_used(self) -> bool:
        return any(self.tp_fallback) or any(self.join_fallback)


def trace_plan(
    plan: Expression,
    estimator: CardinalityEstimator,
    stores: Sequence[TripleStore],
    query_id: str = "",
    oracle: Optional[Oracle] = None,
) -> CardinalityTrace:
    """Real and estimated cardinality vectors for every plan node.

    Triple-pattern entries are indexed by pattern ordinal, join entries by
    bottom-up join order. Real counts never apply DISTINCT projection.
    """
    if oracle is None:
        oracle = Oracle(stores)
    estimates: PlanEstimates = estimator.evaluate_plan(plan)

    tps = sorted(expr_patterns(plan), key=lambda tp: tp.ordinal)
    tp_real = tuple(float(true_tp_card(tp, stores)) for tp in tps)
    tp_est = tuple(estimates.tp_est[tp.ordinal] for tp in tps)
    tp_fallback = tuple(estimates.tp_fallback[tp.ordinal] for tp in tps)

    join_real = tuple(float(oracle.cardinality(node)) for node in join_nodes(plan))
    return CardinalityTrace(
        query_id=query_id,
        engine=estimator.name,
        plan=plan,
        tp_real=tp_real,
        tp_est=tp_est,
        join_real=join_real,
        join_est=tuple(estimates.join_est),
        tp_fallback=tp_fallback,
        join_fallback=tuple(estimates.join_fallback),
    )
