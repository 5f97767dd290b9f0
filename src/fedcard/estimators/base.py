"""Shared estimator plumbing: engine registry, source selection, VoID lookups, plan walk."""

from __future__ import annotations

import enum
import math
from typing import Iterable, Optional, Sequence

from ..expr import Expression, Join, Leaf, join_nodes, leaves
from ..query import JoinEdge, TriplePattern, Var
from ..store import TripleStore, match
from ..summaries import SourceVoid, SummarySet


class Engine(enum.Enum):
    COSTFED = "costfed"
    SPLENDID = "splendid"
    LHD = "lhd"
    SEMAGROW = "semagrow"
    ODYSSEY = "odyssey"


ENGINE_NAMES = tuple(e.value for e in Engine)


class EstimationError(RuntimeError):
    pass


def select_sources(tp: TriplePattern, stores: Sequence[TripleStore]) -> frozenset[str]:
    """Exact source selection: a source is relevant iff it holds a match."""
    return frozenset(s.source_name for s in stores if len(match(s, tp)))


def void_leaf_card(tp: TriplePattern, src: SourceVoid) -> float:
    """Triple-pattern estimate within one source from its VoID counts.

    Reciprocal-of-distinct-count selectivities per bound slot, read from
    the pattern's VoID record (``SourceVoid.stats``); SPLENDID's case
    table, also CostFed's leaf formula.
    """
    stats = src.stats(tp.bound_predicate())
    if stats is None or not stats.triples:
        return 0.0
    bound_s = not isinstance(tp.subject, Var)
    bound_o = not isinstance(tp.object, Var)
    if bound_s and bound_o:
        # Fully bound patterns reuse the source's (s,?,o) estimate; the case
        # table has no own entry for them.
        return src.triples / (src.distinct_subjects * src.distinct_objects)
    if bound_s:
        return stats.triples / stats.distinct_subjects
    if bound_o:
        return stats.triples / stats.distinct_objects
    return float(stats.triples)


def join_positions(ordinal: int, edges: Iterable[JoinEdge]) -> list[str]:
    """Positions (s, p or o) at which the pattern ``ordinal`` meets ``edges``, one per edge."""
    positions = []
    for edge in edges:
        if edge.left == ordinal:
            positions.append(edge.left_pos)
        elif edge.right == ordinal:
            positions.append(edge.right_pos)
    return positions


def _checked(value: float) -> float:
    if not math.isfinite(value) or value < 0:
        raise EstimationError(f"estimator produced invalid cardinality {value!r}")
    return float(value)


class CardinalityEstimator:
    """Base class; engines override leaf/join estimation.

    Every node's estimate, leaf or join, is checked to be a non-negative
    finite real before anything reads it; an invalid one raises
    EstimationError. Rounding is left to presentation. The summaries and
    stores are fixed once built. Each instance memoises two pure functions
    of them: every distinct plan node's estimate and every distinct
    pattern's source selection are computed once per instance. Both memos
    are written idempotently (a racing miss stores an equal value), so an
    instance is safe to share, like a store's match memo.
    """

    engine: Engine

    def __init__(self, summaries: SummarySet, stores: Sequence[TripleStore]):
        self.summaries = summaries
        self.stores = tuple(stores)
        self._node_estimates: dict[Expression, tuple[float, bool]] = {}
        self._selected_sources: dict[tuple[str, str, str], frozenset[str]] = {}

    @property
    def name(self) -> str:
        return self.engine.value

    def sources_for(self, tp: TriplePattern) -> frozenset[str]:
        """``select_sources`` memoised by the pattern's ``slot_key``, not its ordinal."""
        sources = self._selected_sources.get(tp.slot_key)
        if sources is None:
            sources = self._selected_sources[tp.slot_key] = select_sources(tp, self.stores)
        return sources

    def distinct_values(
        self, sources: frozenset[str], predicate: Optional[str], position: str
    ) -> int:
        """Distinct values at a join position (s, p or o), summed over sources.

        Each source's VoID record (``SourceVoid.stats``) gives its count: the
        predicate's in each source that has it, the source's without one.
        """
        void = self.summaries.void
        count = 0
        for name in sources:
            stats = void.source(name).stats(predicate)
            if stats is not None:
                count += stats.distinct(position)
        return count

    def position_selectivity(self, tp: TriplePattern, position: str) -> float:
        """1 / distinct values at one position of a pattern; 1 when there are none."""
        count = self.distinct_values(self.sources_for(tp), tp.bound_predicate(), position)
        return 1.0 / count if count else 1.0

    # -- per-engine hooks ------------------------------------------------

    def tp_card(self, tp: TriplePattern) -> float:
        raise NotImplementedError

    def join_card(self, node: Join, left_card: float, right_card: float) -> float:
        raise NotImplementedError

    # -- flagged variants; engines with fallback behaviour override ------

    def _leaf_card_flagged(self, tp: TriplePattern) -> tuple[float, bool]:
        return self.tp_card(tp), False

    def _join_card_flagged(
        self, node: Join, left_card: float, right_card: float
    ) -> tuple[float, bool]:
        return self.join_card(node, left_card, right_card), False

    # -- generic bottom-up plan walk --------------------------------------

    def _estimate(self, node: Expression) -> tuple[float, bool]:
        """The checked ``(estimate, fallback)`` of ``node``, computed once per node.

        Children are estimated before their join (post-order), and every
        estimate is checked before it is memoised, so a memoised node
        vouches for every node below it. An exception is never memoised: it
        recurs on every call that reaches the node.
        """
        found = self._node_estimates.get(node)
        if found is None:
            if isinstance(node, Leaf):
                card, fallback = self._leaf_card_flagged(node.pattern)
            else:
                left = self._estimate(node.left)[0]
                right = self._estimate(node.right)[0]
                card, fallback = self._join_card_flagged(node, left, right)
            found = self._node_estimates[node] = (_checked(card), fallback)
        return found

    def evaluate_plan(
        self, plan: Expression
    ) -> tuple[tuple[float, ...], tuple[float, ...], bool]:
        """``(tp_est, join_est, fallback_used)`` of every node of ``plan``.

        Leaf estimates come in pattern-ordinal order and join estimates
        bottom-up; ``fallback_used`` says whether some node's estimate took
        the engine's fallback. One walk estimates the plan, so the first
        invalid estimate in post-order raises; each node is then a lookup.
        """
        self._estimate(plan)
        memo = self._node_estimates
        tp_leaves = sorted(leaves(plan), key=lambda leaf: leaf.pattern.ordinal)
        joins = join_nodes(plan)
        tp_est = tuple(memo[leaf][0] for leaf in tp_leaves)
        join_est = tuple(memo[node][0] for node in joins)
        return tp_est, join_est, any(memo[node][1] for node in (*tp_leaves, *joins))

    def expression_card(self, expr: Expression) -> float:
        """Checked estimate of an arbitrary (partial) plan; drives the greedy planner."""
        return self._estimate(expr)[0]
