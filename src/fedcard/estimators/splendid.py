"""SPLENDID cardinality model over VoID statistics.

Per-source triple pattern formulas use reciprocal-of-distinct-count
selectivities. Same-subject stars with bound predicates multiply the
minimum bound-object cardinality by the subject-selectivity-scaled
cardinalities of the unbound-object members. Join cardinality is
``card1 * card2 * sel`` with sel the average join-variable selectivity.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..expr import Expression, patterns as expr_patterns
from ..query import JoinEdge, TriplePattern, Var
from .base import CardinalityEstimator, Engine, void_leaf_card


class SplendidEstimator(CardinalityEstimator):
    engine = Engine.SPLENDID

    def tp_card(self, tp: TriplePattern, sources: Optional[frozenset[str]] = None) -> float:
        if sources is None:
            sources = self.sources_for(tp)
        void = self.summaries.void
        return sum(void_leaf_card(tp, void.source(name)) for name in sources)

    def star_card(
        self,
        star: Sequence[TriplePattern],
        sources: Optional[frozenset[str]] = None,
    ) -> float:
        """Same-subject-variable star with bound predicates, summed per source."""
        if len(star) < 2:
            raise ValueError("a star needs at least two patterns")
        subjects = {tp.subject for tp in star}
        if len(subjects) != 1 or not isinstance(next(iter(subjects)), Var):
            raise ValueError("star patterns must share one subject variable")
        if any(isinstance(tp.predicate, Var) for tp in star):
            raise ValueError("star estimation requires bound predicates")
        if sources is None:
            sources = frozenset().union(*(self.sources_for(tp) for tp in star))

        void = self.summaries.void
        total = 0.0
        for name in sources:
            src = void.source(name)
            bound_cards = [
                void_leaf_card(tp, src) for tp in star if not isinstance(tp.object, Var)
            ]
            factor = min(bound_cards) if bound_cards else 1.0
            sel_s = 1.0 / src.distinct_subjects if src.distinct_subjects else 0.0
            for tp in star:
                if isinstance(tp.object, Var):
                    factor *= sel_s * void_leaf_card(tp, src)
            total += factor
        return total

    def join_selectivity(
        self,
        left: Expression,
        right: Expression,
        edges: tuple[JoinEdge, ...],
    ) -> float:
        """Mean over shared variables of the mean of both sides' selectivities."""
        if not edges:
            return 1.0
        left_tps = {tp.ordinal: tp for tp in expr_patterns(left)}
        right_tps = {tp.ordinal: tp for tp in expr_patterns(right)}
        per_variable: dict[str, tuple[list[float], list[float]]] = {}
        for edge in edges:
            lsel, rsel = per_variable.setdefault(edge.variable, ([], []))
            if edge.left in left_tps:
                lsel.append(self.position_selectivity(left_tps[edge.left], edge.left_pos))
                rsel.append(self.position_selectivity(right_tps[edge.right], edge.right_pos))
            else:
                lsel.append(self.position_selectivity(left_tps[edge.right], edge.right_pos))
                rsel.append(self.position_selectivity(right_tps[edge.left], edge.left_pos))
        sels = []
        for lsel, rsel in per_variable.values():
            left_mean = sum(lsel) / len(lsel)
            right_mean = sum(rsel) / len(rsel)
            sels.append((left_mean + right_mean) / 2.0)
        return sum(sels) / len(sels)

    def join_card(
        self,
        left: Expression,
        right: Expression,
        left_card: float,
        right_card: float,
        edges: tuple[JoinEdge, ...],
    ) -> float:
        return left_card * right_card * self.join_selectivity(left, right, edges)
