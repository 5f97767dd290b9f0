"""CostFed cardinality model.

A triple pattern is estimated per relevant source from its VoID counts,
with the same per-source formula as SPLENDID, and the terms are summed; a
fully bound pattern with a relevant source counts 1. Joins are estimated
as ``M(E1) * M(E2) * min(C(E1), C(E2))`` where the multi-valued predicate
factor M applies to leaf operands only and defaults to 1.
"""

from __future__ import annotations

import math

from ..expr import Expression, Join, Leaf
from ..query import JoinEdge, TriplePattern, Var
from .base import CardinalityEstimator, Engine, join_positions, void_leaf_card

SQRT1_2 = 1.0 / math.sqrt(2.0)


class CostFedEstimator(CardinalityEstimator):
    engine = Engine.COSTFED

    def tp_card(self, tp: TriplePattern) -> float:
        sources = self.sources_for(tp)
        if not sources:
            return 0.0
        if not tp.var_names:
            return 1.0
        void = self.summaries.void
        return math.fsum(void_leaf_card(tp, void.source(name)) for name in sources)

    def multivalued_factor(
        self, expr: Expression, card: float, edges: tuple[JoinEdge, ...]
    ) -> float:
        """M(E); defined for leaf expressions only, joins always get 1."""
        if not isinstance(expr, Leaf):
            return 1.0
        tp = expr.pattern
        predicate = tp.bound_predicate()
        if predicate is None:
            return 1.0
        bound_s = not isinstance(tp.subject, Var)
        bound_o = not isinstance(tp.object, Var)
        if not bound_s and bound_o:
            return SQRT1_2
        if bound_s or bound_o:
            return 1.0

        positions = join_positions(tp.ordinal, edges)
        for position in ("s", "o"):
            if position in positions:
                dist = self.distinct_values(self.sources_for(tp), predicate, position)
                return card / dist if dist else 1.0
        return 1.0

    def join_card(self, node: Join, left_card: float, right_card: float) -> float:
        m_left = self.multivalued_factor(node.left, left_card, node.edges)
        m_right = self.multivalued_factor(node.right, right_card, node.edges)
        return m_left * m_right * min(left_card, right_card)

