"""SPLENDID cardinality model over VoID statistics.

Per-source triple pattern formulas use reciprocal-of-distinct-count
selectivities. Join cardinality is ``card1 * card2 * sel`` with sel the
average join-variable selectivity. SPLENDID's same-subject star grouping
is not modelled: the plan walk estimates a star join by join.
"""

from __future__ import annotations

import math

from ..expr import Join
from ..query import TriplePattern
from .base import CardinalityEstimator, Engine, void_leaf_card


class SplendidEstimator(CardinalityEstimator):
    engine = Engine.SPLENDID

    def tp_card(self, tp: TriplePattern) -> float:
        void = self.summaries.void
        return math.fsum(void_leaf_card(tp, void.source(name)) for name in self.sources_for(tp))

    def join_selectivity(self, node: Join) -> float:
        """Mean over shared variables of the mean of both sides' selectivities."""
        if not node.edges:
            return 1.0
        by_ordinal = {tp.ordinal: tp for tp in node.patterns}
        per_variable: dict[str, tuple[list[float], list[float]]] = {}
        for edge in node.edges:
            lsel, rsel = per_variable.setdefault(edge.variable, ([], []))
            lsel.append(self.position_selectivity(by_ordinal[edge.left], edge.left_pos))
            rsel.append(self.position_selectivity(by_ordinal[edge.right], edge.right_pos))
        sels = []
        for lsel, rsel in per_variable.values():
            left_mean = sum(lsel) / len(lsel)
            right_mean = sum(rsel) / len(rsel)
            sels.append((left_mean + right_mean) / 2.0)
        return sum(sels) / len(sels)

    def join_card(self, node: Join, left_card: float, right_card: float) -> float:
        return left_card * right_card * self.join_selectivity(node)
