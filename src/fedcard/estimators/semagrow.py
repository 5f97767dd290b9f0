"""SemaGrow cardinality model.

Leaf cardinalities reuse the LHD formulas. The join selectivity of a leaf
is the minimum of ``1/d_i`` over its join attributes (distinct-value
counts of the joined positions); the join selectivity of a join is the
minimum of its children's, so the minimum over its leaves, and join
cardinality is
``card(E1) * card(E2) * JoinSel(E1 JOIN E2)``.

A leaf's join attributes are the positions joined by any edge inside the
expression currently being estimated, so nesting can only shrink the
selectivity (the min-chain is monotone non-increasing).
"""

from __future__ import annotations

from typing import Sequence

from ..expr import Join, internal_edges
from ..query import JoinEdge, TriplePattern
from .base import CardinalityEstimator, Engine, join_positions
from .lhd import LhdEstimator


class SemaGrowEstimator(CardinalityEstimator):
    engine = Engine.SEMAGROW
    tp_card = LhdEstimator.tp_card

    def leaf_join_selectivity(self, tp: TriplePattern, edges: Sequence[JoinEdge]) -> float:
        """min over the leaf's join attributes of 1/d_i; 1 when it has none.

        A zero distinct count contributes 1 (guard).
        """
        candidates = [1.0]
        for position in join_positions(tp.ordinal, edges):
            candidates.append(self.position_selectivity(tp, position))
        return min(candidates)

    def join_card(self, node: Join, left_card: float, right_card: float) -> float:
        scope = internal_edges(node)
        sel = min(self.leaf_join_selectivity(tp, scope) for tp in node.patterns)
        return left_card * right_card * sel
