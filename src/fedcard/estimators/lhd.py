"""LHD cardinality model over VoID statistics.

A triple pattern is estimated as ``t * sel(S) * sel(P) * sel(O)`` with
``t`` the summed triple count of the relevant sources and the slot
selectivities taken from the published case tables (implemented verbatim,
including their unusual denominators). Multi-joins multiply the member
cardinalities by one selectivity factor per join edge.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..expr import Join
from ..query import JoinEdge, JoinKind, TriplePattern, Var
from ..summaries import SourceVoid
from .base import CardinalityEstimator, Engine


def _triples_per_value(
    srcs: Sequence[SourceVoid], predicate: Optional[str], position: str
) -> float:
    """Numerator of a bound-slot selectivity: triples per distinct value at
    the position, summed over the sources (the predicate's triples if bound)."""
    terms = []
    for src in srcs:
        stats = src.stats(predicate)
        if stats is None:
            continue
        distinct = stats.distinct(position)
        if distinct:
            terms.append(stats.triples / distinct)
    return math.fsum(terms)


class LhdEstimator(CardinalityEstimator):
    engine = Engine.LHD

    def tp_card(self, tp: TriplePattern) -> float:
        """Also SemaGrow's leaf estimate, which adopts LHD's formulas."""
        sources = self.sources_for(tp)
        void = self.summaries.void
        srcs = [void.source(name) for name in sources]
        total = sum(src.triples for src in srcs)
        if not total:
            return 0.0
        predicate = tp.bound_predicate()

        # Accumulate the product of selectivity ratios as numerator/denominator
        # so integer-only cases divide exactly.
        num = float(total)
        den = 1.0

        if not isinstance(tp.subject, Var):
            d = self.distinct_values(sources, predicate, "s")
            if d == 0:
                return 0.0
            num *= _triples_per_value(srcs, predicate, "s")
            den *= d
        if predicate is not None:
            found = [src.stats(predicate) for src in srcs]
            n = sum(stats.triples for stats in found if stats is not None)
            num *= n
            den *= total
        if not isinstance(tp.object, Var):
            d = self.distinct_values(sources, predicate, "o")
            if d == 0:
                return 0.0
            num *= _triples_per_value(srcs, predicate, "o")
            den *= d
        return num / den

    def edge_selectivity(self, edge: JoinEdge, left_tp: TriplePattern, right_tp: TriplePattern) -> float:
        """Selectivity of one join edge per the S/O case table.

        Predicate-position joins have no published case and fall through
        to selectivity 1; sides with an unbound predicate substitute the
        source-level distinct count, making that side's ratio 1.
        """
        if edge.kind is JoinKind.PREDICATE_INVOLVED:
            return 1.0
        lsources, rsources = self.sources_for(left_tp), self.sources_for(right_tp)
        lden = self.distinct_values(lsources, None, edge.left_pos)
        rden = self.distinct_values(rsources, None, edge.right_pos)
        if not lden or not rden:
            return 1.0
        lnum = self.distinct_values(lsources, left_tp.bound_predicate(), edge.left_pos)
        rnum = self.distinct_values(rsources, right_tp.bound_predicate(), edge.right_pos)
        return (lnum * rnum) / (lden * rden)

    def join_card(self, node: Join, left_card: float, right_card: float) -> float:
        # Recursive form of the flat multi-join product: edges internal to
        # either side are already folded into its cardinality.
        by_ordinal = {tp.ordinal: tp for tp in node.patterns}
        card = left_card * right_card
        for edge in node.edges:
            card *= self.edge_selectivity(edge, by_ordinal[edge.left], by_ordinal[edge.right])
        return card
