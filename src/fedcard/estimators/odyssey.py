"""Odyssey cardinality model over characteristic sets and pairs.

Same-subject stars with bound predicates are estimated from the
characteristic sets containing the star's predicate set; star pairs
linked by a single predicate use the characteristic-pair statistics.
Plan nodes that fit neither shape fall back to the base class, SemaGrow
(min-selectivity joins, leaves by the LHD formula), and are flagged.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..expr import Join
from ..query import Slot, TriplePattern, Var
from .base import Engine
from .semagrow import SemaGrowEstimator


class OdysseyEstimator(SemaGrowEstimator):
    """Odyssey's estimates come from the flagged hooks; the inherited
    ``tp_card`` and ``join_card`` are its SemaGrow fallback."""

    engine = Engine.ODYSSEY

    # -- characteristic-set formulas --------------------------------------

    def star_card(
        self, predicates: Sequence[str] | frozenset[str], sources: frozenset[str]
    ) -> float:
        """Cardinality of a subject-rooted star over a bound predicate set.

        A one-predicate star is read from VoID: summed over the sets that
        hold p, occurrences(p) counts every triple with predicate p, so the
        characteristic-set sum is VoID's triple count of p.
        """
        pred_set = frozenset(predicates)
        if not pred_set:
            raise ValueError("star predicate set must be non-empty")
        if len(pred_set) == 1:
            (p,) = pred_set
            void = self.summaries.void
            found = [void.source(name).stats(p) for name in sources]
            return float(sum(stats.triples for stats in found if stats is not None))
        terms = []
        for name in sources:
            src = self.summaries.charsets.source(name)
            for charset, stats in src.charsets.items():
                if not pred_set <= charset:
                    continue
                numerator = 1
                for p in pred_set:
                    numerator *= stats.occurrences.get(p, 0)
                terms.append(numerator / stats.count ** (len(pred_set) - 1))
        return math.fsum(terms)

    def linked_star_card(
        self,
        star_predicates: Sequence[str] | frozenset[str],
        target_predicates: Sequence[str] | frozenset[str],
        link_predicate: str,
        sources: frozenset[str],
    ) -> float:
        """Cardinality of two stars linked subject-to-subject by one predicate.

        The link predicate must belong to the first star's predicate set.
        Returns 0 when no characteristic-pair entry matches.
        """
        p_k = frozenset(star_predicates)
        p_l = frozenset(target_predicates)
        if link_predicate not in p_k:
            raise ValueError("link predicate must be part of the first star")
        terms = []
        for name in sources:
            src = self.summaries.charsets.source(name)
            for (c_i, c_j, p), link_count in src.charpairs.items():
                if p != link_predicate or not (p_k <= c_i and p_l <= c_j):
                    continue
                stats_i = src.charsets[c_i]
                stats_j = src.charsets[c_j]
                numerator = link_count
                for pk in p_k - {link_predicate}:
                    numerator *= stats_i.occurrences.get(pk, 0)
                for pl in p_l:
                    numerator *= stats_j.occurrences.get(pl, 0)
                denominator = stats_i.count ** (len(p_k) - 1) * stats_j.count ** len(p_l)
                terms.append(numerator / denominator)
        return math.fsum(terms)

    # -- shape detection ---------------------------------------------------

    def _star_group(self, tps: Sequence[TriplePattern]) -> Optional[tuple[Var, frozenset[str]]]:
        """(subject var, predicate set) if the patterns form an estimable star."""
        subjects = {tp.subject for tp in tps}
        if len(subjects) != 1:
            return None
        subject = next(iter(subjects))
        if not isinstance(subject, Var):
            return None
        predicates = []
        for tp in tps:
            p = tp.bound_predicate()
            if p is None:
                return None
            predicates.append(p)
        return subject, frozenset(predicates)

    def _star_sources(self, tps: Sequence[TriplePattern]) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for tp in tps:
            out |= self.sources_for(tp)
        return out

    def _linked_star(self, tps: Sequence[TriplePattern]):
        """Detect two stars connected by exactly one link pattern.

        Returns (P_k, P_l, link predicate, sources) or None. The link is a
        pattern of one group whose object is the other group's subject
        variable; any further cross-group sharing disqualifies the shape.
        """
        groups: dict[Slot, list[TriplePattern]] = {}
        for tp in tps:
            groups.setdefault(tp.subject, []).append(tp)
        if len(groups) != 2:
            return None
        (subj_a, group_a), (subj_b, group_b) = groups.items()
        star_a = self._star_group(group_a)
        star_b = self._star_group(group_b)
        if star_a is None or star_b is None:
            return None

        links = []
        for source_star, target_star, group in (
            (star_a, star_b, group_a),
            (star_b, star_a, group_b),
        ):
            target_var = target_star[0]
            for tp in group:
                if isinstance(tp.object, Var) and tp.object == target_var:
                    links.append((source_star, target_star, tp))
        if len(links) != 1:
            return None
        (_, p_k), (target_var, p_l), link_tp = links[0]

        shared = {v for tp in group_a for v in tp.var_names} & {
            v for tp in group_b for v in tp.var_names
        }
        if shared != {target_var.name}:
            return None
        return p_k, p_l, link_tp.bound_predicate(), self._star_sources(tps)

    # -- plan-node estimation ----------------------------------------------

    def _leaf_card_flagged(self, tp: TriplePattern) -> tuple[float, bool]:
        predicate = tp.bound_predicate()
        if (
            predicate is not None
            and isinstance(tp.subject, Var)
            and isinstance(tp.object, Var)
        ):
            return self.star_card([predicate], self.sources_for(tp)), False
        return super().tp_card(tp), True

    def _join_card_flagged(
        self, node: Join, left_card: float, right_card: float
    ) -> tuple[float, bool]:
        covered = node.patterns
        star = self._star_group(covered)
        if star is not None:
            return self.star_card(star[1], self._star_sources(covered)), False
        linked = self._linked_star(covered)
        if linked is not None:
            return self.linked_star_card(*linked), False
        return super().join_card(node, left_card, right_card), True
