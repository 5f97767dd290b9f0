"""Greedy left-deep planning and plan-quality classification.

The planner starts from the connected pattern with the smallest estimated
cardinality and repeatedly extends the left side with the connected
remaining pattern whose extension join has the smallest estimate;
disconnected patterns are appended last as cartesian joins. Classification
checks whether, at every step, the real cardinality of the chosen join was
minimal among the joins executable at that step.
"""

from __future__ import annotations

import enum
from typing import Callable

from .estimators.base import CardinalityEstimator
from .expr import Expression, Join, Leaf, is_left_deep, join_nodes
from .query import BasicGraphPattern

CardFn = Callable[[Expression], float]


class PlanClass(enum.Enum):
    OPTIMAL = "OptP"
    SUB_OPTIMAL = "subOpt"
    ONLY_PLAN = "OnlyP"
    FAILED = "Failed"


def _connected(a: Leaf, b: Leaf) -> bool:
    return not a.variables.isdisjoint(b.variables)


def _executable(left: Expression, remaining: list[Leaf]) -> list[Leaf]:
    """Remaining leaves that join the left side; all of them if none does."""
    return [leaf for leaf in remaining if not leaf.variables.isdisjoint(left.variables)] or remaining


def greedy_left_deep_plan(bgp: BasicGraphPattern, card: CardFn) -> Expression:
    """Build a left-deep plan, greedily minimizing estimated cardinalities.

    ``card`` maps a leaf or partial plan to its estimated cardinality;
    extension steps re-estimate the grown left side through it. Ties break
    on the lowest pattern ordinal, keeping plans deterministic.
    """
    if not bgp.patterns:
        raise ValueError("cannot plan an empty BGP")
    # Each pattern's leaf is built once; every candidate join reuses it.
    remaining = [Leaf(tp) for tp in bgp.patterns]
    if len(remaining) == 1:
        return remaining[0]

    leaf_cards = {leaf: card(leaf) for leaf in remaining}
    startable = [
        leaf for leaf in remaining if any(_connected(leaf, o) for o in remaining if o is not leaf)
    ] or remaining
    plan: Expression = min(startable, key=lambda leaf: (leaf_cards[leaf], leaf.pattern.ordinal))
    remaining.remove(plan)

    while remaining:
        extensions = [Join(plan, leaf) for leaf in _executable(plan, remaining)]
        plan = min(extensions, key=lambda node: (card(node), node.right.pattern.ordinal))
        remaining.remove(plan.right)
    return plan


def classify_plan(plan: Expression, real_card: CardFn) -> PlanClass:
    """Classify a left-deep plan against real cardinalities.

    Plans with at most one join are the only possible plan. Otherwise the
    plan is optimal iff at every step the chosen join's real cardinality
    ties the minimum over the joins executable at that step (joins of the
    current left side with a connected remaining pattern; cartesian
    candidates only once no connected pattern remains). Each step's chosen
    join is the plan's own node; only its rivals are built. An error from
    ``real_card`` (an oracle blow-up) propagates to the caller.
    """
    if not is_left_deep(plan):
        raise ValueError("classification expects a left-deep plan")
    steps = join_nodes(plan)
    if len(steps) <= 1:
        return PlanClass.ONLY_PLAN

    remaining = [step.right for step in steps]
    for step in steps:
        left, chosen = step.left, step.right
        candidates = _executable(left, remaining)
        if chosen not in candidates:
            return PlanClass.SUB_OPTIMAL
        chosen_real = real_card(step)
        others = [real_card(Join(left, leaf)) for leaf in candidates if leaf != chosen]
        if chosen_real > min(others, default=chosen_real):
            return PlanClass.SUB_OPTIMAL
        remaining.remove(chosen)
    return PlanClass.OPTIMAL


def tp_sources_count(bgp: BasicGraphPattern, estimator: CardinalityEstimator) -> int:
    """Total triple-pattern-wise sources the estimator selects across the query (#T)."""
    return sum(len(estimator.sources_for(tp)) for tp in bgp.patterns)
