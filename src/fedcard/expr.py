"""Join expression trees over triple patterns.

An expression is either a leaf (one pattern) or a join of two
sub-expressions. A join derives the edges that connect its sides when it
is built; a join with zero edges is a cartesian product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .query import JoinEdge, TriplePattern, cached_hash, edges_between, rebuild


# A node caches its hash and what the per-row layers read of it (its
# patterns, ordinals and variables, and a join's edges) at construction, as
# the query objects do (see ``query.cached_hash``). A join builds its facts
# from its children's.


@dataclass(frozen=True, slots=True)
class Leaf:
    pattern: TriplePattern
    _hash: int = field(init=False, compare=False, repr=False)
    patterns: tuple[TriplePattern, ...] = field(init=False, compare=False, repr=False)
    ordinals: frozenset[int] = field(init=False, compare=False, repr=False)
    variables: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tp = self.pattern
        setattr_ = object.__setattr__
        setattr_(self, "_hash", hash((tp,)))
        setattr_(self, "patterns", (tp,))
        setattr_(self, "ordinals", frozenset((tp.ordinal,)))
        setattr_(self, "variables", tp.var_names)

    __hash__ = cached_hash
    __reduce__ = rebuild


@dataclass(frozen=True, slots=True)
class Join:
    """``left JOIN right``; ``edges`` joins each left pattern to each right
    pattern it shares a variable with, so ``edge.left`` is the ordinal of a
    pattern in ``left`` and ``edge.right`` of one in ``right``."""

    left: "Expression"
    right: "Expression"
    edges: tuple[JoinEdge, ...] = field(init=False, compare=False)
    _hash: int = field(init=False, compare=False, repr=False)
    patterns: tuple[TriplePattern, ...] = field(init=False, compare=False, repr=False)
    ordinals: frozenset[int] = field(init=False, compare=False, repr=False)
    variables: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        setattr_ = object.__setattr__
        edges: list[JoinEdge] = []
        for ltp in left.patterns:
            for rtp in right.patterns:
                edges.extend(edges_between(ltp, rtp))
        setattr_(self, "edges", tuple(edges))
        setattr_(self, "_hash", hash((left, right)))
        setattr_(self, "patterns", left.patterns + right.patterns)
        setattr_(self, "ordinals", left.ordinals | right.ordinals)
        setattr_(self, "variables", left.variables | right.variables)

    __hash__ = cached_hash
    __reduce__ = rebuild


Expression = Union[Leaf, Join]


def leaves(expr: Expression) -> list[Leaf]:
    """Leaves in left-to-right order."""
    if isinstance(expr, Leaf):
        return [expr]
    return leaves(expr.left) + leaves(expr.right)


def ordinals(expr: Expression) -> frozenset[int]:
    return expr.ordinals


def join_nodes(expr: Expression) -> list[Join]:
    """Join nodes in bottom-up (post-order) order."""
    if isinstance(expr, Leaf):
        return []
    return join_nodes(expr.left) + join_nodes(expr.right) + [expr]


def internal_edges(expr: Expression) -> list[JoinEdge]:
    """Edges applied somewhere inside the expression (union over join nodes)."""
    out: list[JoinEdge] = []
    for node in join_nodes(expr):
        out.extend(node.edges)
    return out


def is_left_deep(expr: Expression) -> bool:
    while isinstance(expr, Join):
        if not isinstance(expr.right, Leaf):
            return False
        expr = expr.left
    return True


def describe(expr: Expression) -> str:
    """Compact one-line rendering, e.g. ``((tp0 JOIN tp1) JOIN tp2)``."""
    if isinstance(expr, Leaf):
        return f"tp{expr.pattern.ordinal}"
    return f"({describe(expr.left)} JOIN {describe(expr.right)})"
