"""Reference code that only the tests call.

``evaluate_expression`` expands the oracle's multiplicity map into a bag of
binding dicts; ``decode_keys`` decodes the term-id keys of such a map;
``lhd_multi_join_card`` is LHD's flat multi-join formula, the reference for
its recursive ``join_card``; ``semagrow_join_card`` is SemaGrow's
min-chain over the join tree, the reference for its ``join_card``;
``charset_star_card`` is Odyssey's star formula
over every characteristic set, the reference for ``star_card``; ``join_edges`` lists every join edge of a BGP;
``match_triples`` decodes the id rows of ``store.match``;
``scanner_ntriples`` is the N-Triples reader that reads every line term by
term with the token scanner, the reference for ``parse_ntriples``, and
``EOL`` the line-end expression, the reference for ``split_lines``;
``average_ranks_by_sorting`` and
``brute_force_spearman_p`` are the references for the average ranks and the
exact Spearman p of ``fedcard.stats``.
"""

import itertools
import math
import re
import statistics
from operator import mul
from typing import Mapping, Optional, Sequence

from fedcard.expr import Expression, Join, Leaf, internal_edges
from fedcard.ntriples import NTriplesParseError, Term, TermKind, Triple, _LineScanner
from fedcard.oracle import Oracle
from fedcard.query import BasicGraphPattern, JoinEdge, TriplePattern, edges_between
from fedcard.store import TripleStore, match, term_of

# The line ends of N-Triples as one regular expression: the reference for
# ``ntriples.split_lines``.
EOL = re.compile(r"\r\n|\r|\n")


def evaluate_expression(
    expr: Expression,
    stores: Sequence[TripleStore],
    cap: Optional[int] = None,
) -> list[dict[str, Term]]:
    """Bag of bindings produced by the expression over all stores.

    The expansion of the oracle's unprojected multiplicity map; leaves are
    told apart by pattern ordinal, as in ``Oracle``.
    """
    names = sorted(expr.variables)
    counts = decode_keys(Oracle(stores, cap).bindings(expr, frozenset(names)))
    return [dict(zip(names, row)) for row, n in counts.items() for _ in range(n)]


def decode_keys(counts: Mapping[int | tuple[int, ...], int]) -> dict[tuple[Term, ...], int]:
    """``counts`` with every key decoded to the tuple of its terms.

    A key is a bare term id (one kept variable) or a tuple of ids.
    """
    return {
        (term_of(key),) if type(key) is int else tuple(map(term_of, key)): n
        for key, n in counts.items()
    }


def lhd_multi_join_card(
    lhd,
    leaves: Sequence[TriplePattern],
    cards: Sequence[float],
    edges: Sequence[JoinEdge],
) -> float:
    """LHD's flat form: product of member cardinalities times all edge selectivities."""
    by_ordinal = {tp.ordinal: tp for tp in leaves}
    card = 1.0
    for c in cards:
        card *= c
    for edge in edges:
        card *= lhd.edge_selectivity(edge, by_ordinal[edge.left], by_ordinal[edge.right])
    return card


def semagrow_join_selectivity(semagrow, expr: Expression, edges: Sequence[JoinEdge]) -> float:
    """SemaGrow's JoinSel: a leaf's own, or the minimum of a join's two children's."""
    if isinstance(expr, Leaf):
        return semagrow.leaf_join_selectivity(expr.pattern, edges)
    return min(
        semagrow_join_selectivity(semagrow, expr.left, edges),
        semagrow_join_selectivity(semagrow, expr.right, edges),
    )


def semagrow_join_card(semagrow, node: Join, left_card: float, right_card: float) -> float:
    """SemaGrow's join estimate, with JoinSel recursed through both children."""
    scope = internal_edges(node)
    sel = min(
        semagrow_join_selectivity(semagrow, node.left, scope),
        semagrow_join_selectivity(semagrow, node.right, scope),
    )
    return left_card * right_card * sel


def charset_star_card(charsets, predicates, sources) -> float:
    """Odyssey's star formula summed over every characteristic set of every source.

    The reference for ``OdysseyEstimator.star_card``, which reads a
    one-predicate star from VoID instead.
    """
    pred_set = frozenset(predicates)
    terms = []
    for name in sources:
        for charset, stats in charsets.source(name).charsets.items():
            if pred_set <= charset:
                numerator = math.prod(stats.occurrences.get(p, 0) for p in pred_set)
                terms.append(numerator / stats.count ** (len(pred_set) - 1))
    return math.fsum(terms)


def join_edges(bgp: BasicGraphPattern) -> list[JoinEdge]:
    """All join edges of a BGP: one per unordered pattern pair per shared variable."""
    out: list[JoinEdge] = []
    patterns = bgp.patterns
    for i in range(len(patterns)):
        for j in range(i + 1, len(patterns)):
            out.extend(edges_between(patterns[i], patterns[j]))
    return out


def match_triples(store: TripleStore, pattern: TriplePattern) -> list[Triple]:
    """The triples behind ``match(store, pattern)``, decoded, in store order."""
    return [Triple(*map(term_of, row)) for row in match(store, pattern)]


def scanner_ntriples(text: str) -> list[Triple]:
    """Every triple of ``text``, each line read term by term by the token scanner.

    Raises NTriplesParseError for the first fault, in reading order.
    """
    triples = []
    for lineno, raw_line in enumerate(EOL.split(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        scanner = _LineScanner(line, lineno)
        subject = scanner.term("subject")
        if subject.kind is TermKind.LITERAL:
            raise NTriplesParseError(lineno, "literal not allowed as subject")
        predicate = scanner.term("predicate")
        if predicate.kind is not TermKind.IRI:
            raise NTriplesParseError(lineno, "predicate must be an IRI")
        obj = scanner.term("object")
        scanner.expect_dot()
        if not scanner.at_end():
            raise NTriplesParseError(lineno, f"trailing content {scanner.rest().strip()!r}")
        triples.append(Triple(subject, predicate, obj))
    return triples


def average_ranks_by_sorting(values: Sequence[float]) -> list[float]:
    """Each value's rank: the mean of the 1-based positions its copies take in sorted order."""
    ordered = sorted(values)
    return [
        statistics.fmean(i for i, v in enumerate(ordered, start=1) if v == value)
        for value in values
    ]


def brute_force_spearman_p(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sided exact Spearman p: the share of all n! orderings of y's ranks
    whose rank covariance with x is at least the observed one in magnitude.

    Centred doubled ranks are integers, so every comparison is exact.
    """
    n = len(x)
    cx, cy = (
        [int(2 * r) - (n + 1) for r in average_ranks_by_sorting(v)] for v in (x, y)
    )
    observed = abs(sum(map(mul, cx, cy)))
    hits = sum(abs(sum(map(mul, cx, perm))) >= observed for perm in itertools.permutations(cy))
    return hits / math.factorial(n)
