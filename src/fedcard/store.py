"""Immutable per-source triple collections over integer term ids.

Every term is interned to a process-wide integer id on first sight, so
equal terms in different stores share one id. The dictionary is keyed by
the term's canonical N-Triples token (``format_term``, ``canonical_token``),
so ingest, save and load move strings and ids only; ``term_of`` decodes a
token to a ``Term`` on first request and keeps it. A store holds its
deduplicated ``(s, p, o)`` id rows in first-seen order and one index,
``by_predicate``; the statistics summaries count what they need from these.
Terms are decoded only at the edges: ``triples`` decodes every row, and
``match`` returns id rows, which ``term_of`` decodes.

Matching is exact: the length of ``match`` is the real cardinality of a
pattern in this source, and each distinct pattern is scanned once per
store. A store also keeps the oracle's leaf maps of every federation whose
first store it is (``oracle.Oracle``), so that each leaf shape is counted
once per federation and its counts live as long as the stores.

A store file (format 2) is one JSON document: the store's own canonical
term tokens in first-seen order and a flat list of indexes into them,
three per triple. N-Triples ingest reads a document into the same shape
(``read_ntriples``), loading brings each token to its canonical form, and
both end in one helper that interns each distinct token once and builds
the store.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .ntriples import (
    NTriplesParseError,
    Term,
    Triple,
    canonical_token,
    format_term,
    parse_term,
    read_ntriples,
)

if TYPE_CHECKING:
    from .query import TriplePattern

STORE_FORMAT_VERSION = 2

IdRow = tuple[int, int, int]

# The process-wide term dictionary over canonical tokens: id -> token and
# token -> id. Both only grow; the lock serialises misses so that equal
# terms never get two ids. _DECODED holds the Term of each id decoded so
# far, so that every reader of one id shares one Term.
_TOKENS: list[str] = []
_IDS: dict[str, int] = {}
_DECODED: dict[int, Term] = {}
_INTERN_LOCK = threading.Lock()


def _intern(token: str) -> int:
    """The process-wide id of a canonical token, assigned on first sight."""
    found = _IDS.get(token)
    if found is None:
        with _INTERN_LOCK:
            found = _IDS.get(token)
            if found is None:
                # Append before publishing, so whoever reads the id finds the token.
                _TOKENS.append(token)
                found = _IDS[token] = len(_TOKENS) - 1
    return found


def term_id(term: Term) -> int:
    """The process-wide id of ``term``, assigned on first sight."""
    found = _intern(format_term(term))
    _DECODED.setdefault(found, term)  # so term_of need not parse it back
    return found


def term_of(term_id: int) -> Term:
    """The term behind a process-wide id, decoded once and then shared."""
    term = _DECODED.get(term_id)
    if term is None:
        # setdefault: a racing first decode still leaves one Term per id.
        term = _DECODED.setdefault(term_id, parse_term(_TOKENS[term_id]))
    return term


def _triple(row: IdRow) -> Triple:
    s, p, o = row
    return Triple(term_of(s), term_of(p), term_of(o))


class TripleStore:
    """Deduplicated id rows for one named source, indexed by predicate."""

    def __init__(self, source_name: str, rows: Iterable[IdRow]):
        self.source_name = source_name
        self.rows: tuple[IdRow, ...] = tuple(dict.fromkeys(rows))
        by_predicate: defaultdict[int, list[IdRow]] = defaultdict(list)
        for row in self.rows:
            by_predicate[row[1]].append(row)
        # Predicate id -> its rows in store order, predicates in first-seen order.
        self.by_predicate: dict[int, list[IdRow]] = dict(by_predicate)
        self._match_memo: dict[tuple[str, str, str], tuple[IdRow, ...]] = {}
        # The oracle's leaf maps of each federation whose first store this
        # is, by that federation's other stores in order (``oracle.Oracle``):
        # they live as long as the stores, as the matches they count do.
        self._leaf_maps: dict[tuple[TripleStore, ...], dict] = {}

    @property
    def triples(self) -> tuple[Triple, ...]:
        """The store's triples in first-seen order, decoded from its id rows."""
        return tuple(map(_triple, self.rows))

    @property
    def total_triples(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"TripleStore({self.source_name!r}, {len(self.rows)} triples)"


def build_store(source_name: str, triples: Iterable[Triple]) -> TripleStore:
    """Build an immutable store; duplicate triples collapse to one."""
    rows = [(term_id(t.subject), term_id(t.predicate), term_id(t.object)) for t in triples]
    return TripleStore(source_name, rows)


def match(store: TripleStore, pattern: TriplePattern) -> tuple[IdRow, ...]:
    """The id rows of exactly the store triples unifying with the pattern, in store order.

    A variable repeated within the pattern must bind to the same term in
    every position it occupies. The result is memoised on the store by the
    pattern's ``slot_key`` (its slots' canonical tokens and variable names,
    not its ordinal, so the same pattern in another query hits the memo);
    every call returns the memoised tuple itself.
    """
    key = pattern.slot_key
    found = store._match_memo.get(key)
    if found is None:
        found = store._match_memo[key] = _scan(store, key)
    return found


def _scan(store: TripleStore, key: tuple[str, str, str]) -> tuple[IdRow, ...]:
    candidates: Sequence[IdRow] = store.rows
    fixed: list[tuple[int, int]] = []  # (position, id) of a bound subject or object
    same: list[tuple[int, int]] = []  # (position, earlier position) of a repeated variable
    first: dict[str, int] = {}
    for position, token in enumerate(key):
        if token[0] == "?":  # a variable; a term's canonical token starts with <, _ or "
            earlier = first.setdefault(token, position)
            if earlier != position:
                same.append((position, earlier))
        else:
            found = _IDS.get(token)
            if found is None:  # a term never interned occurs in no store
                return ()
            if position == 1:
                candidates = store.by_predicate.get(found, ())
            else:
                fixed.append((position, found))

    if not fixed and not same:
        return tuple(candidates)
    return tuple(
        row
        for row in candidates
        if all(row[pos] == value for pos, value in fixed)
        and all(row[pos] == row[earlier] for pos, earlier in same)
    )


def _store_from(source_name: str, tokens: Sequence[str], flat: Sequence[int]) -> TripleStore:
    """The store of ``flat``, three indexes into canonical ``tokens`` per triple."""
    ids = list(map(_intern, tokens))
    row_ids = list(map(ids.__getitem__, flat))
    return TripleStore(source_name, zip(row_ids[0::3], row_ids[1::3], row_ids[2::3]))


def load_ntriples_file(source_name: str, path: str | Path) -> TripleStore:
    text = Path(path).read_text(encoding="utf-8")
    return _store_from(source_name, *read_ntriples(text))


def save_store(store: TripleStore, path: str | Path) -> None:
    """Persist a store as a version-2 JSON document.

    ``terms`` holds the store's canonical term tokens in first-seen order
    and ``triples`` the flat list of their indexes, three per triple.
    """
    flat = list(chain.from_iterable(store.rows))
    local = {g: i for i, g in enumerate(dict.fromkeys(flat))}
    doc = {
        "format_version": STORE_FORMAT_VERSION,
        "source": store.source_name,
        "triple_count": store.total_triples,
        "terms": list(map(_TOKENS.__getitem__, local)),
        "triples": list(map(local.__getitem__, flat)),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_store(path: str | Path) -> TripleStore:
    """Read a version-2 store file, checking every term token and every index.

    Each token is brought to its canonical form, so a term spelled with
    escapes gets the id of its plain spelling. Raises ValueError, naming the
    file and the bad entry, for anything ``save_store`` would not have
    written.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version == 1:
        raise ValueError(
            f"{path} is a version 1 store file, which is no longer read; "
            "re-run `fedcard ingest` to rewrite it"
        )
    if version != STORE_FORMAT_VERSION:
        raise ValueError(f"unsupported store format_version {version!r} in {path}")
    source, tokens, flat = doc.get("source"), doc.get("terms"), doc.get("triples")
    if not (isinstance(source, str) and isinstance(tokens, list) and isinstance(flat, list)):
        raise ValueError(f"store file {path} lacks a 'source' string or a 'terms'/'triples' list")

    terms = []  # canonical tokens
    for index, token in enumerate(tokens):
        try:
            terms.append(canonical_token(token))
        except NTriplesParseError as exc:
            raise ValueError(f"{path}: terms[{index}]: {exc.reason}") from None
    if len(flat) % 3:
        raise ValueError(f"{path}: 'triples' holds {len(flat)} indexes, not three per triple")
    # type(), not isinstance(): a bool is not an index. The types are checked
    # first, as min and max cannot order mixed types; only on a fault does
    # the per-entry loop run, to name the first bad entry.
    if not set(map(type, flat)) <= {int} or (flat and not 0 <= min(flat) <= max(flat) < len(terms)):
        bad = next(i for i, x in enumerate(flat) if type(x) is not int or not 0 <= x < len(terms))
        raise ValueError(f"{path}: triples[{bad}]: {flat[bad]!r} is not an index into 'terms'")
    # A canonical token's first character gives its kind: <, _ or ".
    literals = {i for i, t in enumerate(terms) if t[0] == '"'}
    non_iris = {i for i, t in enumerate(terms) if t[0] != "<"}
    for start, invalid, message in (
        (0, literals, "literal subject is not valid RDF"),
        (1, non_iris, "predicate must be an IRI"),
    ):
        if not invalid.isdisjoint(flat[start::3]):
            index = next(i for i in range(start, len(flat), 3) if flat[i] in invalid)
            raise ValueError(f"{path}: triples[{index}]: {message}")

    return _store_from(source, terms, flat)


def load_store_dir(directory: str | Path) -> list[TripleStore]:
    """Load every ``*.store`` file in a directory, sorted by source name."""
    stores = []
    for path in sorted(Path(directory).glob("*.store")):
        stores.append(load_store(path))
    names = [s.source_name for s in stores]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names in {directory}: {names}")
    return stores
