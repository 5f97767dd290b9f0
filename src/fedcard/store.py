"""Immutable per-source triple collections with pattern-matching indexes.

A store deduplicates its triples and precomputes the per-predicate
distinct-subject / distinct-object tables that the statistics summaries
read off. Matching is exact: the count of ``match`` is the real
cardinality of a pattern in this source, and each distinct pattern is
scanned once per store.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .ntriples import NTriplesParseError, Term, Triple, format_term, parse_ntriples, parse_term
from .query import Slot, TriplePattern, Var

STORE_FORMAT_VERSION = 1


class TripleStore:
    """Deduplicated, indexed triple set for one named source."""

    def __init__(self, source_name: str, triples: Iterable[Triple]):
        self.source_name = source_name
        seen: dict[Triple, None] = {}
        for t in triples:
            seen.setdefault(t)
        self.triples: tuple[Triple, ...] = tuple(seen)

        self._by_subject: dict[Term, list[Triple]] = {}
        self._by_predicate: dict[Term, list[Triple]] = {}
        self._by_object: dict[Term, list[Triple]] = {}
        pred_subjects: dict[str, set[Term]] = {}
        pred_objects: dict[str, set[Term]] = {}
        for t in self.triples:
            self._by_subject.setdefault(t.subject, []).append(t)
            self._by_predicate.setdefault(t.predicate, []).append(t)
            self._by_object.setdefault(t.object, []).append(t)
            pred_subjects.setdefault(t.predicate.lexical, set()).add(t.subject)
            pred_objects.setdefault(t.predicate.lexical, set()).add(t.object)

        # Per-predicate stats, keyed by predicate IRI string.
        self.predicate_triples: Mapping[str, int] = {
            p.lexical: len(ts) for p, ts in self._by_predicate.items()
        }
        self.predicate_distinct_subjects: Mapping[str, int] = {
            p: len(s) for p, s in pred_subjects.items()
        }
        self.predicate_distinct_objects: Mapping[str, int] = {
            p: len(o) for p, o in pred_objects.items()
        }
        self._match_memo: dict[tuple[Slot, Slot, Slot], tuple[Triple, ...]] = {}

    @property
    def total_triples(self) -> int:
        return len(self.triples)

    @property
    def distinct_subjects(self) -> int:
        return len(self._by_subject)

    @property
    def distinct_objects(self) -> int:
        return len(self._by_object)

    @property
    def predicates(self) -> Sequence[str]:
        return sorted(self.predicate_triples)

    def __len__(self) -> int:
        return len(self.triples)

    def __repr__(self) -> str:
        return f"TripleStore({self.source_name!r}, {len(self.triples)} triples)"


def build_store(source_name: str, triples: Iterable[Triple]) -> TripleStore:
    """Build an immutable store; duplicate triples collapse to one."""
    return TripleStore(source_name, triples)


def _slot_matches(slot: Slot, term: Term) -> bool:
    return isinstance(slot, Var) or slot == term


def match(store: TripleStore, pattern: TriplePattern) -> list[Triple]:
    """Return exactly the store triples unifying with the pattern.

    A variable repeated within the pattern must bind to the same term in
    every position it occupies. The result is memoised on the store by the
    pattern's slots (not its ordinal, so the same pattern in another query
    hits the memo); every call returns a fresh list.
    """
    return list(_memoised(store, pattern))


def count(store: TripleStore, pattern: TriplePattern) -> int:
    """Number of store triples unifying with the pattern, read off the match memo without a copy."""
    return len(_memoised(store, pattern))


def _memoised(store: TripleStore, pattern: TriplePattern) -> tuple[Triple, ...]:
    key = (pattern.subject, pattern.predicate, pattern.object)
    found = store._match_memo.get(key)
    if found is None:
        found = store._match_memo[key] = _scan(store, pattern)
    return found


def _scan(store: TripleStore, pattern: TriplePattern) -> tuple[Triple, ...]:
    candidates: Sequence[Triple]
    if not isinstance(pattern.subject, Var):
        candidates = store._by_subject.get(pattern.subject, ())
    elif not isinstance(pattern.object, Var):
        candidates = store._by_object.get(pattern.object, ())
    elif not isinstance(pattern.predicate, Var):
        candidates = store._by_predicate.get(pattern.predicate, ())
    else:
        candidates = store.triples

    out = []
    for t in candidates:
        if not (
            _slot_matches(pattern.subject, t.subject)
            and _slot_matches(pattern.predicate, t.predicate)
            and _slot_matches(pattern.object, t.object)
        ):
            continue
        binding: dict[str, Term] = {}
        consistent = True
        for slot, term in (
            (pattern.subject, t.subject),
            (pattern.predicate, t.predicate),
            (pattern.object, t.object),
        ):
            if isinstance(slot, Var):
                bound = binding.setdefault(slot.name, term)
                if bound != term:
                    consistent = False
                    break
        if consistent:
            out.append(t)
    return tuple(out)


def load_ntriples_file(source_name: str, path: str | Path) -> TripleStore:
    text = Path(path).read_text(encoding="utf-8")
    return build_store(source_name, parse_ntriples(text))


def save_store(store: TripleStore, path: str | Path) -> None:
    """Persist a store as a versioned JSON document."""
    doc = {
        "format_version": STORE_FORMAT_VERSION,
        "source": store.source_name,
        "triple_count": store.total_triples,
        "triples": [
            [format_term(t.subject), format_term(t.predicate), format_term(t.object)]
            for t in store.triples
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_store(path: str | Path) -> TripleStore:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != STORE_FORMAT_VERSION:
        raise ValueError(f"unsupported store format_version {version!r} in {path}")
    if "source" not in doc or not isinstance(doc.get("triples"), list):
        raise ValueError(f"store file {path} lacks 'source' or a 'triples' list")
    triples = []
    for index, entry in enumerate(doc["triples"]):
        try:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError("expected a list of three term tokens")
            triples.append(Triple(parse_term(entry[0]), parse_term(entry[1]), parse_term(entry[2])))
        except ValueError as exc:
            reason = exc.reason if isinstance(exc, NTriplesParseError) else exc
            raise ValueError(f"{path}: triples[{index}]: {reason}") from None
    return build_store(doc["source"], triples)


def load_store_dir(directory: str | Path, suffix: str = ".store") -> list[TripleStore]:
    """Load every ``*.store`` file in a directory, sorted by source name."""
    stores = []
    for path in sorted(Path(directory).glob(f"*{suffix}")):
        stores.append(load_store(path))
    names = [s.source_name for s in stores]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names in {directory}: {names}")
    return stores
