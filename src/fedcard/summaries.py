"""Dataset statistics consumed by the cardinality estimators.

Two kinds of statistics are counted here, and only here, from the stores'
id rows and their index by predicate:

* ``VoidSummary`` - per-source and per-predicate triple / distinct-subject /
  distinct-object counts (the VoID-style statistics). Every estimator's
  leaf and join formulas read these, Odyssey's only in its fallback.
* ``CharSetSummary`` - characteristic sets (per-entity predicate sets with
  entity counts and per-predicate occurrence counts) and characteristic
  pairs (predicate-labelled links between two characteristic sets).

``CostFedSummary`` is not a third pass: it holds the VoID counts and writes
them under CostFed's field names, adding the average subject/object
selectivities 1 / distinct-count (so ``T * avgSS`` is the mean number of
triples per subject). Each summary serializes to one versioned JSON file
per source; the files are written for inspection and nothing reads them
back (the estimators always build summaries from the stores).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .store import TripleStore, term_of

SUMMARY_FORMAT_VERSION = 1


def _check_unique_sources(stores: Sequence[TripleStore]) -> None:
    names = [s.source_name for s in stores]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names: {names}")


# ---------------------------------------------------------------- VoID


@dataclass(frozen=True, slots=True)
class PredicateStats:
    triples: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def avg_subject_selectivity(self) -> float:
        return 1.0 / self.distinct_subjects

    @property
    def avg_object_selectivity(self) -> float:
        return 1.0 / self.distinct_objects

    def distinct(self, position: str) -> int:
        """Distinct values at position s or o; only a pattern with an
        unbound predicate can be joined at position p."""
        return self.distinct_subjects if position == "s" else self.distinct_objects


@dataclass(slots=True)
class SourceVoid:
    source: str
    triples: int
    distinct_subjects: int
    distinct_objects: int
    predicates: dict[str, PredicateStats] = field(default_factory=dict)

    @property
    def distinct_predicates(self) -> int:
        return len(self.predicates)

    def distinct(self, position: str) -> int:
        """Distinct values at position s, p or o."""
        if position == "p":
            return self.distinct_predicates
        return self.distinct_subjects if position == "s" else self.distinct_objects

    def stats(self, predicate: str | None) -> PredicateStats | SourceVoid | None:
        """The record that counts a pattern's triples here: its predicate's
        when the predicate is bound, the source itself when it is not, and
        None when the source lacks the predicate."""
        if predicate is None:
            return self
        return self.predicates.get(predicate)


class VoidSummary:
    def __init__(self, sources: Iterable[SourceVoid]):
        self.sources: dict[str, SourceVoid] = {s.source: s for s in sources}

    def source(self, name: str) -> SourceVoid:
        return self.sources[name]

    def to_json_dict(self, source: str) -> dict:
        s = self.sources[source]
        return {
            "format_version": SUMMARY_FORMAT_VERSION,
            "source": s.source,
            "stats": {
                "triples": s.triples,
                "distinct_subjects": s.distinct_subjects,
                "distinct_objects": s.distinct_objects,
                "predicates": {
                    p: {
                        "triples": st.triples,
                        "distinct_subjects": st.distinct_subjects,
                        "distinct_objects": st.distinct_objects,
                    }
                    for p, st in sorted(s.predicates.items())
                },
            },
        }


def build_void(stores: Sequence[TripleStore]) -> VoidSummary:
    """Exact per-source VoID statistics, counted from each store's id rows."""
    _check_unique_sources(stores)
    subject_of, object_of = itemgetter(0), itemgetter(2)
    sources = []
    for store in stores:
        predicates = {
            term_of(p).lexical: PredicateStats(
                triples=len(rows),
                distinct_subjects=len(set(map(subject_of, rows))),
                distinct_objects=len(set(map(object_of, rows))),
            )
            for p, rows in store.by_predicate.items()
        }
        sources.append(
            SourceVoid(
                source=store.source_name,
                triples=len(store.rows),
                distinct_subjects=len(set(map(subject_of, store.rows))),
                distinct_objects=len(set(map(object_of, store.rows))),
                predicates=predicates,
            )
        )
    return VoidSummary(sources)


# ---------------------------------------------------------------- CostFed


class CostFedSummary(VoidSummary):
    """The VoID counts as CostFed's summary file spells them.

    Source totals carry a ``total_`` prefix and every predicate adds its
    average subject/object selectivities (1 / distinct count).
    """

    def to_json_dict(self, source: str) -> dict:
        s = self.sources[source]
        return {
            "format_version": SUMMARY_FORMAT_VERSION,
            "source": s.source,
            "stats": {
                "total_triples": s.triples,
                "total_distinct_subjects": s.distinct_subjects,
                "total_distinct_objects": s.distinct_objects,
                "predicates": {
                    p: {
                        "triples": st.triples,
                        "distinct_subjects": st.distinct_subjects,
                        "distinct_objects": st.distinct_objects,
                        "avg_subject_selectivity": st.avg_subject_selectivity,
                        "avg_object_selectivity": st.avg_object_selectivity,
                    }
                    for p, st in sorted(s.predicates.items())
                },
            },
        }


def build_costfed(stores: Sequence[TripleStore]) -> CostFedSummary:
    """CostFed statistics: the VoID counts with their selectivities."""
    return CostFedSummary(build_void(stores).sources.values())


# ---------------------------------------------------------------- characteristic sets


@dataclass(slots=True)
class CharSetStats:
    count: int
    occurrences: dict[str, int]


@dataclass(slots=True)
class SourceCharSets:
    source: str
    charsets: dict[frozenset[str], CharSetStats] = field(default_factory=dict)
    charpairs: dict[tuple[frozenset[str], frozenset[str], str], int] = field(default_factory=dict)


class CharSetSummary:
    def __init__(self, sources: Iterable[SourceCharSets]):
        self.sources: dict[str, SourceCharSets] = {s.source: s for s in sources}

    def source(self, name: str) -> SourceCharSets:
        return self.sources[name]

    def to_json_dict(self, source: str) -> dict:
        s = self.sources[source]
        charsets = [
            {
                "predicates": sorted(cs),
                "count": stats.count,
                "occurrences": dict(sorted(stats.occurrences.items())),
            }
            for cs, stats in sorted(s.charsets.items(), key=lambda kv: sorted(kv[0]))
        ]
        charpairs = [
            {
                "subject_set": sorted(ci),
                "object_set": sorted(cj),
                "predicate": p,
                "count": count,
            }
            for (ci, cj, p), count in sorted(
                s.charpairs.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]), kv[0][2])
            )
        ]
        return {
            "format_version": SUMMARY_FORMAT_VERSION,
            "source": s.source,
            "stats": {"characteristic_sets": charsets, "characteristic_pairs": charpairs},
        }


def build_charsets(stores: Sequence[TripleStore]) -> CharSetSummary:
    """Characteristic sets and pairs, computed per source (never merged).

    Sets are subject-rooted. Pair entries exist only for triples whose
    object is itself a subject (an entity) in the same source.
    """
    _check_unique_sources(stores)
    sources = []
    for store in stores:
        # Entity id -> {predicate id: occurrences}, both in first-seen order.
        entity_occ: dict[int, dict[int, int]] = {}
        for s, p, _ in store.rows:
            occ = entity_occ.get(s)
            if occ is None:
                occ = entity_occ[s] = {}
            occ[p] = occ.get(p, 0) + 1

        lexical = {p: term_of(p).lexical for p in store.by_predicate}
        named: dict[frozenset[int], frozenset[str]] = {}
        entity_cs: dict[int, frozenset[str]] = {}
        charsets: dict[frozenset[str], CharSetStats] = {}
        for e, occ in entity_occ.items():
            ids = frozenset(occ)
            cs = named.get(ids)
            if cs is None:
                cs = named[ids] = frozenset(lexical[p] for p in ids)
            entity_cs[e] = cs
            stats = charsets.get(cs)
            if stats is None:
                stats = charsets[cs] = CharSetStats(0, {})
            stats.count += 1
            for p, n in occ.items():
                name = lexical[p]
                stats.occurrences[name] = stats.occurrences.get(name, 0) + n

        charpairs: dict[tuple[frozenset[str], frozenset[str], str], int] = {}
        for s, p, o in store.rows:
            target_cs = entity_cs.get(o)
            if target_cs is None:
                continue
            key = (entity_cs[s], target_cs, lexical[p])
            charpairs[key] = charpairs.get(key, 0) + 1

        sources.append(SourceCharSets(store.source_name, charsets, charpairs))
    return CharSetSummary(sources)


# ---------------------------------------------------------------- shared plumbing


@dataclass(slots=True)
class SummarySet:
    """The VoID, CostFed and characteristic-set summaries of the same stores."""

    void: VoidSummary
    costfed: CostFedSummary
    charsets: CharSetSummary


def build_all(stores: Sequence[TripleStore]) -> SummarySet:
    void = build_void(stores)
    return SummarySet(void, CostFedSummary(void.sources.values()), build_charsets(stores))


_KIND_SUFFIX = {"void": ".void.json", "costfed": ".costfed.json", "charsets": ".charsets.json"}


def save_summary(summary, kind: str, directory: str | Path) -> list[Path]:
    """Write one ``<source><suffix>`` JSON file per source; returns the paths."""
    suffix = _KIND_SUFFIX[kind]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for source in sorted(summary.sources):
        path = directory / f"{source}{suffix}"
        path.write_text(json.dumps(summary.to_json_dict(source), indent=2), encoding="utf-8")
        written.append(path)
    return written

