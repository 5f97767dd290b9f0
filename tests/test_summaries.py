import pytest

from conftest import TOY, toy_iri

from fedcard.ntriples import Triple
from fedcard.store import build_store
from fedcard.summaries import (
    build_all,
    build_charsets,
    build_costfed,
    build_void,
    save_summary,
)

P = TOY + "p"
Q = TOY + "q"


def test_void_toy1(toy1):
    void = build_void([toy1]).source("A")
    assert (void.triples, void.distinct_subjects, void.distinct_objects) == (5, 3, 3)
    assert void.predicates[P].triples == 3
    assert void.predicates[P].distinct_subjects == 2
    assert void.predicates[P].distinct_objects == 2
    assert void.predicates[Q].triples == 2
    assert void.predicates[Q].distinct_subjects == 2
    assert void.predicates[Q].distinct_objects == 1


def test_void_empty_store():
    void = build_void([build_store("E", [])]).source("E")
    assert (void.triples, void.distinct_subjects, void.distinct_objects) == (0, 0, 0)
    assert void.predicates == {}


def test_void_two_disjoint_sources():
    s1 = build_store("S1", [Triple(toy_iri("a"), toy_iri("p"), toy_iri("b"))])
    s2 = build_store("S2", [Triple(toy_iri("c"), toy_iri("q"), toy_iri("d"))])
    void = build_void([s1, s2])
    assert void.source("S1").triples == 1
    assert void.source("S2").triples == 1
    assert P in void.source("S1").predicates
    assert P not in void.source("S2").predicates


def test_duplicate_source_names_rejected(toy1):
    with pytest.raises(ValueError):
        build_void([toy1, toy1])


def test_costfed_toy1(toy1):
    cf = build_costfed([toy1]).source("A")
    assert cf.predicates[P].triples == 3
    assert cf.predicates[P].avg_subject_selectivity == pytest.approx(0.5)
    assert cf.predicates[P].avg_object_selectivity == pytest.approx(0.5)
    assert cf.predicates[P].distinct_subjects == 2
    assert cf.predicates[P].distinct_objects == 2
    assert cf.predicates[Q].triples == 2
    assert cf.predicates[Q].avg_object_selectivity == pytest.approx(1.0)
    assert "http://example.org/toy/absent" not in cf.predicates


def test_charsets_toy1(toy1):
    cs = build_charsets([toy1]).source("A")
    assert cs.charsets[frozenset({P})].count == 1
    assert cs.charsets[frozenset({P})].occurrences == {P: 2}
    assert cs.charsets[frozenset({P, Q})].count == 1
    assert cs.charsets[frozenset({P, Q})].occurrences == {P: 1, Q: 1}
    assert cs.charsets[frozenset({Q})].count == 1
    assert cs.charsets[frozenset({Q})].occurrences == {Q: 1}
    assert cs.charpairs == {}


def test_charsets_toy2(toy2):
    cs = build_charsets([toy2]).source("A")
    # o3 becomes an entity with characteristic set {p}, merging with s1.
    assert cs.charsets[frozenset({P})].count == 2
    assert cs.charsets[frozenset({P})].occurrences == {P: 3}
    assert cs.charpairs == {
        (frozenset({P, Q}), frozenset({P}), Q): 1,
        (frozenset({Q}), frozenset({P}), Q): 1,
    }


def test_charsets_single_triple():
    store = build_store("S", [Triple(toy_iri("s"), toy_iri("p"), toy_iri("o"))])
    cs = build_charsets([store]).source("S")
    assert cs.charsets == {frozenset({P}): cs.charsets[frozenset({P})]}
    assert cs.charsets[frozenset({P})].count == 1
    assert cs.charsets[frozenset({P})].occurrences == {P: 1}


def test_charset_invariants(toy2):
    summaries = build_all([toy2])
    cs = summaries.charsets.source("A")
    void = summaries.void.source("A")
    assert sum(stats.count for stats in cs.charsets.values()) == void.distinct_subjects
    for predicate, pstats in void.predicates.items():
        total_occ = sum(stats.occurrences.get(predicate, 0) for stats in cs.charsets.values())
        assert total_occ == pstats.triples
    for (ci, _cj, predicate), count in cs.charpairs.items():
        assert predicate in ci
        assert count > 0


def test_void_costfed_agree(toy1):
    summaries = build_all([toy1])
    void = summaries.void.source("A")
    cf = summaries.costfed.source("A")
    for predicate, pstats in void.predicates.items():
        assert cf.predicates[predicate].triples == pstats.triples
        assert cf.predicates[predicate].distinct_subjects == pstats.distinct_subjects


def test_summary_format_version(tmp_path, toy1):
    summaries = build_all([toy1])
    save_summary(summaries.void, "void", tmp_path)
    text = (tmp_path / "A.void.json").read_text()
    assert '"format_version": 1' in text
