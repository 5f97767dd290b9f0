import json
import random
import sys
import threading

import pytest

from conftest import toy_iri, tp

from fedcard.fixtures import BENCH_BASE, bench_stores
from fedcard.ntriples import Triple, iri
from fedcard.query import TriplePattern, Var
from fedcard.store import build_store, load_store, match, save_store, term_id, term_of
from fedcard.summaries import build_void


def linear_scan_count(store, pattern) -> int:
    """Index-free oracle for match counts."""
    count = 0
    for t in store.triples:
        binding = {}
        ok = True
        for (_, slot), value in zip(pattern.slots(), (t.subject, t.predicate, t.object)):
            if hasattr(slot, "name"):  # Var
                if binding.setdefault(slot.name, value) != value:
                    ok = False
                    break
            elif slot != value:
                ok = False
                break
        count += ok
    return count


def test_toy1_counts(toy1):
    assert toy1.total_triples == 5
    void = build_void([toy1]).source(toy1.source_name)
    assert void.distinct_subjects == 3
    assert void.distinct_objects == 3


def test_empty_store():
    store = build_store("E", [])
    assert store.total_triples == 0
    assert match(store, tp("?x", "?p", "?y")) == ()


def test_dedup_on_build():
    t = Triple(toy_iri("s"), toy_iri("p"), toy_iri("o"))
    store = build_store("D", [t, t])
    assert store.total_triples == 1


def test_match_examples(toy1):
    assert len(match(toy1, tp("?x", "p", "?y"))) == 3
    assert len(match(toy1, tp("s1", "p", "?y"))) == 2
    assert len(match(toy1, tp("s1", "p", "o1"))) == 1
    assert len(match(toy1, tp("?x", "?p", "?y"))) == 5
    assert len(match(toy1, tp("nope", "p", "?y"))) == 0


def test_match_repeated_variable():
    triples = [
        Triple(toy_iri("a"), toy_iri("p"), toy_iri("a")),
        Triple(toy_iri("a"), toy_iri("p"), toy_iri("b")),
    ]
    store = build_store("R", triples)
    assert len(match(store, tp("?x", "p", "?y"))) == 2
    assert len(match(store, tp("?x", "p", "?x"))) == 1


def test_distinct_count_tables_match_recount(toy1):
    """build_void's counts equal a recount of the decoded triples, per
    predicate and per source, on toy1 and on every bench source."""
    stores = [toy1, *bench_stores()]
    for store in stores:
        triples = store.triples
        void = build_void([store]).source(store.source_name)
        assert void.triples == len(triples)
        assert void.distinct_subjects == len({t.subject for t in triples})
        assert void.distinct_objects == len({t.object for t in triples})
        predicates = {t.predicate.lexical for t in triples}
        assert set(void.predicates) == predicates
        for predicate in predicates:
            rows = [t for t in triples if t.predicate.lexical == predicate]
            stats = void.predicates[predicate]
            assert stats.triples == len(rows)
            assert stats.distinct_subjects == len({t.subject for t in rows})
            assert stats.distinct_objects == len({t.object for t in rows})


def test_index_scan_equivalence_random():
    rng = random.Random(7)
    for _ in range(30):
        triples = [
            Triple(
                iri(f"http://r/s{rng.randrange(8)}"),
                iri(f"http://r/p{rng.randrange(4)}"),
                iri(f"http://r/o{rng.randrange(8)}"),
            )
            for _ in range(rng.randrange(0, 60))
        ]
        store = build_store("X", triples)
        for _ in range(10):
            def slot(prefix, n):
                if rng.random() < 0.5:
                    return f"?{rng.choice('abc')}"
                return f"{prefix}{rng.randrange(n)}"

            pattern = tp(slot("s", 8), slot("p", 4), slot("o", 8))
            # conftest's tp() uses the toy namespace; rebuild in http://r/
            from fedcard.query import TriplePattern, Var

            def fix(s, prefix):
                if isinstance(s, Var):
                    return s
                return iri("http://r/" + s.lexical.rsplit("/", 1)[-1])

            pattern = TriplePattern(
                fix(pattern.subject, "s"), fix(pattern.predicate, "p"), fix(pattern.object, "o")
            )
            expected = linear_scan_count(store, pattern)
            first = match(store, pattern)
            assert len(first) == expected
            assert isinstance(first, tuple)  # callers cannot mutate the memo
            assert len(match(store, pattern)) == expected


def test_match_counts_on_shared_entity_iris():
    """The bench stores use one entity IRI as the subject of some triples and
    the object of others, so a bound subject or object and an ``s = o``
    repeat are tested on data where they can match."""
    stores = bench_stores()
    x, y = Var("x"), Var("y")
    self_loop = TriplePattern(x, Var("p"), x)
    nowhere = iri(BENCH_BASE + "e/nowhere")
    patterns = [
        self_loop,
        TriplePattern(x, x, y),
        TriplePattern(nowhere, Var("p"), Var("o")),
        TriplePattern(Var("s"), nowhere, Var("o")),
        TriplePattern(Var("s"), Var("p"), nowhere),
    ]
    rng = random.Random(11)
    for store in stores:
        for t in rng.sample(store.triples, 3):
            terms = (t.subject, t.predicate, t.object)
            for mask in range(8):  # every bound/unbound slot combination
                slots = (term if mask >> i & 1 else Var("spo"[i]) for i, term in enumerate(terms))
                patterns.append(TriplePattern(*slots))
            patterns.append(TriplePattern(x, t.predicate, x))
            patterns.append(TriplePattern(t.object, Var("p"), Var("o")))
            patterns.append(TriplePattern(Var("s"), Var("p"), t.subject))
    for store in stores:
        for pattern in patterns:
            assert len(match(store, pattern)) == linear_scan_count(store, pattern), pattern
    assert any(match(store, self_loop) for store in stores)


def test_build_store_idempotent(toy1):
    rebuilt = build_store(toy1.source_name, toy1.triples)
    assert rebuilt.triples == toy1.triples
    assert build_void([rebuilt]).sources == build_void([toy1]).sources


def test_store_round_trip(tmp_path, toy1):
    path = tmp_path / "A.store"
    save_store(toy1, path)
    loaded = load_store(path)
    assert loaded.source_name == "A"
    assert set(loaded.triples) == set(toy1.triples)


@pytest.mark.parametrize("which", ["toy1", "bench"])
def test_store_file_round_trip_keeps_triples_in_order(tmp_path, toy1, which):
    stores = [toy1] if which == "toy1" else bench_stores()
    for store in stores:
        path = tmp_path / f"{store.source_name}.store"
        save_store(store, path)
        assert load_store(path).triples == store.triples


def test_equal_terms_share_one_id_across_stores():
    shared = Triple(iri("http://ids/s"), iri("http://ids/p"), iri("http://ids/o"))
    other = Triple(iri("http://ids/a"), iri("http://ids/p"), iri("http://ids/b"))
    first = build_store("S1", [other, shared])
    # Equal but distinct objects: the id follows equality, not identity.
    again = Triple(iri("http://ids/s"), iri("http://ids/p"), iri("http://ids/o"))
    second = build_store("S2", [again])
    assert first.rows[1] == second.rows[0]
    assert first.rows[0][1] == second.rows[0][1]
    assert [term_of(i) for i in second.rows[0]] == [again.subject, again.predicate, again.object]


def test_concurrent_interning_gives_one_id_per_term():
    # Names no other test interns, so first lookups take the locked miss path.
    names = [f"http://concurrent/t{i}" for i in range(3000)]
    start = threading.Barrier(4)
    seen: list[dict] = [{} for _ in range(4)]

    def work(k: int) -> None:
        mine = [iri(n) for n in names[k:]]  # overlapping, in step, own objects
        triples = [Triple(mine[i], mine[i + 1], mine[i + 2]) for i in range(len(mine) - 2)]
        start.wait(timeout=30)
        store = build_store(f"T{k}", triples)
        assert store.triples == tuple(triples)
        # The ids the store was built with, not the ones the dictionary holds now.
        seen[k] = {
            t.lexical: i
            for triple, row in zip(triples, store.rows)
            for t, i in zip((triple.subject, triple.predicate, triple.object), row)
        }

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(seen)  # every worker finished its store
    for name in names:
        ids = {found[name] for found in seen if name in found}
        assert len(ids) == 1
        assert ids == {term_id(iri(name))}
    assert len(set(seen[0].values())) == len(names)


def test_version_1_store_asks_to_reingest(tmp_path):
    path = tmp_path / "A.store"
    path.write_text(json.dumps({"format_version": 1, "source": "A", "triples": []}))
    with pytest.raises(ValueError, match="re-run `fedcard ingest`"):
        load_store(path)


SPO = ["<http://x/a>", "<http://x/p>", "<http://x/o>"]


def _write_store_file(path, terms, triples):
    doc = {"format_version": 2, "source": path.stem, "terms": terms, "triples": triples}
    path.write_text(json.dumps(doc))


def test_escaped_spelling_loads_to_the_plain_spelling_id(tmp_path):
    plain, escaped = tmp_path / "P.store", tmp_path / "E.store"
    _write_store_file(plain, ["<http://x/A>", *SPO[1:]], [0, 1, 2])
    _write_store_file(escaped, ["<http://x/\\u0041>", SPO[1], '"\\u0041"'], [0, 1, 2])
    first, second = load_store(plain), load_store(escaped)
    assert second.rows[0][0] == first.rows[0][0]
    assert term_of(second.rows[0][0]) == iri("http://x/A")
    save_store(second, tmp_path / "again.store")
    assert json.loads((tmp_path / "again.store").read_text())["terms"] == [
        "<http://x/A>", "<http://x/p>", '"A"'
    ]


def test_term_of_decodes_each_id_to_one_shared_term(tmp_path):
    # Tokens no other test interns, so that term_of decodes each one here.
    path = tmp_path / "D.store"
    terms = ["<http://decode/s>", "<http://decode/p>", '"v"@en-GB', "_:decode1"]
    _write_store_file(path, terms, [0, 1, 2, 3, 1, 0])
    loaded = load_store(path)
    for row in loaded.rows:
        for i in row:
            assert term_of(i) is term_of(i)
    first, again = loaded.triples, loaded.triples
    for x, y in zip(first, again):
        assert x.subject is y.subject and x.predicate is y.predicate and x.object is y.object


@pytest.mark.parametrize(
    "terms, message",
    [
        (['"\\u003Chttp://x/a\\u003E"', *SPO[1:]], "triples[0]: literal subject is not valid RDF"),
        (['"a"@en', *SPO[1:]], "triples[0]: literal subject is not valid RDF"),
        ([SPO[0], "_:p", SPO[2]], "triples[1]: predicate must be an IRI"),
        ([SPO[0], '"\\u003Chttp://x/p\\u003E"', SPO[2]], "triples[1]: predicate must be an IRI"),
    ],
)
def test_literal_subject_and_non_iri_predicate_are_rejected(tmp_path, terms, message):
    path = tmp_path / "A.store"
    _write_store_file(path, terms, [0, 1, 2])
    with pytest.raises(ValueError) as err:
        load_store(path)
    assert str(err.value) == f"{path}: {message}"
