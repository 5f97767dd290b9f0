"""Metamorphic tests: an input change whose effect on the output is known.

Each test runs the system on an input and on a transformed copy of it and
checks the relation between the two results, so no expected count is
written down by hand.
"""

import tempfile
from pathlib import Path

from hypothesis import Phase, given, settings, strategies as st

from fedcard.estimators import ENGINE_NAMES
from fedcard.evaluation import STATUS_FAILED, evaluate_queries
from fedcard.expr import Join, Leaf, join_nodes, leaves
from fedcard.ntriples import Triple, blank, format_term, format_triple, iri, literal
from fedcard.oracle import Oracle, true_tp_card
from fedcard.query import TriplePattern, Var
from fedcard.store import build_store, load_ntriples_file, load_store, save_store
from fedcard.summaries import build_all

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

terms = st.integers(0, 4).map(lambda i: iri(f"http://m/n{i}"))
predicates = st.integers(0, 2).map(lambda i: iri(f"http://m/p{i}"))
triples = st.lists(st.builds(Triple, terms, predicates, terms), max_size=30)


def _slot(constants):
    return st.one_of(st.sampled_from("abc").map(Var), constants)


patterns = st.lists(
    st.tuples(_slot(terms), _slot(predicates), _slot(terms)), min_size=1, max_size=4
).map(lambda slots: [TriplePattern(*spo, ordinal=i) for i, spo in enumerate(slots)])


def _left_deep(tps):
    plan = Leaf(tps[0])
    for pattern in tps[1:]:
        plan = Join(plan, Leaf(pattern))
    return plan


@SETTINGS
@given(triples=triples, tps=patterns, data=st.data())
def test_splitting_a_source_keeps_every_count(triples, tps, data):
    distinct = list(dict.fromkeys(triples))
    in_first = data.draw(st.lists(st.booleans(), min_size=len(distinct), max_size=len(distinct)))
    whole = [build_store("S", distinct)]
    split = [
        build_store("S1", [t for t, first in zip(distinct, in_first) if first]),
        build_store("S2", [t for t, first in zip(distinct, in_first) if not first]),
    ]
    plan = _left_deep(data.draw(st.permutations(tps)))
    nodes = [*leaves(plan), *join_nodes(plan)]
    whole_oracle, split_oracle = Oracle(whole), Oracle(split)
    assert [split_oracle.cardinality(n) for n in nodes] == [whole_oracle.cardinality(n) for n in nodes]
    assert [true_tp_card(tp, split) for tp in tps] == [true_tp_card(tp, whole) for tp in tps]


@SETTINGS
@given(triples=triples, tps=patterns, data=st.data())
def test_permuting_pattern_order_keeps_counts(triples, tps, data):
    stores = [build_store("S", triples)]
    order = data.draw(st.permutations(range(len(tps))))
    # The same patterns in another query order: new ordinals, another left-deep plan.
    renumbered = [
        TriplePattern(tps[old].subject, tps[old].predicate, tps[old].object, ordinal=new)
        for new, old in enumerate(order)
    ]
    root = Oracle(stores).cardinality(_left_deep(tps))
    assert Oracle(stores).cardinality(_left_deep(renumbered)) == root
    assert [true_tp_card(tp, stores) for tp in renumbered] == [
        true_tp_card(tps[old], stores) for old in order
    ]


# Term text mixing plain characters with everything N-Triples must escape,
# Unicode line breaks, and escape sequences as literal text.
_CHUNKS = [
    *["\\", "\\u0041", "\\n", ">", "<", '"', " ", "\t", "\n", "\r", "\x00"],
    *["\x85", "\u2028", "{|}^`", "é", "#", "."],
]
_text = st.lists(
    st.one_of(st.sampled_from(_CHUNKS), st.characters(blacklist_categories=("Cs",))), max_size=6
).map("".join)
_iris = _text.filter(bool).map(iri)
_labels = st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_.-]{0,6}[A-Za-z0-9_-])?", fullmatch=True)
_langtags = st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True)
_blanks = _labels.map(blank)
_literals = st.one_of(
    _text.map(literal),
    st.builds(literal, _text, datatype=_text.filter(bool)),
    st.builds(literal, _text, langtag=_langtags),
)
_subjects = st.one_of(_iris, _blanks)
# A third of each document repeats, so that ingest deduplicates.
_documents = st.lists(
    st.builds(Triple, _subjects, _iris, st.one_of(_iris, _blanks, _literals)), max_size=12
).map(lambda ts: ts + ts[: len(ts) // 3])


# Without the explain phase, which takes minutes over these documents.
@settings(SETTINGS, phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(triples=_documents)
def test_ingest_save_load_keeps_triples_and_summaries(triples):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "S.nt"
        source.write_text("\n".join(map(format_triple, triples)) + "\n", encoding="utf-8")
        ingested = load_ntriples_file("S", source)
        save_store(ingested, Path(tmp) / "S.store")
        loaded = load_store(Path(tmp) / "S.store")
    assert ingested.triples == tuple(dict.fromkeys(triples))
    assert loaded.triples == ingested.triples
    before, after = build_all([ingested]), build_all([loaded])
    for kind in ("void", "costfed", "charsets"):
        assert getattr(after, kind).to_json_dict("S") == getattr(before, kind).to_json_dict("S")


# Characters that format_term escapes in IRIs, and one it writes raw.
_IRI_SPECIALS = (">", " ", "\\", "é")
# Every IRI that ``triples`` and ``patterns`` draw.
_VOCABULARY = [iri(f"http://m/n{i}") for i in range(5)] + [iri(f"http://m/p{i}") for i in range(3)]


def _results(triples, queries) -> list[list[str]]:
    """Results rows of every engine; the sources are written and ingested as N-Triples."""
    with tempfile.TemporaryDirectory() as tmp:
        stores = []
        for name, source in (("S1", triples[::2]), ("S2", triples[1::2])):
            path = Path(tmp) / f"{name}.nt"
            path.write_text("".join(format_triple(t) + "\n" for t in source), encoding="utf-8")
            stores.append(load_ntriples_file(name, path))

    def slot(value):
        return f"?{value.name}" if isinstance(value, Var) else format_term(value)

    texts = {
        f"q{i}": "SELECT * WHERE { %s }"
        % " . ".join(" ".join(slot(v) for v in (tp.subject, tp.predicate, tp.object)) for tp in tps)
        for i, tps in enumerate(queries)
    }
    return [row.csv_fields() for row in evaluate_queries(texts, ENGINE_NAMES, stores)]


@SETTINGS
@given(triples=triples, queries=st.lists(patterns, min_size=1, max_size=3), prefix=_text)
def test_renaming_iris_keeps_every_result_row(triples, queries, prefix):
    # An injective renaming: the trailing index tells the new IRIs apart.
    renamed = {
        old: iri(f"{prefix}{_IRI_SPECIALS[i % len(_IRI_SPECIALS)]}{i}")
        for i, old in enumerate(_VOCABULARY)
    }

    def rename(value):
        return renamed.get(value, value)

    renamed_triples = [Triple(rename(t.subject), rename(t.predicate), rename(t.object)) for t in triples]
    renamed_queries = [
        [TriplePattern(rename(tp.subject), rename(tp.predicate), rename(tp.object)) for tp in tps]
        for tps in queries
    ]
    before = _results(triples, queries)
    assert all(fields[-1] != STATUS_FAILED for fields in before)
    assert _results(renamed_triples, renamed_queries) == before
