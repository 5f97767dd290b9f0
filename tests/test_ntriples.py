import sys
from pathlib import Path

import pytest
from helpers import EOL, scanner_ntriples
from hypothesis import given, settings, strategies as st

from fedcard.fixtures import write_fixture_tree
from fedcard.ntriples import (
    NTriplesParseError,
    TermKind,
    blank,
    canonical_token,
    format_term,
    format_triple,
    iri,
    literal,
    parse_ntriples,
    parse_term,
    read_ntriples,
    scan_term,
    split_lines,
)
from fedcard.store import build_store, load_ntriples_file

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402


def test_minimal_line():
    triples = parse_ntriples("<http://x/s1> <http://x/p> <http://x/o1> .")
    assert len(triples) == 1
    t = triples[0]
    assert t.subject == iri("http://x/s1")
    assert t.predicate == iri("http://x/p")
    assert t.object == iri("http://x/o1")


def test_typed_literal_object():
    line = '<http://x/s> <http://x/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    (t,) = parse_ntriples(line)
    assert t.object.kind is TermKind.LITERAL
    assert t.object.lexical == "42"
    assert t.object.datatype == "http://www.w3.org/2001/XMLSchema#integer"


def test_langtag_literal():
    (t,) = parse_ntriples('<http://x/s> <http://x/p> "hi"@en .')
    assert t.object == literal("hi", langtag="en")


def test_plain_literal_and_escapes():
    (t,) = parse_ntriples('<http://x/s> <http://x/p> "a\\"b\\nc\\u0041" .')
    assert t.object.lexical == 'a"b\nc' + "A"
    assert t.object.datatype is None and t.object.langtag is None


def test_blank_nodes_document_scoped():
    text = "_:b1 <http://x/p> _:b2 .\n_:b1 <http://x/p> _:b1 ."
    triples = parse_ntriples(text)
    assert triples[0].subject == triples[1].subject
    assert triples[1].object == triples[0].subject


def test_truncated_statement_reports_object():
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples("<http://x/s> <http://x/p>")
    assert err.value.line == 1
    assert "expected object term" in str(err.value)


def test_error_carries_line_number():
    text = "<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> nonsense <http://x/o> ."
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 2


def test_literal_subject_is_structural_error():
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples('"lit" <http://x/p> <http://x/o> .')
    assert "literal not allowed as subject" in str(err.value)


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\n<http://x/s> <http://x/p> <http://x/o> .\n# done\n"
    assert len(parse_ntriples(text)) == 1


def test_duplicates_preserved_in_document_order():
    line = "<http://x/s> <http://x/p> <http://x/o> ."
    triples = parse_ntriples(line + "\n" + line)
    assert len(triples) == 2
    assert triples[0] == triples[1]


def test_missing_dot_rejected():
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples("<http://x/s> <http://x/p> <http://x/o>")
    assert "expected '.'" in str(err.value)


def test_format_round_trip():
    text = (
        '<http://x/s> <http://x/p> "a\\"b\\\\c"^^<http://x/dt> .\n'
        '_:node <http://x/p> "v"@en-GB .\n'
        "<http://x/s> <http://x/p> _:node ."
    )
    triples = parse_ntriples(text)
    again = parse_ntriples("\n".join(format_triple(t) for t in triples))
    assert again == triples


@pytest.mark.parametrize(
    "term",
    [
        iri("http://x/s"),
        blank("node-1"),
        literal('a"b\\c\nd\te\rf'),
        literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        literal('say "hi"\n', langtag="en-GB"),
        iri("http://x/>"),
        iri("http://x/a\\"),
        iri('http://x/ <"{}|^`\t'),
        literal("v", datatype="http://x/dt>\\"),
    ],
)
def test_parse_term_round_trips_format_term(term):
    assert parse_term(format_term(term)) == term


@pytest.mark.parametrize(
    "token, reason",
    [
        ("<http://x/a> junk", "trailing content ' junk'"),
        ("<http://x/a> ", "trailing content ' '"),
        ('"x"@en .', "trailing content ' .'"),
        ("", "expected RDF term"),
        (42, "term token must be a string"),
        ('"x"^^<>', "empty IRI"),
    ],
)
def test_parse_term_rejects(token, reason):
    with pytest.raises(NTriplesParseError) as err:
        parse_term(token)
    assert err.value.reason.startswith(reason)


def test_iri_escapes_written_as_uchars():
    assert format_term(iri("http://x/>")) == "<http://x/\\u003E>"
    assert format_term(iri("http://x/a\\")) == "<http://x/a\\u005C>"
    assert format_term(iri("http://x/é")) == "<http://x/é>"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a",
        "a\n",
        "a\r\nb\rc\nd",
        "a\r\r\nb\n\r\n\rc\r",
        "\r\n\r\n",
        "\n\r",
        "a\u2028b\r\nc\x85d\x0be\x0cf\u2029g\n",
    ],
)
def test_split_lines_agrees_with_the_line_end_expression(text):
    assert split_lines(text) == EOL.split(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet="ab\r\n\x85\u2028\x0b"))
def test_split_lines_agrees_with_the_line_end_expression_on_any_mix(text):
    assert split_lines(text) == EOL.split(text)


def test_unicode_line_breaks_stay_inside_terms():
    text = '<http://x/a\u2028b> <http://x/p> "c\x85d\x0be" .\r\n<http://x/s> <http://x/p> <http://x/o> .'
    first, second = parse_ntriples(text)
    assert first.subject == iri("http://x/a\u2028b")
    assert first.object == literal("c\x85d\x0be")
    assert second.object == iri("http://x/o")
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples("<http://x/s> <http://x/p> <http://x/o> .\r\n\r\n<http://x/s> <http://x/p> .")
    assert err.value.line == 3



@pytest.mark.parametrize(
    "token", ["<http://x y>", "<http://x/p", "<http://o{}>", '<http://x/"a">', "<http://x/\x01>"]
)
def test_raw_forbidden_iri_characters_rejected(token):
    text = f"<http://x/s> <http://x/p> <http://x/o> .\n{token} <http://x/p> <http://x/o> ."
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 2
    assert err.value.reason.endswith("not allowed in IRI")


def test_read_ntriples_gives_distinct_terms_and_their_indexes():
    text = (
        '<http://x/A> <http://x/p> "v" .\n'
        "_:b <http://x/p> <http://x/\\u0041> .\n"
        '<http://x/A> <http://x/p> "v" .'
    )
    tokens, flat = read_ntriples(text)
    assert tokens == ["<http://x/A>", "<http://x/p>", '"v"', "_:b"]
    assert flat == [0, 1, 2, 3, 1, 0, 0, 1, 2]


# Term tokens that read cleanly, and tokens that the scanner rejects or
# reads shorter than they look.
_GOOD_IRIS = [
    "<http://x/a>",
    "<http://x/b>",
    "<http://x/\\u0041>",
    "<http://x/\\U0001F600>",
    "<http://x/\\u003E>",
    "<http://x/é>",
    "<\\u0020>",
]
_BAD_IRIS = [
    "<http://x y>",
    "<http://x/{a}>",
    "<>",
    '<http://x/"q">',
    "<http://x/\x01>",
    "<http://x/\\q>",
    "<http://x/\\u00>",
    "<http://x/a\\>",
    "<http://x/open",
]
_GOOD_BLANKS = ["_:b1", "_:a.b", "_:a..b", "_:é_1", "_:-x", "_:x-"]
# A label's trailing dots are not part of it: this token ends a statement.
_DOT_ENDED_BLANK = "_:a."
_BAD_BLANKS = ["_:", "_:.", "_:..", "_x", "_:a:b"]
_GOOD_LITERALS = [
    '"v"',
    '"a\\"b"',
    '"a\\\\"',
    '"x"@en',
    '"x"@en-GB',
    '"x"^^<http://x/dt>',
    '"\\u00e9"',
    '"x\u2028y\x85z"',
    '"with . dot"',
]
_BAD_LITERALS = [
    '"x"@',
    '"x"@en_US',
    '"x"^^<http://x/d t>',
    '"x"^^<>',
    '"x"^^x',
    '"open',
    '"bad\\q"',
    '"\\u12"',
    '"dangling\\',
]
_JUNK = ["nonsense", "?x", ".", ":", "<http://x/a>.<http://x/b>"]
_TOKENS = [
    *_GOOD_IRIS, *_BAD_IRIS, *_GOOD_BLANKS, _DOT_ENDED_BLANK, *_BAD_BLANKS,
    *_GOOD_LITERALS, *_BAD_LITERALS, *_JUNK,
]
_UNICODE_SPACE = ["\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\x85"]

_gaps = st.sampled_from([" ", "\t", "", " \t "])
_ends = st.sampled_from([" .", ".", "\t.", " . "])
_edges = st.sampled_from(["", " ", "\t", *_UNICODE_SPACE])
_object_ends = st.one_of(
    st.builds(
        lambda o, end: o + end, st.sampled_from(_GOOD_IRIS + _GOOD_BLANKS + _GOOD_LITERALS), _ends
    ),
    st.just(_DOT_ENDED_BLANK),
)
_valid_lines = st.builds(
    lambda lead, s, g1, p, g2, o_end, tail: f"{lead}{s}{g1}{p}{g2}{o_end}{tail}",
    _edges,
    st.sampled_from(_GOOD_IRIS + _GOOD_BLANKS),
    _gaps,
    st.sampled_from(_GOOD_IRIS),
    _gaps,
    _object_ends,
    _edges,
)
_any_lines = st.builds(
    lambda lead, s, g1, p, g2, o, end, tail: f"{lead}{s}{g1}{p}{g2}{o}{end}{tail}",
    _edges,
    st.sampled_from(_TOKENS),
    st.sampled_from([" ", "\t", "", "\u00a0"]),
    st.sampled_from(_TOKENS),
    st.sampled_from([" ", "\t", "", "\u00a0"]),
    st.sampled_from(_TOKENS),
    st.sampled_from([" .", ".", "", " . junk", " ..", " . # c", " .\u00a0x"]),
    _edges,
)
# A literal subject is reported before whatever follows it is read.
_literal_subject_lines = st.builds(
    lambda lit, bad, o: f"{lit} {bad} {o} .",
    st.sampled_from(_GOOD_LITERALS + _BAD_LITERALS),
    st.sampled_from(_BAD_IRIS + _BAD_BLANKS + _BAD_LITERALS + _JUNK),
    st.sampled_from(_TOKENS),
)
_other_lines = st.sampled_from(["", "   ", "# comment", "  \t# indented <http://x/a>", "#"])
_eols = st.sampled_from(["\n", "\r\n", "\r"])
# Valid documents, and documents with one line that is most likely broken
# somewhere among them.
_documents = st.builds(
    lambda lines, broken, at: "".join(
        line + eol for line, eol in lines[:at] + broken + lines[at:]
    ),
    st.lists(st.tuples(st.one_of(_valid_lines, _valid_lines, _other_lines), _eols), max_size=8),
    st.one_of(
        st.just([]),
        st.lists(st.tuples(st.one_of(_any_lines, _literal_subject_lines), _eols), max_size=1),
    ),
    st.integers(0, 8),
)


def _outcome(read, text):
    try:
        return read(text)
    except NTriplesParseError as exc:
        return ("error", exc.line, exc.reason)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(text=_documents)
def test_parse_ntriples_agrees_with_the_line_scanner(text):
    assert _outcome(parse_ntriples, text) == _outcome(scanner_ntriples, text)


@pytest.mark.parametrize("token", _TOKENS)
def test_parse_term_agrees_with_the_scanner(token):
    def scanned(token):
        term, end = scan_term(token, 0)
        if end != len(token):
            raise NTriplesParseError(1, f"trailing content {token[end:]!r}")
        return term

    assert _outcome(parse_term, token) == _outcome(scanned, token)


_MORE_GOOD = ['"a\\u0041"@en-GB', '"é"^^<http://x/\\u0041>']


@pytest.mark.parametrize("token", [*_TOKENS, *_MORE_GOOD, 42, None, "", "<http://x/a> "])
def test_canonical_token_is_format_term_of_parse_term(token):
    """Same token for a good token, same reason for a bad one or a non-string."""
    assert _outcome(canonical_token, token) == _outcome(lambda t: format_term(parse_term(t)), token)
    if token in _GOOD_IRIS + _GOOD_BLANKS + _GOOD_LITERALS + _MORE_GOOD:
        canonical = canonical_token(token)
        assert canonical_token(canonical) == canonical
        assert parse_term(canonical) == parse_term(token)


_GOOD_LINES = [
    f"{s} {p} {o} ."
    for s in _GOOD_IRIS[:2] + _GOOD_BLANKS[:2]
    for p in _GOOD_IRIS[:2]
    for o in _GOOD_IRIS + _GOOD_BLANKS + _GOOD_LITERALS
]


def _bundled_and_scaled_sources(root: Path) -> list[Path]:
    write_fixture_tree(root / "fx")
    gen.write_inputs(root / "scaled", gen.scaled_corpus(gen.DEFAULT_SEED, 4, 2), {})
    # Every good token kind, each line twice, so that ingest deduplicates.
    (root / "mixed.nt").write_text("\n".join(_GOOD_LINES * 2) + "\n", encoding="utf-8")
    return sorted(root.rglob("*.nt"))


def test_ingest_rows_equal_build_store_of_parsed_triples(tmp_path):
    for path in _bundled_and_scaled_sources(tmp_path):
        ingested = load_ntriples_file(path.stem, path)
        built = build_store(path.stem, parse_ntriples(path.read_text(encoding="utf-8")))
        assert ingested.rows == built.rows
        assert len(ingested) > 0
