import pytest

from fedcard.ntriples import (
    NTriplesParseError,
    TermKind,
    blank,
    format_term,
    format_triple,
    iri,
    literal,
    parse_ntriples,
    parse_term,
)


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
