import pytest

from helpers import join_edges

from fedcard.ntriples import iri, literal
from fedcard.query import (
    JoinKind,
    QueryParseError,
    Var,
    parse_query,
)

STAR_QUERY = """SELECT * WHERE {
  ?s <http://x/p1> ?o1 .
  ?s <http://x/p2> ?o2 .
  ?s <http://x/p3> ?o3
}"""


def test_star_query_parses():
    bgp = parse_query(STAR_QUERY)
    assert len(bgp.patterns) == 3
    assert [tp.ordinal for tp in bgp.patterns] == [0, 1, 2]
    shared = set.intersection(*(tp.variables() for tp in bgp.patterns))
    assert shared == {"s"}
    assert bgp.projection == ("o1", "o2", "o3", "s")


def test_fully_variable_pattern():
    bgp = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    (pattern,) = bgp.patterns
    assert pattern.subject == Var("s")
    assert pattern.predicate == Var("p")
    assert pattern.object == Var("o")
    assert bgp.projection == ("s",)


def test_optional_rejected():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT * WHERE { ?s <http://x/p> ?o OPTIONAL { ?s <http://x/q> ?r } }")
    assert "unsupported clause: OPTIONAL" in str(err.value)


@pytest.mark.parametrize("clause", ["FILTER", "UNION", "LIMIT", "PREFIX", "DISTINCT"])
def test_other_clauses_rejected(clause):
    if clause == "PREFIX":
        text = "PREFIX x: <http://x/> SELECT * WHERE { ?s ?p ?o }"
    elif clause == "DISTINCT":
        text = "SELECT DISTINCT ?s WHERE { ?s ?p ?o }"
    elif clause == "LIMIT":
        text = "SELECT * WHERE { ?s ?p ?o } LIMIT 5"
    else:
        text = f"SELECT * WHERE {{ ?s ?p ?o {clause} {{ ?a ?b ?c }} }}"
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert f"unsupported clause: {clause}" in str(err.value)


def test_syntax_error_position():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT * WHERE {\n  ?s <http://x/p> }")
    assert err.value.line == 2


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize(
    "template, position, reason",
    [
        ("SELECT * WHERE {{{eol}  ?s <http://x/p> }}", (2, 19), "expected object term, found '}'"),
        ("SELECT * WHERE {{{eol}  ?s <http://x/p{eol} ?o }}", (2, 6), "unterminated IRI"),
    ],
)
def test_error_position_counts_every_line_ending(eol, template, position, reason):
    """Lines end at \\n, \\r\\n or a lone \\r, as in N-Triples."""
    with pytest.raises(QueryParseError) as err:
        parse_query(template.format(eol=eol))
    assert (err.value.line, err.value.column) == position
    assert err.value.reason == reason


def test_projection_must_occur():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?nope WHERE { ?s ?p ?o }")
    assert "?nope" in str(err.value)


def test_ground_terms_and_literals():
    bgp = parse_query('SELECT * WHERE { <http://x/s> <http://x/p> "42"^^<http://x/int> }')
    (pattern,) = bgp.patterns
    assert pattern.subject == iri("http://x/s")
    assert pattern.object.lexical == "42"
    assert pattern.object.datatype == "http://x/int"


def test_empty_datatype_iri_rejected_at_its_column():
    text = 'SELECT * WHERE {\n  ?s <http://x/p> "x"^^<> }'
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.column) == (2, 19)
    assert err.value.reason == "empty IRI"


def test_bad_literal_escape_is_a_query_error():
    with pytest.raises(QueryParseError) as err:
        parse_query('SELECT * WHERE { ?s <http://x/p> "a\\qb" }')
    assert (err.value.line, err.value.column) == (1, 34)
    assert "unknown escape" in err.value.reason


def test_datatype_iri_escapes_read_like_data_terms():
    bgp = parse_query('SELECT * WHERE { ?s <http://x/p> "x"^^<http://x/\\u0041> }')
    assert bgp.patterns[0].object == literal("x", datatype="http://x/A")


def test_trailing_dot_allowed():
    bgp = parse_query("SELECT * WHERE { ?s <http://x/p> ?o . }")
    assert len(bgp.patterns) == 1


def test_join_edges_star():
    edges = join_edges(parse_query(STAR_QUERY))
    as_tuples = {(e.left, e.right, e.variable, e.kind) for e in edges}
    assert as_tuples == {
        (0, 1, "s", JoinKind.SUBJECT_SUBJECT),
        (0, 2, "s", JoinKind.SUBJECT_SUBJECT),
        (1, 2, "s", JoinKind.SUBJECT_SUBJECT),
    }


def test_join_edges_path():
    edges = join_edges(parse_query("SELECT * WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c }"))
    (edge,) = edges
    assert (edge.left, edge.right, edge.variable) == (0, 1, "b")
    assert edge.kind is JoinKind.SUBJECT_OBJECT
    assert (edge.left_pos, edge.right_pos) == ("o", "s")


def test_join_edges_disjoint():
    assert join_edges(parse_query("SELECT * WHERE { ?a <http://x/p> ?b . ?c <http://x/q> ?d }")) == []


def test_join_edges_predicate_involved():
    edges = join_edges(parse_query("SELECT * WHERE { ?s ?p ?o . ?p <http://x/q> ?z }"))
    (edge,) = edges
    assert edge.kind is JoinKind.PREDICATE_INVOLVED


def test_edge_symmetry_under_reordering():
    reordered = """SELECT * WHERE {
      ?s <http://x/p3> ?o3 .
      ?s <http://x/p1> ?o1 .
      ?s <http://x/p2> ?o2
    }"""
    base = join_edges(parse_query(STAR_QUERY))
    other = join_edges(parse_query(reordered))
    assert {(e.variable, e.kind) for e in base} == {(e.variable, e.kind) for e in other}
    assert len(base) == len(other)


def test_escaped_iris_read_like_data_terms():
    bgp = parse_query("SELECT * WHERE { ?s <http://x/a\\u0041> ?o }")
    assert bgp.patterns[0].predicate == iri("http://x/aA")
    bgp = parse_query("SELECT * WHERE { ?s <http://x/p> <http://x/\\u003E\\u0020\\u005C> }")
    assert bgp.patterns[0].object == iri("http://x/> \\")



@pytest.mark.parametrize(
    "text, column, bad",
    [
        ("SELECT * WHERE { ?s <http://x/p ?o . ?o <http://q> ?z }", 21, " "),
        ("SELECT * WHERE { ?s <http://x y> ?o }", 21, " "),
        ("SELECT * WHERE { ?s <http://x/p> <http://x/{o}> }", 34, "{"),
    ],
)
def test_raw_forbidden_iri_characters_rejected_at_the_token(text, column, bad):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert err.value.reason == f"character {bad!r} not allowed in IRI"
