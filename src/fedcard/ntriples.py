"""RDF terms, triples, and a line-based N-Triples reader.

The reader accepts the W3C N-Triples grammar (IRIs, typed/tagged literals,
blank nodes, ``#`` comments) and reports syntax errors with 1-based line
numbers. ``read_ntriples`` turns a document into the shape a store file
holds: its distinct terms as canonical tokens in first-seen order plus
three indexes into them per triple, duplicates preserved in document order
(deduplication happens when a store is built). One compiled pattern splits
each statement line into its three term tokens, and each distinct token
text is read once per document; a line the pattern does not take is read
by the token scanner, which reports the error. ``parse_ntriples`` returns
the same triples as ``Triple`` objects.
``parse_term`` reads a single term token with the same scanner, and
``scan_term`` one token inside a line; together they are the one term
reader of store files and queries.
``format_term`` writes a term's canonical token, which ``parse_term`` reads
back to an equal term, escaping in IRIs every character N-Triples forbids
there. ``canonical_token`` maps any spelling of a term to that token; two
tokens name the same term exactly when their canonical tokens are equal,
so the store's term dictionary is keyed by them.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_UNESCAPES = {v: "\\" + k for k, v in _ESCAPES.items() if k not in ("'",)}
# Characters an N-Triples IRIREF may not hold raw; written as UCHARs.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
# The same set less the backslash, which starts an escape in a token.
_IRI_RAW_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`]')

# One statement line: subject, predicate and object tokens, then ".". Each
# token spans exactly what ``_LineScanner`` consumes for it (an IRI to the
# first ">", a blank label without trailing dots, a literal to its first
# unescaped quote plus a datatype IRI or language tag), and each position
# takes only the kinds it allows, so a literal subject or a non-IRI
# predicate leaves the line to the scanner, which reports it.
_IRI_TOKEN = r"<[^>]*>"
_BLANK_TOKEN = r"_:(?:[\w.-]*[\w-])?"
_LITERAL_TOKEN = r'"[^"\\]*(?:\\.[^"\\]*)*"(?:\^\^<[^>]*>|@(?:[^\W_]|-)*)?'
_STATEMENT = re.compile(
    rf"({_IRI_TOKEN}|{_BLANK_TOKEN})[ \t]*({_IRI_TOKEN})[ \t]*"
    rf"({_IRI_TOKEN}|{_BLANK_TOKEN}|{_LITERAL_TOKEN})[ \t]*\.",
    re.DOTALL,
)


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, each ended by CRLF, a lone CR or LF.

    N-Triples ends a line at CR or LF only; str.splitlines would also split
    inside a term at U+2028, U+0085 and the other Unicode line breaks.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class TermKind(enum.Enum):
    IRI = "iri"
    LITERAL = "literal"
    BLANK = "blank"

    # Enum members compare by identity, so the identity hash is consistent
    # with equality; Enum.__hash__ hashes the member name in Python code,
    # on every Term hash.
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class Term:
    """A ground RDF term: IRI, literal, or blank node.

    ``lexical`` holds the IRI string, the literal value, or the blank-node
    label. A literal carries at most one of ``datatype``/``langtag``.
    """

    kind: TermKind
    lexical: str
    datatype: Optional[str] = None
    langtag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is TermKind.IRI and not self.lexical:
            raise ValueError("IRI term with empty lexical form")
        if self.kind is not TermKind.LITERAL and (self.datatype or self.langtag):
            raise ValueError("datatype/langtag only allowed on literals")
        if self.datatype and self.langtag:
            raise ValueError("literal cannot carry both datatype and langtag")

    def is_iri(self) -> bool:
        return self.kind is TermKind.IRI


def iri(value: str) -> Term:
    return Term(TermKind.IRI, value)


def literal(value: str, datatype: Optional[str] = None, langtag: Optional[str] = None) -> Term:
    return Term(TermKind.LITERAL, value, datatype=datatype, langtag=langtag)


def blank(label: str) -> Term:
    return Term(TermKind.BLANK, label)


@dataclass(frozen=True, slots=True)
class Triple:
    """A ground RDF triple. Subject is never a literal; predicate is an IRI."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if self.subject.kind is TermKind.LITERAL:
            raise ValueError("literal subject is not valid RDF")
        if self.predicate.kind is not TermKind.IRI:
            raise ValueError("predicate must be an IRI")


class NTriplesParseError(ValueError):
    """Syntax or structural error, carrying the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


def _unescape(raw: str, line: int) -> str:
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise NTriplesParseError(line, "dangling escape at end of string")
        esc = raw[i + 1]
        if esc in _ESCAPES:
            out.append(_ESCAPES[esc])
            i += 2
        elif esc == "u" or esc == "U":
            width = 4 if esc == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise NTriplesParseError(line, f"truncated \\{esc} escape")
            try:
                out.append(chr(int(hexpart, 16)))
            except ValueError:
                raise NTriplesParseError(line, f"bad \\{esc} escape '{hexpart}'") from None
            i += 2 + width
        else:
            raise NTriplesParseError(line, f"unknown escape '\\{esc}'")
    return "".join(out)


def _escape(value: str) -> str:
    out = []
    for ch in value:
        if ch in _UNESCAPES:
            out.append(_UNESCAPES[ch])
        else:
            out.append(ch)
    return "".join(out)


def _escape_iri(value: str) -> str:
    return _IRI_FORBIDDEN.sub(lambda m: f"\\u{ord(m.group()):04X}", value)


class _LineScanner:
    """Tokenizer for one N-Triples statement line."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def rest(self) -> str:
        return self.text[self.pos :]

    def error(self, message: str) -> NTriplesParseError:
        return NTriplesParseError(self.line, message)

    def expect_dot(self) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ".":
            raise self.error("expected '.' terminating statement")
        self.pos += 1

    def term(self, role: str) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error(f"expected {role} term")
        ch = self.text[self.pos]
        if ch == "<":
            return self._iri()
        if ch == "_":
            return self._blank()
        if ch == '"':
            return self._literal()
        raise self.error(f"unexpected token {self.rest().split()[0]!r} for {role}")

    def _iri(self) -> Term:
        end = self.text.find(">", self.pos + 1)
        if end < 0:
            raise self.error("unterminated IRI")
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        bad = _IRI_RAW_FORBIDDEN.search(raw)
        if bad:
            raise self.error(f"character {bad.group()!r} not allowed in IRI")
        value = _unescape(raw, self.line)
        if not value:
            raise self.error("empty IRI")
        return iri(value)

    def _blank(self) -> Term:
        if not self.text.startswith("_:", self.pos):
            raise self.error("malformed blank node label")
        i = self.pos + 2
        start = i
        while i < len(self.text) and (self.text[i].isalnum() or self.text[i] in "-_."):
            i += 1
        label = self.text[start:i].rstrip(".")
        i = start + len(label)
        if not label:
            raise self.error("empty blank node label")
        self.pos = i
        return blank(label)

    def _literal(self) -> Term:
        i = self.pos + 1
        chunks = []
        while True:
            if i >= len(self.text):
                raise self.error("unterminated literal")
            ch = self.text[i]
            if ch == "\\":
                if i + 1 >= len(self.text):
                    raise self.error("dangling escape in literal")
                chunks.append(self.text[i : i + 2])
                i += 2
                continue
            if ch == '"':
                break
            chunks.append(ch)
            i += 1
        value = _unescape("".join(chunks), self.line)
        self.pos = i + 1
        if self.text.startswith("^^<", self.pos):
            self.pos += 2
            dtype = self._iri()
            return literal(value, datatype=dtype.lexical)
        if self.text.startswith("@", self.pos):
            i = self.pos + 1
            start = i
            while i < len(self.text) and (self.text[i].isalnum() or self.text[i] == "-"):
                i += 1
            tag = self.text[start:i]
            if not tag:
                raise self.error("empty language tag")
            self.pos = i
            return literal(value, langtag=tag)
        return literal(value)


def _read_line(line: str, lineno: int) -> tuple[Term, Term, Term]:
    """Read one stripped statement line with the scanner, term by term.

    Raises NTriplesParseError for the first fault in reading order; a
    literal subject is reported before anything after it is read.
    """
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
    return subject, predicate, obj


def read_ntriples(text: str) -> tuple[list[str], list[int]]:
    """Read N-Triples text into its distinct terms and their per-triple indexes.

    Returns the document's distinct terms as canonical tokens
    (``canonical_token``) in first-seen order, and a flat list of indexes
    into them, three per triple, in document order with duplicates
    preserved; two spellings of one term share an index. Raises
    NTriplesParseError with a 1-based line number on bad input.
    """
    tokens: list[str] = []
    # Token text -> index into tokens, for every spelling read so far; a
    # canonical token is a spelling of its own term, so one map serves both.
    index: dict[str, int] = {}
    flat: list[int] = []

    def index_of(canonical: str) -> int:
        found = index.get(canonical)
        if found is None:
            found = index[canonical] = len(tokens)
            tokens.append(canonical)
        return found

    def read_line(line: str, lineno: int) -> list[int]:
        return [index_of(format_term(term)) for term in _read_line(line, lineno)]

    def read_tokens(line: str, lineno: int, spellings: tuple[str, ...]) -> list[int]:
        indexes = []
        for token in spellings:
            found = index.get(token)
            if found is None:
                try:
                    canonical = canonical_token(token)
                except NTriplesParseError:
                    return read_line(line, lineno)
                found = index[token] = index_of(canonical)
            indexes.append(found)
        return indexes

    statement = _STATEMENT.fullmatch
    for lineno, raw_line in enumerate(split_lines(text), start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        m = statement(line)
        if m is None:
            flat += read_line(line, lineno)
            continue
        s, p, o = m.groups()
        try:
            flat += (index[s], index[p], index[o])
        except KeyError:
            flat += read_tokens(line, lineno, (s, p, o))
    return tokens, flat


def _is_plain_iri(token: str) -> bool:
    """Whether a string is a non-empty IRI token with no escape and no
    forbidden character: its own canonical token, and ``<lexical>``."""
    return (
        len(token) > 2
        and token[0] == "<"
        and token[-1] == ">"
        and not _IRI_FORBIDDEN.search(token, 1, len(token) - 1)
    )


def canonical_token(token: str) -> str:
    """The canonical spelling of a term token: ``format_term(parse_term(token))``.

    A plain IRI token is returned as it is, with no ``Term`` built. Raises
    NTriplesParseError, as ``parse_term`` does, for a bad token.
    """
    if isinstance(token, str) and _is_plain_iri(token):
        return token
    return format_term(parse_term(token))


def parse_term(token: str) -> Term:
    """Read one N-Triples term token: ``<iri>``, ``_:label`` or a literal.

    Raises NTriplesParseError for a non-string, an empty token, or content
    after the term.
    """
    if not isinstance(token, str):
        raise NTriplesParseError(1, f"term token must be a string, got {token!r}")
    if _is_plain_iri(token):
        return Term(TermKind.IRI, token[1:-1])
    term, end = scan_term(token, 0)
    if end != len(token):
        raise NTriplesParseError(1, f"trailing content {token[end:]!r}")
    return term


def scan_term(line: str, pos: int, lineno: int = 1) -> tuple[Term, int]:
    """Read the term token that starts at ``pos`` of one line of text.

    Returns the term and the offset just past its token; raises
    NTriplesParseError, numbered ``lineno``, for a malformed token.
    """
    scanner = _LineScanner(line, lineno)
    scanner.pos = pos
    return scanner.term("RDF"), scanner.pos


def parse_ntriples(text: str) -> list[Triple]:
    """Parse N-Triples text into a list of triples, duplicates preserved."""
    tokens, flat = read_ntriples(text)
    terms = list(map(parse_term, tokens))
    return [
        Triple(terms[s], terms[p], terms[o]) for s, p, o in zip(flat[0::3], flat[1::3], flat[2::3])
    ]


def format_term(term: Term) -> str:
    """Serialize a term to its canonical N-Triples token."""
    if term.kind is TermKind.IRI:
        return f"<{_escape_iri(term.lexical)}>"
    if term.kind is TermKind.BLANK:
        return f"_:{term.lexical}"
    body = f'"{_escape(term.lexical)}"'
    if term.datatype:
        return f"{body}^^<{_escape_iri(term.datatype)}>"
    if term.langtag:
        return f"{body}@{term.langtag}"
    return body


def format_triple(triple: Triple) -> str:
    return (
        f"{format_term(triple.subject)} {format_term(triple.predicate)} "
        f"{format_term(triple.object)} ."
    )
