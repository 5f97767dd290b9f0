"""SPARQL SELECT subset: basic graph patterns and their join structure.

Supported grammar::

    SELECT (* | ?var ...) WHERE { tp ( "." tp )* "."? }

with IRIs in angle brackets, literals quoted (optionally typed or
language-tagged), and variables written ``?name``. IRIs and literals
follow N-Triples term syntax and are read, within their line, by the
N-Triples term scanner (``ntriples.scan_term``).
OPTIONAL / FILTER / UNION and friends are rejected with an "unsupported
clause" error.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields, replace
from typing import Union

from .ntriples import NTriplesParseError, Term, TermKind, format_term, scan_term, split_lines

_UNSUPPORTED_CLAUSES = (
    "OPTIONAL",
    "FILTER",
    "UNION",
    "LIMIT",
    "OFFSET",
    "ORDER",
    "GROUP",
    "HAVING",
    "MINUS",
    "GRAPH",
    "SERVICE",
    "BIND",
    "VALUES",
    "DISTINCT",
    "REDUCED",
    "PREFIX",
)


# Var and TriplePattern (and expr's Leaf and Join) are memo keys on every
# per-row path, so each caches its hash, and what else is read per row, in a
# field that neither compares nor prints. The hash equals the one the
# dataclass would compute.


def cached_hash(obj) -> int:
    """``__hash__``: the hash computed once, at construction."""
    return obj._hash


def rebuild(obj) -> tuple:
    """``__reduce__`` through the constructor, so that a pickled or copied
    object never carries a hash from another process's string-hash seed."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj) if f.init)


@dataclass(frozen=True, slots=True)
class Var:
    """A query variable; ``name`` excludes the leading ``?``."""

    name: str
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    __hash__ = cached_hash
    __reduce__ = rebuild


Slot = Union[Term, Var]

SUBJECT, PREDICATE, OBJECT = "s", "p", "o"


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One triple pattern; ``ordinal`` is its 0-based position in the query.

    ``var_names`` is the frozenset of its variable names, and
    ``var_positions`` the positions each one occupies. ``shape`` fixes the
    rows it matches: each bound slot's canonical N-Triples token and each
    variable's first index (0, 1 or 2), so ``?s p ?o`` and ``?x p ?y`` share
    ``(0, "<p>", 2)`` and ``?x p ?x`` is ``(0, "<p>", 0)``. Every per-pattern
    memo is keyed by it, so no other module reads variable names.
    """

    subject: Slot
    predicate: Slot
    object: Slot
    ordinal: int = 0
    _hash: int = field(init=False, compare=False, repr=False)
    var_names: frozenset[str] = field(init=False, compare=False, repr=False)
    _positions: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    shape: tuple[int | str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        spo = (self.subject, self.predicate, self.object)
        setattr_ = object.__setattr__
        setattr_(self, "_hash", hash((*spo, self.ordinal)))
        positions: dict[str, tuple[str, ...]] = {}
        for pos, slot in zip((SUBJECT, PREDICATE, OBJECT), spo):
            if isinstance(slot, Var):
                positions[slot.name] = positions.get(slot.name, ()) + (pos,)
        setattr_(self, "_positions", positions)
        setattr_(self, "var_names", frozenset(positions))
        shape = tuple(spo.index(s) if isinstance(s, Var) else format_term(s) for s in spo)
        setattr_(self, "shape", shape)

    __hash__ = cached_hash
    __reduce__ = rebuild

    def slots(self) -> tuple[tuple[str, Slot], ...]:
        return ((SUBJECT, self.subject), (PREDICATE, self.predicate), (OBJECT, self.object))

    def variables(self) -> set[str]:
        return set(self.var_names)

    def var_positions(self, name: str) -> tuple[str, ...]:
        return self._positions.get(name, ())

    def bound_predicate(self) -> str | None:
        """Predicate IRI if ground, else None."""
        if isinstance(self.predicate, Var):
            return None
        return self.predicate.lexical


@dataclass(frozen=True, slots=True)
class BasicGraphPattern:
    patterns: tuple[TriplePattern, ...]
    projection: tuple[str, ...]

    def variables(self) -> set[str]:
        out: set[str] = set()
        for tp in self.patterns:
            out |= tp.var_names
        return out


class JoinKind(enum.Enum):
    SUBJECT_SUBJECT = "ss"
    SUBJECT_OBJECT = "so"
    OBJECT_OBJECT = "oo"
    PREDICATE_INVOLVED = "pred"


@dataclass(frozen=True, slots=True)
class JoinEdge:
    """A shared variable between two patterns.

    ``left``/``right`` are the ordinals of the two patterns in the order
    ``edges_between`` was given them: in a ``Join``'s edges, the pattern on
    its left side and the one on its right. ``left_pos``/``right_pos``
    record one canonical position the variable occupies in each (s/p/o),
    used by position-sensitive estimators; they do not depend on the order.
    """

    left: int
    right: int
    variable: str
    kind: JoinKind
    left_pos: str
    right_pos: str


class QueryParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d[\w.]*)
  | (?P<punct>[{}().;,:*])
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int
    term: Term | None = None


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    # Lines end where N-Triples lines do (\n, \r\n or a lone \r), so no token
    # spans lines and a column is an offset within the line.
    for line, line_text in enumerate(split_lines(text), start=1):
        pos = 0
        while pos < len(line_text):
            column = pos + 1
            if line_text[pos] in '<"':
                # IRIs and literals are read by the N-Triples term scanner, so
                # that queries and data share one term grammar.
                try:
                    term, end = scan_term(line_text, pos, line)
                except NTriplesParseError as exc:
                    raise QueryParseError(line, column, exc.reason) from None
                tokens.append(_Token("term", line_text[pos:end], line, column, term))
                pos = end
                continue
            m = _TOKEN_RE.match(line_text, pos)
            if m is None:
                raise QueryParseError(line, column, f"unexpected character {line_text[pos]!r}")
            if m.lastgroup not in ("ws", "comment"):
                tokens.append(_Token(m.lastgroup or "", m.group(), line, column))
            pos = m.end()
    return tokens


class _QueryParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def _error(self, message: str) -> QueryParseError:
        if self.index < len(self.tokens):
            tok = self.tokens[self.index]
            return QueryParseError(tok.line, tok.column, message)
        last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
        return QueryParseError(last.line, last.column + len(last.text), message)

    def _peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def _next(self, message: str) -> _Token:
        tok = self._peek()
        if tok is None:
            raise self._error(message)
        self.index += 1
        return tok

    def _check_unsupported(self, tok: _Token) -> None:
        if tok.kind == "word" and tok.text.upper() in _UNSUPPORTED_CLAUSES:
            raise QueryParseError(tok.line, tok.column, f"unsupported clause: {tok.text.upper()}")

    def _keyword(self, word: str) -> None:
        tok = self._next(f"expected {word}")
        if tok.kind != "word" or tok.text.upper() != word:
            self._check_unsupported(tok)
            raise QueryParseError(tok.line, tok.column, f"expected {word}, found {tok.text!r}")

    def parse(self) -> BasicGraphPattern:
        tok = self._peek()
        if tok is not None and tok.kind == "word" and tok.text.upper() != "SELECT":
            self._check_unsupported(tok)
        self._keyword("SELECT")

        projection_vars: list[str] = []
        star = False
        tok = self._peek()
        if tok is not None and tok.text == "*":
            star = True
            self.index += 1
        else:
            while True:
                tok = self._peek()
                if tok is None or tok.kind != "var":
                    break
                projection_vars.append(tok.text[1:])
                self.index += 1
            if not projection_vars:
                tok = self._peek()
                if tok is not None:
                    self._check_unsupported(tok)
                raise self._error("expected '*' or projection variables")

        self._keyword("WHERE")
        tok = self._next("expected '{'")
        if tok.text != "{":
            raise QueryParseError(tok.line, tok.column, f"expected '{{', found {tok.text!r}")

        patterns: list[TriplePattern] = []
        while True:
            tok = self._peek()
            if tok is None:
                raise self._error("expected '}'")
            if tok.text == "}":
                self.index += 1
                break
            self._check_unsupported(tok)
            patterns.append(self._triple_pattern(len(patterns)))
            tok = self._peek()
            if tok is not None and tok.text == ".":
                self.index += 1
        tok = self._peek()
        if tok is not None:
            self._check_unsupported(tok)
            raise QueryParseError(tok.line, tok.column, f"unexpected content after '}}': {tok.text!r}")

        if not patterns:
            raise QueryParseError(1, 1, "query has no triple patterns")
        bgp = BasicGraphPattern(tuple(patterns), tuple(projection_vars))
        all_vars = bgp.variables()
        if star:
            return replace(bgp, projection=tuple(sorted(all_vars)))
        missing = [v for v in projection_vars if v not in all_vars]
        if missing:
            raise QueryParseError(1, 1, f"projection variable ?{missing[0]} not used in any pattern")
        return bgp

    def _triple_pattern(self, ordinal: int) -> TriplePattern:
        subject = self._slot("subject")
        if isinstance(subject, Term) and subject.kind is TermKind.LITERAL:
            tok = self.tokens[self.index - 1]
            raise QueryParseError(tok.line, tok.column, "literal not allowed as subject")
        predicate = self._slot("predicate")
        if isinstance(predicate, Term) and predicate.kind is not TermKind.IRI:
            tok = self.tokens[self.index - 1]
            raise QueryParseError(tok.line, tok.column, "predicate must be an IRI or variable")
        obj = self._slot("object")
        return TriplePattern(subject, predicate, obj, ordinal=ordinal)

    def _slot(self, role: str) -> Slot:
        tok = self._next(f"expected {role} term")
        if tok.kind == "var":
            return Var(tok.text[1:])
        if tok.term is not None:
            return tok.term
        self._check_unsupported(tok)
        raise QueryParseError(tok.line, tok.column, f"expected {role} term, found {tok.text!r}")


def parse_query(text: str) -> BasicGraphPattern:
    """Parse a SELECT query into a BasicGraphPattern.

    ``*`` projection expands to all variables (sorted); pattern order in
    the text fixes the ordinals.
    """
    return _QueryParser(text).parse()


def _edge_for_pair(left: TriplePattern, right: TriplePattern, variable: str) -> JoinEdge:
    lpos = left.var_positions(variable)
    rpos = right.var_positions(variable)
    if PREDICATE in lpos or PREDICATE in rpos:
        kind = JoinKind.PREDICATE_INVOLVED
        lp = PREDICATE if PREDICATE in lpos else lpos[0]
        rp = PREDICATE if PREDICATE in rpos else rpos[0]
    elif SUBJECT in lpos and SUBJECT in rpos:
        kind, lp, rp = JoinKind.SUBJECT_SUBJECT, SUBJECT, SUBJECT
    elif OBJECT in lpos and OBJECT in rpos:
        kind, lp, rp = JoinKind.OBJECT_OBJECT, OBJECT, OBJECT
    elif SUBJECT in lpos:
        kind, lp, rp = JoinKind.SUBJECT_OBJECT, SUBJECT, OBJECT
    else:
        kind, lp, rp = JoinKind.SUBJECT_OBJECT, OBJECT, SUBJECT
    return JoinEdge(left.ordinal, right.ordinal, variable, kind, lp, rp)


def edges_between(left: TriplePattern, right: TriplePattern) -> list[JoinEdge]:
    """Join edges from ``left`` to ``right``, one per shared variable in name order."""
    return [_edge_for_pair(left, right, v) for v in sorted(left.var_names & right.var_names)]

