"""Output checks that need nothing from fedcard but its CSV text.

``expected_counts`` recomputes #T (``tp_sources``) and ``num_tp`` for a
query by scanning the generated triples directly, never through the
store's matcher. ``check_results`` compares every row of a results CSV
against those counts and, where known, against the digest of the row
lines recorded for the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re

from gen import ENGINES, Triple

_TERM = re.compile(r"\?\w+|<[^>]*>")
RESULTS_HEADER = (
    "query_id,engine,E_T,E_J,E_P,Q_T,Q_J,Q_P,plan_class,"
    "num_tp,num_joins,tp_sources,fallback_used,status"
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_patterns(query_text: str) -> list[tuple[str, str, str]]:
    """Patterns of a generated query: ``?var`` or a bare IRI per slot."""
    body = query_text[query_text.index("{") + 1 : query_text.rindex("}")]
    patterns = []
    for part in body.split(" . "):
        terms = [t if t.startswith("?") else t[1:-1] for t in _TERM.findall(part)]
        if len(terms) != 3:
            raise ValueError(f"unexpected pattern {part!r}")
        patterns.append(tuple(terms))
    return patterns


class SourceIndex:
    """Triples of each source grouped by predicate, for brute-force scans."""

    def __init__(self, corpus: dict[str, list[Triple]]):
        self.by_pred = {}
        for name, triples in corpus.items():
            grouped: dict[str, list[Triple]] = {}
            for t in triples:
                grouped.setdefault(t[1], []).append(t)
            self.by_pred[name] = grouped
        self._memo: dict[tuple, int] = {}

    def sources_matching(self, pattern: tuple[str, str, str]) -> int:
        """Number of sources holding at least one triple unifying with it."""
        if pattern not in self._memo:
            self._memo[pattern] = sum(
                1 for grouped in self.by_pred.values() if _any_match(grouped, pattern)
            )
        return self._memo[pattern]

    def expected_counts(self, query_text: str) -> tuple[int, int]:
        """``(num_tp, tp_sources)`` of a query."""
        patterns = parse_patterns(query_text)
        return len(patterns), sum(self.sources_matching(p) for p in patterns)


def _any_match(grouped: dict[str, list[Triple]], pattern: tuple[str, str, str]) -> bool:
    pred = pattern[1]
    if pred.startswith("?"):
        candidates = [t for ts in grouped.values() for t in ts]
    else:
        candidates = grouped.get(pred, [])
    for triple in candidates:
        binding: dict[str, str] = {}
        for slot, term in zip(pattern, triple):
            if slot.startswith("?"):
                if binding.setdefault(slot, term) != term:
                    break
            elif slot != term:
                break
        else:
            return True
    return False


def check_results(
    csv_text: str,
    queries: dict[str, str],
    index: SourceIndex,
    expected: dict[str, str] | None,
    digests: dict[str, str],
) -> tuple[int, int]:
    """Check every row of a results CSV; returns ``(rows, failed rows)``.

    A row fails when its status is ``failed``, when ``num_tp`` or
    ``tp_sources`` differ from the brute-force counts, or when the digest
    of its query's rows differs from ``expected``; each missing row of a
    query in ``queries`` counts as failed, and every row fails under a
    wrong header. Each query's digest is recorded in ``digests``.
    """
    header_ok = csv_text.split("\n", 1)[0] == RESULTS_HEADER
    by_query: dict[str, list[dict]] = {}
    lines: dict[str, list[str]] = {}
    for record, line in zip(csv.DictReader(io.StringIO(csv_text)), csv_text.splitlines()[1:]):
        by_query.setdefault(record["query_id"], []).append(record)
        lines.setdefault(record["query_id"], []).append(line)

    rows = failed = 0
    for qid in queries:
        records = by_query.get(qid, [])
        missing = len(ENGINES) - len(records)
        rows += max(missing, 0)
        failed += max(missing, 0)
        num_tp, tp_sources = index.expected_counts(queries[qid])
        digests[qid] = digest("\n".join(lines.get(qid, [])))
        digest_ok = expected is None or expected.get(qid) == digests[qid]
        for record in records:
            rows += 1
            if (
                not header_ok
                or not digest_ok
                or record["status"] == "failed"
                or int(record["num_tp"]) != num_tp
                or int(record["tp_sources"]) != tp_sources
            ):
                failed += 1
    return rows, failed
