"""The results-CSV format: its header, and readers for results and runtimes.

Standard library only, so reading a results file (as ``correlate`` does)
loads no estimator, oracle or store.
"""

from __future__ import annotations

import csv
from pathlib import Path

RESULTS_HEADER = (
    "query_id,engine,E_T,E_J,E_P,Q_T,Q_J,Q_P,plan_class,"
    "num_tp,num_joins,tp_sources,fallback_used,status"
)


def read_results_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = RESULTS_HEADER.split(",")
        if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
            raise ValueError(f"results file needs columns {required}")
        return [dict(r) for r in reader]


def read_runtimes_csv(path: str | Path) -> dict[tuple[str, str], float]:
    """Map (query_id, engine) -> runtime_ms from a runtimes file."""
    out: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"query_id", "engine", "runtime_ms"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"runtimes file needs columns {sorted(required)}")
        for record in reader:
            key = (record["query_id"], record["engine"])
            try:
                out[key] = float(record["runtime_ms"])
            except (TypeError, ValueError):
                raise ValueError(
                    f"line {reader.line_num}: runtime_ms {record['runtime_ms']!r} is not a number"
                ) from None
    return out
