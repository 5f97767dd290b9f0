"""Byte-for-byte pins of the results CSV, the correlate reports, the summary and store files.

The golden files were written by the code that defined these outputs; a
refactor that changes a single byte of any of them fails here. Nothing
reads summary files back, so these pins are what holds their format.
``bench_runtimes.csv`` is the benchmark's synthetic runtimes for the bench
queries (``bench/gen.py``: ``runtimes_csv(bench_queries(20240, 50), 20240)``).
``toy_cap3_results.csv`` is ``fedcard evaluate`` of the toy queries over toy
store A with ``--oracle-cap 3``: ``toy_object_join`` blows up, and the three
matches of ``toy_single``'s one pattern just fit. ``edge_results.csv`` is
``fedcard evaluate`` of ``edge_queries/*.rq`` over the bench stores: the bench
queries join only subject-subject and subject-object, and these queries
between them plan every join kind, a cycle, a cartesian step and a join whose
left side holds the higher ordinal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import edge_queries

import fedcard
import fedcard.oracle
from fedcard.cli import main
from fedcard.estimators import ENGINE_NAMES
from fedcard.evaluation import evaluate_queries, rows_to_csv
from fedcard.expr import join_nodes
from fedcard.fixtures import (
    bench_queries,
    bench_stores,
    toy1_store,
    toy2_triples,
    toy_queries,
    write_ntriples,
)
from fedcard.query import JoinKind
from fedcard.store import load_ntriples_file, load_store, load_store_dir, save_store
from fedcard.summaries import save_summary

GOLDEN = Path(__file__).parent / "golden"


def test_bench_results_csv_matches_golden():
    rows = evaluate_queries(bench_queries(), ENGINE_NAMES, bench_stores())
    expected = (GOLDEN / "bench_results.csv").read_text(encoding="utf-8")
    assert rows_to_csv(rows) == expected


def test_bench_results_through_store_files_match_golden(tmp_path):
    for store in bench_stores():
        save_store(store, tmp_path / f"{store.source_name}.store")
    rows = evaluate_queries(bench_queries(), ENGINE_NAMES, load_store_dir(tmp_path))
    expected = (GOLDEN / "bench_results.csv").read_text(encoding="utf-8")
    assert rows_to_csv(rows) == expected


def test_toy_results_under_a_cap_of_3_match_golden():
    rows = evaluate_queries(toy_queries(), ENGINE_NAMES, [toy1_store()], cap=3)
    expected = (GOLDEN / "toy_cap3_results.csv").read_text(encoding="utf-8")
    assert rows_to_csv(rows) == expected


def test_edge_results_csv_matches_golden():
    rows = evaluate_queries(edge_queries(), ENGINE_NAMES, bench_stores())
    expected = (GOLDEN / "edge_results.csv").read_text(encoding="utf-8")
    assert rows_to_csv(rows) == expected


def test_mixed_then_bench_only_calls_over_one_federation_match_golden():
    """Queries of every shape share the oracle's leaf memo of one federation:
    one call over the edge and bench queries gives both golden row sets, and
    a later bench-only call over the same stores still gives its own."""
    stores = bench_stores()
    bench = (GOLDEN / "bench_results.csv").read_text(encoding="utf-8")
    edge = (GOLDEN / "edge_results.csv").read_text(encoding="utf-8")
    queries = {**edge_queries(), **bench_queries()}
    assert len(queries) == len(edge_queries()) + len(bench_queries())
    rows = evaluate_queries(queries, ENGINE_NAMES, stores)
    header, _, bench_rows = bench.partition("\n")
    assert rows_to_csv(rows) == header + "\n" + edge.partition("\n")[2] + bench_rows
    assert rows_to_csv(evaluate_queries(bench_queries(), ENGINE_NAMES, stores)) == bench


def test_edge_queries_plan_every_edge_shape(monkeypatch):
    general = []  # the oracle groups both sides only when each keeps a variable of its own

    def group(*args):
        general.append(args)
        return grouped(*args)

    grouped = fedcard.oracle._group
    monkeypatch.setattr(fedcard.oracle, "_group", group)
    rows = evaluate_queries(edge_queries(), ENGINE_NAMES, bench_stores())
    assert all(row.status == "ok" for row in rows)
    nodes = [node for row in rows for node in join_nodes(row.plan)]
    edges = [edge for node in nodes for edge in node.edges]
    assert {edge.kind for edge in edges} == set(JoinKind)
    assert general  # e07_cycle
    assert any(not node.edges for node in nodes)  # e08_cartesian
    assert any(edge.left > edge.right for edge in edges)  # e02_so_reversed, among others


@pytest.mark.parametrize("method", ["spearman", "ols", "irls"])
def test_bench_correlate_report_matches_golden(tmp_path, method):
    out = tmp_path / "report.csv"
    args = [
        "correlate",
        "--results", str(GOLDEN / "bench_results.csv"),
        "--runtimes", str(GOLDEN / "bench_runtimes.csv"),
        "--method", method,
        "--out", str(out),
    ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / f"bench_report_{method}.csv").read_bytes()


@pytest.mark.parametrize("method", ["spearman", "ols", "irls"])
def test_bench_correlate_report_without_numpy_or_scipy(tmp_path, method):
    """The console command, in a process where numpy and scipy cannot be imported."""
    out = tmp_path / "report.csv"
    code = (
        "import sys; sys.modules['numpy'] = sys.modules['scipy'] = None; "
        "from fedcard.cli import main; main()"
    )
    args = [
        "correlate",
        "--results", str(GOLDEN / "bench_results.csv"),
        "--runtimes", str(GOLDEN / "bench_runtimes.csv"),
        "--method", method,
        "--out", str(out),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(fedcard.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, check=True)
    assert out.read_bytes() == (GOLDEN / f"bench_report_{method}.csv").read_bytes()


def test_costfed_summary_file_matches_golden(tmp_path, toy1_summaries):
    (path,) = save_summary(toy1_summaries.costfed, "costfed", tmp_path)
    assert path.read_bytes() == (GOLDEN / "A.costfed.json").read_bytes()


@pytest.mark.parametrize("kind", ["void", "charsets"])
def test_toy2_summary_file_matches_golden(tmp_path, toy2_summaries, kind):
    """toy2 has characteristic pairs, so the charsets file pins their layout too."""
    (path,) = save_summary(getattr(toy2_summaries, kind), kind, tmp_path)
    assert path.read_bytes() == (GOLDEN / f"A.{kind}.json").read_bytes()


def test_toy2_store_file_matches_golden(tmp_path):
    """toy2 ingested as source A, and that file loaded and saved again, give the pinned bytes."""
    golden = (GOLDEN / "A.store").read_bytes()
    write_ntriples(tmp_path / "toy2.nt", toy2_triples())
    save_store(load_ntriples_file("A", tmp_path / "toy2.nt"), tmp_path / "ingested.store")
    assert (tmp_path / "ingested.store").read_bytes() == golden
    save_store(load_store(GOLDEN / "A.store"), tmp_path / "reloaded.store")
    assert (tmp_path / "reloaded.store").read_bytes() == golden
