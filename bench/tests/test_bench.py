"""Tests of the benchmark itself: ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from tracing import layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "0.5", "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_tiny_traced_run_prints_every_per_layer_metric():
    result = _run("--workload", "eval-scaled", "--seconds", "0.5", "--tiny", "--trace", "1")
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert result["metrics"]["store.match_calls"]["value"] > 0
    spans = (ROOT / ".bench_out" / "eval-scaled" / "spans.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "query", "process"}


def test_generator_reproduces_bundled_bench_corpus():
    from fedcard import fixtures
    from fedcard.ntriples import format_triple

    corpus = gen.bench_corpus(gen.DEFAULT_SEED, 3, 1)
    for store in fixtures.bench_stores():
        expected = [format_triple(t) for t in store.triples]
        assert [gen.nt_line(t) for t in corpus[store.source_name]] == expected
    assert gen.bench_queries(gen.DEFAULT_SEED, 50) == fixtures.bench_queries()


def _tiny_results():
    from fedcard.evaluation import evaluate_queries, rows_to_csv
    from fedcard.ntriples import parse_ntriples
    from fedcard.store import build_store

    corpus = gen.bench_corpus(5, 2, 1)
    queries = dict(list(gen.bench_queries(5, 6).items()))
    stores = [
        build_store(name, parse_ntriples("".join(gen.nt_line(t) + "\n" for t in triples)))
        for name, triples in corpus.items()
    ]
    return corpus, queries, rows_to_csv(evaluate_queries(queries, gen.ENGINES, stores))


def test_perturbed_results_csv_raises_failed_share():
    corpus, queries, text = _tiny_results()
    index = check.SourceIndex(corpus)
    digests: dict[str, str] = {}
    rows, failed = check.check_results(text, queries, index, None, digests)
    assert (rows, failed) == (len(queries) * len(gen.ENGINES), 0)
    assert check.check_results(text, queries, index, dict(digests), {}) == (rows, 0)

    header, first, *rest = text.splitlines()
    fields = first.split(",")
    fields[11] = str(int(fields[11]) + 1)  # tp_sources
    perturbed = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert check.check_results(perturbed, queries, index, None, {})[1] > 0

    fields = first.split(",")
    fields[2] = "0.123"  # E_T: only the digest can notice
    perturbed = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert check.check_results(perturbed, queries, index, None, {})[1] == 0
    assert check.check_results(perturbed, queries, index, dict(digests), {})[1] > 0

    dropped = "\n".join([header, *rest]) + "\n"
    assert check.check_results(dropped, queries, index, None, {})[1] > 0


def test_self_time_on_hand_built_span_tree():
    # (id, name, start, end, parent, query)
    spans = [
        (0, "planner.plan", 0.0, 10.0, -1, "q"),
        (1, "estimators.lhd.card", 1.0, 3.0, 0, "q"),
        (2, "store.match", 1.5, 2.0, 1, "q"),
        (3, "estimators.lhd.card", 4.0, 8.0, 0, "q"),
        (4, "estimators.lhd.card", 5.0, 6.0, 3, "q"),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 1.5, 2: 0.5, 3: 3.0, 4: 1.0}

    metrics = layer_metrics([{"spans": spans, "counters": {}}])
    assert metrics["planner.plan_s"] == 4.0
    assert metrics["planner.self_s"] == 4.0
    assert metrics["estimators.self_s"] == 5.5
    assert metrics["store.self_s"] == 0.5
    # the nested card call is one call, and its time is not counted twice
    assert metrics["estimators.lhd.card_calls"] == 2
    assert metrics["estimators.lhd.card_s"] == 6.0
    assert metrics["planner.plan_card_calls"] == 2
