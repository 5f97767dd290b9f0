"""fedcard benchmark: four closed-loop, single-threaded workloads.

Run from the repository root:

    python3 bench/run.py --workload eval-scaled --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

Each invocation sets up its workload five times (``setup_s`` is the
median), then times whole passes over the workload's fixed operations
for about ``--seconds``, checks every output, and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics. With ``--trace 1`` it instead sets up once and runs
a pass untraced, traced and untraced again, writes the spans to
``.bench_out/<workload>/spans.jsonl`` and prints the per-layer metrics.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import check
import gen
from tracing import Tracer, layer_metrics, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"
SETUPS = 5
# The seed draws the corpora; the query lists are fixed, so that every seed
# measures the same query mix and differs only in the data. The fan-out
# sizes are those on the default-seed corpus; bins keep clear of the cap,
# so a seed's corpus cannot move a query across it.
FANOUT_CAP = 1_000_000
FANOUT_BINS = [(1e4, 4e4, 9), (4e4, 1.6e5, 9), (1.6e5, 4.5e5, 9), (3e6, 2e7, 5)]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """One workload: ``setup`` builds inputs, ``op`` is one timed pass.

    ``op(i, traced)`` returns the number of result rows it produced.
    ``verify`` checks what the ops produced and returns ``(attempted,
    failed)`` in the workload's own unit (rows, or stores on store-io).
    """

    name = ""

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.digests: dict[str, str] = {}
        self.op_s: dict[str, list[float]] = {}
        self.expected = None
        if seed == gen.DEFAULT_SEED and not tiny and EXPECTED.exists():
            self.expected = json.loads(EXPECTED.read_text()).get(self.name)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, traced: bool) -> int:
        raise NotImplementedError

    def timed(self, key: str, fn, *args):
        """Call ``fn`` and record its time as one sample of operation ``key``."""
        start = time.perf_counter()
        result = fn(*args)
        self.op_s.setdefault(key, []).append(time.perf_counter() - start)
        return result

    def settle(self) -> None:
        """Untimed work after each op (checks that must see its output)."""

    def verify(self) -> tuple[int, int]:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        return {}


class QueryWorkload(Workload):
    """In-process ``evaluate_queries``; a pass evaluates every query once.

    Each query is one ``evaluate_queries`` call under all five engines,
    as ``evaluate`` would run it, followed by its CSV rendering.
    """

    cap = None

    def make_inputs(self) -> tuple[dict, dict]:
        raise NotImplementedError

    def setup(self) -> None:
        from fedcard.store import load_ntriples_file, load_store_dir, save_store
        from fedcard.summaries import build_all

        self.corpus, self.queries = self.make_inputs()
        inputs = _reset(self.work / "inputs")
        gen.write_inputs(inputs, self.corpus, self.queries)
        stores_dir = _reset(self.work / "stores")
        for name in self.corpus:
            store = load_ntriples_file(name, inputs / "sources" / f"{name}.nt")
            save_store(store, stores_dir / f"{name}.store")
        self.stores = load_store_dir(stores_dir)
        self.summaries = build_all(self.stores)
        self.csv: dict[str, str] = {}
        self.runs: dict[str, int] = {}
        self.repeats_differ = 0

    def op(self, i: int, traced: bool) -> int:
        from fedcard.evaluation import evaluate_queries, rows_to_csv

        def evaluate(qid: str):
            rows = evaluate_queries(
                {qid: self.queries[qid]}, gen.ENGINES, self.stores, self.summaries, cap=self.cap
            )
            return rows, rows_to_csv(rows)

        produced = 0
        for qid in self.queries:
            rows, text = self.timed(qid, evaluate, qid)
            produced += len(rows)
            self.runs[qid] = self.runs.get(qid, 0) + 1
            if qid not in self.csv:
                self.csv[qid] = text
            elif self.csv[qid] != text:
                self.repeats_differ += len(rows)
        return produced

    def verify(self) -> tuple[int, int]:
        index = check.SourceIndex(self.corpus)
        attempted = failed = 0
        for qid, text in self.csv.items():
            rows, bad = check.check_results(
                text, {qid: self.queries[qid]}, index, self.expected, self.digests
            )
            attempted += rows * self.runs[qid]
            failed += bad * self.runs[qid]
        return attempted, min(attempted, failed + self.repeats_differ)

    def diagnostics(self) -> dict:
        ms = sorted(s * 1000 for samples in self.op_s.values() for s in samples)
        out = {"query_ms_p50": statistics.median(ms), "queries": len(ms)}
        if len(ms) >= 100:  # p90 only with at least ten samples beyond it
            out["query_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
        return out


class EvalScaled(QueryWorkload):
    name = "eval-scaled"

    def make_inputs(self):
        corpus = gen.scaled_corpus(self.seed, 4, 1 if self.tiny else 3)
        return corpus, gen.bench_queries(gen.DEFAULT_SEED, 12 if self.tiny else 24)


class OracleFanout(QueryWorkload):
    name = "oracle-fanout"
    cap = FANOUT_CAP

    def make_inputs(self):
        reference = gen.scaled_corpus(gen.DEFAULT_SEED, 3, 1)
        bins = FANOUT_BINS[:1] if self.tiny else FANOUT_BINS
        queries = gen.fanout_queries(reference, gen.DEFAULT_SEED, bins)
        return gen.scaled_corpus(self.seed, 3, 1), queries


class CliBench(Workload):
    """The README walk-through as ``python -m fedcard.cli`` subprocesses."""

    name = "cli-bench"

    def setup(self) -> None:
        self.corpus = gen.bench_corpus(self.seed, 3, 1)
        self.queries = gen.bench_queries(gen.DEFAULT_SEED, 50)
        self.inputs = _reset(self.work / "inputs")
        gen.write_inputs(
            self.inputs, self.corpus, self.queries, gen.runtimes_csv(self.queries, self.seed)
        )
        self.outputs: list[tuple[str, str]] = []
        self.snapshots: list[Path] = []
        self.exit_failures = 0

    def _commands(self, run_dir: Path) -> list[tuple[str, list[str]]]:
        stores = str(run_dir / "stores")
        commands = [
            (
                f"ingest {name}",
                ["ingest", "--source", name, "--file",
                 str(self.inputs / "sources" / f"{name}.nt"), "--out", stores],
            )
            for name in self.corpus
        ]
        commands.append(
            ("evaluate", ["evaluate", "--stores", stores, "--queries",
                          str(self.inputs / "queries"), "--engines", "all",
                          "--out", str(run_dir / "results.csv")])
        )
        commands.append(
            ("correlate", ["correlate", "--results", str(run_dir / "results.csv"),
                           "--runtimes", str(self.inputs / "runtimes.csv"),
                           "--features", "E_P,Q_P", "--method", "spearman",
                           "--out", str(run_dir / "report.csv")])
        )
        return commands

    def op(self, i: int, traced: bool) -> int:
        run_dir = _reset(self.work / f"run{i}{'t' if traced else ''}")
        for step, (label, args) in enumerate(self._commands(run_dir)):
            if traced:
                snap = run_dir / f"spans{step}.json"
                self.snapshots.append(snap)
                argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(snap), *args]
            else:
                argv = [sys.executable, "-m", "fedcard.cli", *args]
            proc = self.timed(
                label, partial(subprocess.run, argv, cwd=run_dir, env=_child_env(),
                               capture_output=True, text=True)
            )
            if proc.returncode != 0:
                self.exit_failures += 1
                sys.stderr.write(proc.stderr)
        results = run_dir / "results.csv"
        report = run_dir / "report.csv"
        self.outputs.append(
            (
                results.read_text(encoding="utf-8") if results.exists() else "",
                report.read_text(encoding="utf-8") if report.exists() else "",
            )
        )
        return max(0, len(self.outputs[-1][0].splitlines()) - 1)

    def verify(self) -> tuple[int, int]:
        index = check.SourceIndex(self.corpus)
        expected_rows = len(self.queries) * len(gen.ENGINES)
        attempted = failed = 0
        for results, report in self.outputs:
            rows, bad = check.check_results(
                results, self.queries, index, self.expected, self.digests
            )
            self.digests["report"] = check.digest(report)
            if not report or (self.expected and self.expected["report"] != self.digests["report"]):
                bad = rows
            attempted += max(rows, expected_rows)
            failed += bad
        if self.exit_failures:
            failed = attempted
        return attempted, failed

    def diagnostics(self) -> dict:
        out: dict[str, float] = {}
        for label, samples in self.op_s.items():
            key = f"cli_{label.split()[0]}_s"
            out[key] = out.get(key, 0.0) + statistics.median(samples)
        return out


class StoreIO(Workload):
    """Ingest every source, then ``load_store_dir`` and ``build_all``."""

    name = "store-io"

    def setup(self) -> None:
        self.corpus = gen.scaled_corpus(self.seed, 4, 2 if self.tiny else 27)
        self.inputs = _reset(self.work / "inputs")
        gen.write_inputs(self.inputs, self.corpus, {})
        self.attempted = self.failed = 0
        self.bytes_per_triple = 0.0

    def op(self, i: int, traced: bool) -> int:
        from fedcard.store import load_ntriples_file, load_store_dir, save_store
        from fedcard.summaries import build_all

        def ingest(name: str) -> None:
            store = load_ntriples_file(name, self.inputs / "sources" / f"{name}.nt")
            save_store(store, stores_dir / f"{name}.store")

        stores_dir = _reset(self.work / "stores")
        for name in self.corpus:
            self.timed(f"ingest {name}", ingest, name)
        stores = self.timed("load", load_store_dir, stores_dir)
        summaries = self.timed("summaries", build_all, stores)
        self.last = (stores, summaries, stores_dir)
        return sum(len(s) for s in stores)

    def settle(self) -> None:
        stores, summaries, stores_dir = self.last
        self.last = None
        loaded = {s.source_name: s for s in stores}
        triples = 0
        for name, generated in self.corpus.items():
            self.attempted += 1
            store = loaded.get(name)
            if store is None:
                self.failed += 1
                continue
            got = sorted(
                (t.subject.lexical, t.predicate.lexical, t.object.lexical)
                for t in store.triples
                if t.subject.is_iri() and t.object.is_iri()
            )
            triples += len(got)
            docs = [
                json.dumps(getattr(summaries, kind).to_json_dict(name), sort_keys=True)
                for kind in ("void", "costfed", "charsets")
            ]
            self.digests[name] = check.digest(
                "\n".join(" ".join(t) for t in got) + "\n" + "\n".join(docs)
            )
            if got != sorted(generated) or (
                self.expected and self.expected.get(name) != self.digests[name]
            ):
                self.failed += 1
        size = sum(p.stat().st_size for p in stores_dir.glob("*.store"))
        self.bytes_per_triple = size / max(triples, 1)

    def verify(self) -> tuple[int, int]:
        return self.attempted, self.failed

    def diagnostics(self) -> dict:
        median = {k: statistics.median(v) for k, v in self.op_s.items()}
        return {
            "ingest_s": sum(v for k, v in median.items() if k.startswith("ingest")),
            "load_s": median["load"],
            "summaries_s": median["summaries"],
            "store_bytes_per_triple": self.bytes_per_triple,
        }


WORKLOADS = {w.name: w for w in (CliBench, EvalScaled, OracleFanout, StoreIO)}


def import_times(runs: int) -> tuple[float, float]:
    """Median cumulative import time of ``fedcard.cli`` and ``fedcard.stats``."""
    cli, stats = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fedcard.cli"],
            env=_child_env(), capture_output=True, text=True, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(found.get("fedcard.cli", 0.0))
        stats.append(found.get("fedcard.stats", 0.0))
    return statistics.median(cli), statistics.median(stats)


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Set up ``SETUPS`` times, then time whole passes for ``seconds``.

    A further pass starts only if one more of median length still fits,
    so every run measures whole passes over the same operations.
    """
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - start)
    passes, rows = [], 0
    while not passes or sum(passes) + statistics.median(passes) <= seconds:
        start = time.perf_counter()
        rows += wl.op(len(passes), traced=False)
        passes.append(time.perf_counter() - start)
        wl.settle()
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, CliBench) else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    info = {"pass_s": [round(p, 4) for p in passes], "rows_per_s": rows / sum(passes)}
    return metrics, {**info, **wl.diagnostics()}


def run_traced(wl: Workload, tiny: bool) -> tuple[dict, dict]:
    """One traced set-up, then passes untraced, traced and untraced again.

    The tracing overhead is the traced pass minus the mean of the two
    untraced passes around it, which cancels warm-up and slow drift.
    """
    tracer = None
    if not isinstance(wl, CliBench):
        tracer = Tracer()
        tracer.install()
    wl.setup()
    elapsed = []
    for i, traced in enumerate((False, True, False)):
        if tracer is not None:
            tracer.enabled = traced
        start = time.perf_counter()
        wl.op(i, traced=traced)
        elapsed.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        wl.settle()
    if tracer is not None:
        snapshots = [tracer.snapshot()]
    else:
        snapshots = [json.loads(p.read_text()) for p in wl.snapshots if p.exists()]
    write_spans(wl.work / "spans.jsonl", snapshots)
    metrics = layer_metrics(snapshots)
    metrics["cli.import_s"], metrics["cli.import_stats_s"] = import_times(1 if tiny else 3)
    untraced_s = (elapsed[0] + elapsed[2]) / 2
    metrics["trace.overhead_s"] = elapsed[1] - untraced_s
    units = {k: ("1/s" if k.endswith("_per_s") else "s" if k.endswith("_s") else "count")
             for k in metrics}
    units.update({"store.file_bytes": "B", "oracle.cache_hit_ratio": "ratio",
                  "store.match_calls_per_pair": "ratio"})
    return {k: (v, units[k]) for k, v in metrics.items()}, {"untraced_s": untraced_s}


def run_one(args) -> int:
    if not (SRC / "fedcard").is_dir():
        print(f"error: no fedcard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed, args.tiny, _reset(OUT / args.workload))
    if args.trace:
        metrics, info = run_traced(wl, args.tiny)
    else:
        metrics, info = run_untraced(wl, args.seconds)
    attempted, failed = wl.verify()
    (wl.work / f"digests-seed{args.seed}.json").write_text(
        json.dumps(wl.digests, indent=1, sort_keys=True), encoding="utf-8"
    )
    info["failed_share"] = failed / max(attempted, 1)
    print(f"# {args.workload} seed={args.seed} " + json.dumps(info), file=sys.stderr)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed_share={share:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
