"""Span tracer that wraps fedcard's public functions from outside.

``Tracer.install`` replaces each function named in ``TARGETS`` (and each
method in ``METHODS``) at every place it is bound: the defining module and
every ``fedcard`` module that imported it by name, so the ``match`` that
``estimators.base`` and ``oracle`` call is wrapped too. Each call records a
span ``(id, name, start, end, parent, query)``; spans stay in memory until
``dump``. Counters are updated at the same boundaries.

A span's self time is its duration minus the part of it covered by its
child spans; a layer's self time is the sum over the spans of that layer
(the first component of the span name).
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

from gen import ENGINES

LAYERS = (
    "ntriples",
    "store",
    "summaries",
    "estimators",
    "planner",
    "oracle",
    "metrics",
    "evaluation",
    "stats",
)

# (module, function, span name)
TARGETS = (
    ("fedcard.ntriples", "parse_ntriples", "ntriples.parse"),
    ("fedcard.store", "build_store", "store.build"),
    ("fedcard.store", "save_store", "store.save"),
    ("fedcard.store", "load_store", "store.load"),
    ("fedcard.store", "match", "store.match"),
    ("fedcard.summaries", "build_all", "summaries.build"),
    ("fedcard.summaries", "build_void", "summaries.void"),
    ("fedcard.summaries", "build_costfed", "summaries.costfed"),
    ("fedcard.summaries", "build_charsets", "summaries.charsets"),
    ("fedcard.estimators.base", "select_sources", "estimators.select_sources"),
    ("fedcard.planner", "greedy_left_deep_plan", "planner.plan"),
    ("fedcard.planner", "classify_plan", "planner.classify"),
    ("fedcard.planner", "tp_sources_count", "planner.tp_sources"),
    ("fedcard.oracle", "true_tp_card", "oracle.true_tp_card"),
    ("fedcard.oracle", "trace_plan", "oracle.trace_plan"),
    ("fedcard.metrics", "bundle", "metrics.bundle"),
    ("fedcard.evaluation", "evaluate_query", "evaluation.evaluate_query"),
    ("fedcard.evaluation", "rows_to_csv", "evaluation.csv"),
    ("fedcard.evaluation", "read_results_csv", "evaluation.csv"),
    ("fedcard.evaluation", "read_runtimes_csv", "evaluation.csv"),
    ("fedcard.stats", "correlate_results", "stats.correlate"),
)

# (module, class, method, span name); "{engine}" is the estimator's engine.
_ESTIMATOR = ("fedcard.estimators.base", "CardinalityEstimator")
METHODS = (
    (*_ESTIMATOR, "expression_card", "estimators.{engine}.card"),
    (*_ESTIMATOR, "evaluate_plan", "estimators.{engine}.card"),
    ("fedcard.estimators.odyssey", "OdysseyEstimator", "star_card", "estimators.odyssey.star_card"),
    ("fedcard.oracle", "Oracle", "bindings", "oracle.{node}"),
)


class Tracer:
    """Collects spans and counters while ``enabled``; one per process."""

    def __init__(self) -> None:
        self.enabled = True
        self.query = ""
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._pairs: set = set()
        self._oracle_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, name))
        return span_id, parent, time.perf_counter()

    def _exit(self, span_id: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.query))

    def parent_name(self) -> str:
        return self._stack[-2][1] if len(self._stack) > 1 else ""

    def _wrap(self, fn, name: str, namer=None, on_result=None, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            span_name = namer(args) if namer else name
            span_id, parent, start = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._on_error(span_name, exc)
                raise
            else:
                if on_result is not None:
                    on_result(args, result)
                return result
            finally:
                tracer._exit(span_id, parent, span_name, start)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters at the wrapped boundaries ----------------------------------

    def _on_error(self, span_name: str, exc: BaseException) -> None:
        oracle_nodes = ("oracle.leaf", "oracle.join")
        if span_name in oracle_nodes and type(exc).__name__ == "OracleBlowupError":
            if self.parent_name() not in oracle_nodes:  # count each blow-up once
                self.counters["oracle.blowups"] += 1

    def _set_query(self, args) -> None:
        self.query = args[0]

    def _on_match(self, args, result) -> None:
        store, pattern = args[0], args[1]
        self.counters["store.match_triples"] += len(result)
        self._pairs.add((self.query, pattern, store.source_name))

    def _on_parse(self, args, result) -> None:
        self.counters["ntriples.triples"] += len(result)

    def _on_save(self, args, result) -> None:
        self.counters["store.file_bytes"] += os.path.getsize(args[1])

    def _on_bindings(self, args, result) -> None:
        oracle, expr = args[0], args[1]
        key = self._ordinals(expr)
        seen = self._oracle_keys.setdefault(oracle, set())
        if key in seen:
            self.counters["oracle.cache_hits"] += 1
            return
        seen.add(key)
        self.counters["oracle.bindings_built"] += len(result)
        self.counters["oracle.max_bag"] = max(self.counters["oracle.max_bag"], len(result))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every fedcard binding site."""
        import fedcard.evaluation  # noqa: F401  (loads every traced module but stats)
        import fedcard.expr

        self._ordinals = fedcard.expr.ordinals
        hooks = {
            "store.match": self._on_match,
            "ntriples.parse": self._on_parse,
            "store.save": self._on_save,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("fedcard") and m]
        for module_name, attr, span in TARGETS:
            if module_name not in sys.modules:  # fedcard.stats is only loaded by the CLI
                continue
            original = getattr(sys.modules[module_name], attr)
            on_call = self._set_query if span == "evaluation.evaluate_query" else None
            wrapped = self._wrap(original, span, on_result=hooks.get(span), on_call=on_call)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        def engine_namer(template):
            return lambda args: template.format(engine=args[0].engine.value)

        def node_namer(args):
            return "oracle.join" if hasattr(args[1], "left") else "oracle.leaf"

        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            if span.startswith("oracle."):
                wrapped = self._wrap(original, span, node_namer, self._on_bindings)
            elif "{engine}" in span:
                wrapped = self._wrap(original, span, engine_namer(span))
            else:
                wrapped = self._wrap(original, span)
            setattr(cls, attr, wrapped)

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        counters["store.match_pairs"] = len(self._pairs)
        return {"spans": self.spans, "counters": counters}

    def dump(self, path: Path) -> None:
        """Write the snapshot as one JSON document (read back by ``run.py``)."""
        Path(path).write_text(json.dumps(self.snapshot()), encoding="utf-8")


def write_spans(path: Path, snapshots: list[dict]) -> None:
    """Write spans as JSON lines, one process after another; ids stay unique."""
    path.parent.mkdir(parents=True, exist_ok=True)
    offset = 0
    with path.open("w", encoding="utf-8") as fh:
        for process, snap in enumerate(snapshots):
            for span_id, name, start, end, parent, query in snap["spans"]:
                record = {
                    "id": span_id + offset,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent + offset if parent >= 0 else -1,
                    "query": query,
                    "process": process,
                }
                fh.write(json.dumps(record) + "\n")
            offset += 1 + max((s[0] for s in snap["spans"]), default=-1)


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(snapshots: list[dict]) -> dict[str, float]:
    """Per-layer counts, busy time and self time from one or more processes.

    ``*_s`` is busy time (outermost spans of that name, so recursion is
    not counted twice), except ``planner.plan_s``, ``planner.classify_s``,
    ``oracle.join_s`` and ``<layer>.self_s``, which are self time.
    """
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    layer_self: Counter = Counter()
    counters: Counter = Counter()
    max_bag = 0
    plan_card_calls = 0
    for snap in snapshots:
        spans = snap["spans"]
        names = {s[0]: s[1] for s in spans}
        selfs = self_times(spans)
        for span_id, name, start, end, parent, _ in spans:
            parent_name = names.get(parent, "")
            own[name] += selfs[span_id]
            layer_self[name.split(".", 1)[0]] += selfs[span_id]
            if parent_name == name:
                continue
            calls[name] += 1
            busy[name] += end - start
            if name.endswith(".card") and parent_name == "planner.plan":
                plan_card_calls += 1
        for key, value in snap["counters"].items():
            if key == "oracle.max_bag":
                max_bag = max(max_bag, value)
            else:
                counters[key] += value

    leaf_calls = sum(1 for snap in snapshots for s in snap["spans"] if s[1] == "oracle.leaf")
    join_calls = sum(1 for snap in snapshots for s in snap["spans"] if s[1] == "oracle.join")
    parse_s = busy["ntriples.parse"]
    match_calls = calls["store.match"]
    out = {
        "ntriples.parse_s": parse_s,
        "ntriples.triples_per_s": counters["ntriples.triples"] / parse_s if parse_s else 0.0,
        "store.build_s": busy["store.build"],
        "store.save_s": busy["store.save"],
        "store.load_s": busy["store.load"],
        "store.file_bytes": counters["store.file_bytes"],
        "store.match_calls": match_calls,
        "store.match_s": busy["store.match"],
        "store.match_pairs": counters["store.match_pairs"],
        "store.match_calls_per_pair": (
            match_calls / counters["store.match_pairs"] if counters["store.match_pairs"] else 0.0
        ),
        "store.match_triples": counters["store.match_triples"],
        "summaries.build_s": busy["summaries.build"],
        "summaries.void_s": busy["summaries.void"],
        "summaries.costfed_s": busy["summaries.costfed"],
        "summaries.charsets_s": busy["summaries.charsets"],
        "estimators.select_sources_calls": calls["estimators.select_sources"],
        "estimators.select_sources_s": busy["estimators.select_sources"],
    }
    for engine in ENGINES:
        out[f"estimators.{engine}.card_calls"] = calls[f"estimators.{engine}.card"]
        out[f"estimators.{engine}.card_s"] = busy[f"estimators.{engine}.card"]
    out.update(
        {
            "estimators.odyssey.star_card_s": busy["estimators.odyssey.star_card"],
            "planner.plan_s": own["planner.plan"],
            "planner.plan_card_calls": plan_card_calls,
            "planner.tp_sources_s": busy["planner.tp_sources"],
            "planner.classify_s": own["planner.classify"],
            "oracle.true_tp_card_s": busy["oracle.true_tp_card"],
            "oracle.leaf_calls": leaf_calls,
            "oracle.leaf_s": busy["oracle.leaf"],
            "oracle.join_calls": join_calls,
            "oracle.join_s": own["oracle.join"],
            "oracle.cache_hit_ratio": (
                counters["oracle.cache_hits"] / (leaf_calls + join_calls)
                if leaf_calls + join_calls
                else 0.0
            ),
            "oracle.bindings_built": counters["oracle.bindings_built"],
            "oracle.max_bag": max_bag,
            "oracle.blowups": counters["oracle.blowups"],
            "metrics.bundle_s": busy["metrics.bundle"],
            "evaluation.evaluate_query_s": busy["evaluation.evaluate_query"],
            "evaluation.csv_s": busy["evaluation.csv"],
            "stats.correlate_s": busy["stats.correlate"],
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
