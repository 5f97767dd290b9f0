"""Seeded input generators for the benchmark.

The generators import nothing from fedcard: the program under test
receives only the N-Triples files, query texts and runtimes CSV written
here. Triples are ``(subject, predicate, object)`` tuples of IRI strings.

``bench_corpus(seed, 3, 1)`` and ``bench_queries(seed, 50)`` replay the
random draws of ``fedcard.fixtures.bench_stores`` / ``bench_queries``,
so at ``DEFAULT_SEED`` they reproduce the bundled bench corpus byte for
byte. ``scaled_corpus`` keeps that vocabulary and per-entity degree
distribution at any number of entities, with counts that do not vary by
seed; the workloads other than the CLI walk-through use it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

BASE = "http://example.org/bench/"
DEFAULT_SEED = 20240
ENGINES = ("costfed", "splendid", "lhd", "semagrow", "odyssey")
VOCABULARY = ("type", "name", "linksTo", "relatedTo", "partOf", "hasValue", "tag", "near")

Triple = tuple[str, str, str]


def voc(name: str) -> str:
    return f"{BASE}voc/{name}"


def bench_corpus(seed: int, num_sources: int, scale: int) -> dict[str, list[Triple]]:
    """Per-source deduplicated triples of the bench corpus at ``scale``.

    Each source holds ``180 * scale`` entities, overlapping the next
    source's range by a third, as in the bundled corpus.
    """
    rng = random.Random(seed)
    p = {name: voc(name) for name in VOCABULARY}
    classes = [f"{BASE}class/C{i}" for i in range(5)]
    tags = [f"{BASE}tag/t{i}" for i in range(12)]
    values = [f"{BASE}val/v{i}" for i in range(30)]
    step, width = 120 * scale, 180 * scale
    all_entities = [f"{BASE}e/{i}" for i in range(step * (num_sources - 1) + width)]

    corpus = {}
    for src_index in range(num_sources):
        local = all_entities[src_index * step : src_index * step + width]
        triples: list[Triple] = []
        for e in local:
            triples.append((e, p["type"], rng.choice(classes)))
            if rng.random() < 0.8:
                triples.append((e, p["name"], rng.choice(values)))
            for _ in range(rng.randrange(0, 3)):
                triples.append((e, p["linksTo"], rng.choice(all_entities)))
            if rng.random() < 0.5:
                triples.append((e, p["relatedTo"], rng.choice(local)))
            if rng.random() < 0.4:
                triples.append((e, p["partOf"], rng.choice(tags)))
            if rng.random() < 0.6:
                triples.append((e, p["hasValue"], rng.choice(values)))
            for _ in range(rng.randrange(0, 2)):
                triples.append((e, p["tag"], rng.choice(tags)))
            if rng.random() < 0.3:
                triples.append((e, p["near"], rng.choice(all_entities)))
        corpus[f"src{src_index}"] = list(dict.fromkeys(triples))
    return corpus


def scaled_corpus(seed: int, num_sources: int, scale: int) -> dict[str, list[Triple]]:
    """The bench corpus at ``scale`` with exact, not sampled, counts.

    Per-entity predicate frequencies and object vocabularies are those of
    ``bench_corpus``, but each frequency is met exactly over a source's
    entities and each small object vocabulary is filled round-robin. The
    seed decides which entities get which triples, so per-predicate and
    per-object counts, and with them join sizes, barely differ between
    seeds.
    """
    rng = random.Random(seed)
    p = {name: voc(name) for name in VOCABULARY}
    classes = [f"{BASE}class/C{i}" for i in range(5)]
    tags = [f"{BASE}tag/t{i}" for i in range(12)]
    values = [f"{BASE}val/v{i}" for i in range(30)]
    step, width = 120 * scale, 180 * scale
    all_entities = [f"{BASE}e/{i}" for i in range(step * (num_sources - 1) + width)]

    def share(entities: list[str], fraction: float) -> list[str]:
        return rng.sample(entities, round(fraction * len(entities)))

    def cycled(entities: list[str], objects: list[str]) -> list[tuple[str, str]]:
        return [(e, objects[i % len(objects)]) for i, e in enumerate(entities)]

    corpus = {}
    for src_index in range(num_sources):
        local = all_entities[src_index * step : src_index * step + width]
        shuffled = rng.sample(local, len(local))
        third = len(local) // 3
        out_links = [(e, 1) for e in shuffled[:third]]
        out_links += [(e, 2) for e in shuffled[third : 2 * third]]
        triples: list[Triple] = []
        triples += [(e, p["type"], o) for e, o in cycled(rng.sample(local, len(local)), classes)]
        triples += [(e, p["name"], o) for e, o in cycled(share(local, 0.8), values)]
        triples += [
            (e, p["linksTo"], rng.choice(all_entities)) for e, n in out_links for _ in range(n)
        ]
        triples += [(e, p["relatedTo"], rng.choice(local)) for e in share(local, 0.5)]
        triples += [(e, p["partOf"], o) for e, o in cycled(share(local, 0.4), tags)]
        triples += [(e, p["hasValue"], o) for e, o in cycled(share(local, 0.6), values)]
        triples += [(e, p["tag"], o) for e, o in cycled(share(local, 0.5), tags)]
        triples += [(e, p["near"], rng.choice(all_entities)) for e in share(local, 0.3)]
        corpus[f"src{src_index}"] = list(dict.fromkeys(triples))
    return corpus


def bench_queries(seed: int, count: int) -> dict[str, str]:
    """Star, path, grounded-star and mixed queries over the bench vocabulary."""
    rng = random.Random(seed + 1)

    def p(name: str) -> str:
        return f"<{voc(name)}>"

    queries = {}
    shapes = ["star2", "star3", "path2", "path3", "star_ground", "mixed"]
    for i in range(count):
        shape = shapes[i % len(shapes)]
        preds = rng.sample(VOCABULARY, 4)
        if shape == "star2":
            body = f"?s {p(preds[0])} ?a . ?s {p(preds[1])} ?b"
        elif shape == "star3":
            body = f"?s {p(preds[0])} ?a . ?s {p(preds[1])} ?b . ?s {p(preds[2])} ?c"
        elif shape == "path2":
            body = f"?a {p('linksTo')} ?b . ?b {p(preds[0])} ?c"
        elif shape == "path3":
            body = f"?a {p('linksTo')} ?b . ?b {p('relatedTo')} ?c . ?c {p(preds[0])} ?d"
        elif shape == "star_ground":
            cls = rng.randrange(5)
            body = (
                f"?s {p('type')} <{BASE}class/C{cls}> . "
                f"?s {p(preds[0])} ?a . ?s {p(preds[1])} ?b"
            )
        else:
            body = f"?s {p(preds[0])} ?a . ?s {p('linksTo')} ?t . ?t {p(preds[1])} ?v"
        queries[f"q{i:02d}"] = f"SELECT * WHERE {{ {body} }}\n"
    return queries


# Predicates whose objects come from a small fixed set (5, 12 or 30 terms):
# joining two of them on the object multiplies their per-value counts.
_LOW_DISTINCT = ("type", "partOf", "tag", "name", "hasValue")


def fanout_queries(
    corpus: dict[str, list[Triple]], seed: int, bins: list[tuple[float, float, int]]
) -> dict[str, str]:
    """Cartesian and object-object join queries, ``n`` per ``[lo, hi)`` size bin.

    Candidates are drawn from four templates and their exact result
    count is computed from the triples by counting per object value.
    The kept queries are interleaved bin by bin, so every prefix of the
    list has the same mix of sizes.
    """
    rng = random.Random(seed + 2)
    by_pred: dict[str, Counter] = {name: Counter() for name in VOCABULARY}
    for triples in corpus.values():
        for _, pred, obj in triples:
            by_pred[pred.rsplit("/", 1)[1]][obj] += 1
    size = {name: sum(c.values()) for name, c in by_pred.items()}

    def star_on_object(preds: list[str]) -> int:
        counters = [by_pred[name] for name in preds]
        return sum(math.prod(c[v] for c in counters) for v in counters[0])

    def p(name: str) -> str:
        return f"<{voc(name)}>"

    def candidate() -> tuple[str, int]:
        kind = rng.randrange(4)
        if kind == 0:  # object-object join of two patterns
            a, b = rng.choices(_LOW_DISTINCT, k=2)
            return f"?x {p(a)} ?v . ?y {p(b)} ?v", star_on_object([a, b])
        if kind == 1:  # object-object join of three patterns
            a, b, c = rng.choices(_LOW_DISTINCT, k=3)
            return f"?x {p(a)} ?v . ?y {p(b)} ?v . ?z {p(c)} ?v", star_on_object([a, b, c])
        if kind == 2:  # cartesian product of two patterns
            a, b = rng.choices(VOCABULARY, k=2)
            return f"?a {p(a)} ?b . ?c {p(b)} ?d", size[a] * size[b]
        # object join with a grounded pattern multiplied in
        a, b = rng.choices(_LOW_DISTINCT, k=2)
        ground = rng.choice(_LOW_DISTINCT)
        obj = rng.choice(sorted(by_pred[ground]))
        body = f"?x {p(a)} ?v . ?y {p(b)} ?v . ?z {p(ground)} <{obj}>"
        return body, star_on_object([a, b]) * by_pred[ground][obj]

    kept: list[list[str]] = [[] for _ in bins]
    seen = set()
    for _ in range(200_000):
        if all(len(k) >= n for k, (_, _, n) in zip(kept, bins)):
            break
        body, size_n = candidate()
        for k, (lo, hi, n) in zip(kept, bins):
            if lo <= size_n < hi and len(k) < n and body not in seen:
                seen.add(body)
                k.append(body)
    else:
        raise RuntimeError("fan-out generator could not fill every size bin")
    ordered = [k[i] for i in range(max(len(k) for k in kept)) for k in kept if i < len(k)]
    return {f"f{i:02d}": f"SELECT * WHERE {{ {body} }}\n" for i, body in enumerate(ordered)}


def runtimes_csv(query_ids, seed: int) -> str:
    """Synthetic per-(query, engine) runtimes, log-normally distributed."""
    rng = random.Random(seed + 3)
    lines = ["query_id,engine,runtime_ms"]
    for qid in sorted(query_ids):
        for engine in ENGINES:
            lines.append(f"{qid},{engine},{rng.lognormvariate(5.0, 1.0):.3f}")
    return "\n".join(lines) + "\n"


def nt_line(t: Triple) -> str:
    return f"<{t[0]}> <{t[1]}> <{t[2]}> ."


def write_inputs(
    root: Path,
    corpus: dict[str, list[Triple]],
    queries: dict[str, str],
    runtimes: str | None = None,
) -> None:
    """Write ``sources/<src>.nt``, ``queries/<id>.rq`` and ``runtimes.csv``."""
    (root / "sources").mkdir(parents=True, exist_ok=True)
    (root / "queries").mkdir(parents=True, exist_ok=True)
    for name, triples in corpus.items():
        text = "".join(nt_line(t) + "\n" for t in triples)
        (root / "sources" / f"{name}.nt").write_text(text, encoding="utf-8")
    for qid, text in queries.items():
        (root / "queries" / f"{qid}.rq").write_text(text, encoding="utf-8")
    if runtimes is not None:
        (root / "runtimes.csv").write_text(runtimes, encoding="utf-8")
