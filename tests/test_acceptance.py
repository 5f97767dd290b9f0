"""Acceptance suite: one test per contract criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import csv
import math
import random
import time

import pytest
from click.testing import CliRunner

from helpers import evaluate_expression, match_triples

from fedcard.cli import main as cli_main
from fedcard.estimators import make_estimator, select_sources
from fedcard.expr import Join, Leaf
from fedcard.fixtures import fig_example_query, fig_example_store
from fedcard.metrics import bundle, clamp_positive, q_error, similarity_error
from fedcard.ntriples import Triple, iri
from fedcard.oracle import CardinalityTrace, Oracle
from fedcard.planner import PlanClass, classify_plan, greedy_left_deep_plan
from fedcard.query import BasicGraphPattern, TriplePattern, Var, parse_query
from fedcard.stats import irls_huber, ols, spearman
from fedcard.store import build_store
from fedcard.summaries import build_all

ENGINES = ("costfed", "splendid", "lhd", "semagrow", "odyssey")


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def fig_trace(tp_real, tp_est, join_real, join_est):
    return CardinalityTrace(
        query_id="fig",
        engine="stub",
        plan=None,
        tp_real=tp_real,
        tp_est=tp_est,
        join_real=join_real,
        join_est=join_est,
    )


def test_criterion_1_golden_metric_values():
    start = time.perf_counter()
    assert q_error([100.0], [90.0]) == pytest.approx(1.1111, abs=1e-3)
    trace = fig_trace((100, 200, 300), (90, 250, 300), (50, 50), (65, 150))
    metrics = bundle(trace)
    assert metrics.q_tp == 1.25
    assert metrics.q_plan == 3.0
    assert metrics.e_tp == pytest.approx(0.0658, abs=5e-4)
    assert metrics.e_plan == pytest.approx(0.1391, abs=5e-4)
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert elapsed_ms < 1000
    report(1, f"golden metric values (computed in {elapsed_ms:.2f} ms)")


def test_criterion_2_outlier_contrast():
    assert q_error([10.0, 10.0, 1.0], [10.0, 10.0, 100.0]) == 100.0
    assert similarity_error([10, 10, 1], [10, 10, 100]) == pytest.approx(0.8596, abs=5e-3)
    report(2, "single-outlier contrast: q-error 100, similarity error ~0.8596")


def _injected_card(leaf_estimates):
    def card(expr):
        if isinstance(expr, Leaf):
            return float(leaf_estimates[expr.pattern.ordinal])
        value = 1.0
        for pattern in expr.patterns:
            value *= leaf_estimates[pattern.ordinal]
        return value

    return card


def test_criterion_3_plan_classification():
    store = fig_example_store()
    bgp = parse_query(fig_example_query())
    oracle = Oracle([store])
    plan1 = greedy_left_deep_plan(bgp, _injected_card({0: 90, 1: 250, 2: 300}))
    plan2 = greedy_left_deep_plan(bgp, _injected_card({0: 200, 1: 600, 2: 500}))
    assert classify_plan(plan1, oracle.cardinality) is PlanClass.OPTIMAL
    assert classify_plan(plan2, oracle.cardinality) is PlanClass.SUB_OPTIMAL

    two = parse_query(
        "SELECT * WHERE { ?s <http://example.org/three/p1> ?a . ?s <http://example.org/three/p2> ?b }"
    )
    plan = greedy_left_deep_plan(two, oracle.cardinality)
    assert classify_plan(plan, oracle.cardinality) is PlanClass.ONLY_PLAN
    report(3, "engine-1 estimates -> Optimal, engine-2 -> SubOptimal, 2-pattern -> OnlyP")


def _random_store(name: str, rng: random.Random):
    n_predicates = rng.randrange(1, 7)
    triples = [
        Triple(
            iri(f"http://r/s{rng.randrange(1, 40)}"),
            iri(f"http://r/p{rng.randrange(n_predicates)}"),
            iri(f"http://r/o{rng.randrange(1, 40)}"),
        )
        for _ in range(rng.randrange(0, 201))
    ]
    return build_store(name, triples)


def _random_bgp(rng: random.Random):
    def slot(prefix, n):
        if rng.random() < 0.55:
            return Var(rng.choice("abcd"))
        return iri(f"http://r/{prefix}{rng.randrange(n)}")

    patterns = tuple(
        TriplePattern(
            slot("s", 40),
            iri(f"http://r/p{rng.randrange(6)}") if rng.random() < 0.85 else Var(rng.choice("vw")),
            slot("o", 40),
            ordinal=i,
        )
        for i in range(rng.randrange(1, 5))
    )
    return BasicGraphPattern(patterns, ())


def _nested_loop_count(expr, stores) -> int:
    rows = [dict()]
    for pattern in expr.patterns:
        leaf_rows = []
        for store in stores:
            for t in match_triples(store, pattern):
                binding = {}
                for (_, slot), value in zip(pattern.slots(), (t.subject, t.predicate, t.object)):
                    if isinstance(slot, Var):
                        binding[slot.name] = value
                leaf_rows.append(binding)
        rows = [
            {**acc, **extra}
            for acc in rows
            for extra in leaf_rows
            if all(acc.get(k, v) == v for k, v in extra.items())
        ]
    return len(rows)


@pytest.fixture(scope="module")
def random_suite():
    """200 random (stores, bgp) cases shared by criteria 4 and 5."""
    rng = random.Random(20240 + 4)
    cases = []
    for i in range(200):
        stores = [_random_store(f"S{i}_{j}", rng) for j in range(rng.randrange(1, 4))]
        cases.append((stores, _random_bgp(rng)))
    return cases


def test_criterion_4_oracle_equivalence_suite(random_suite):
    rng = random.Random(1)
    for stores, bgp in random_suite:
        # (a) exact source selection equals a linear relevance scan
        probe = TriplePattern(Var("x"), iri(f"http://r/p{rng.randrange(6)}"), Var("y"), 0)
        expected = frozenset(
            s.source_name for s in stores if any(t.predicate == probe.predicate for t in s.triples)
        )
        assert select_sources(probe, stores) == expected

        # (b) every engine is exact on (?x,p,?y) over a single source
        single = [stores[0]]
        summaries = build_all(single)
        true_count = float(sum(1 for t in single[0].triples if t.predicate == probe.predicate))
        for engine in ENGINES:
            estimator = make_estimator(engine, summaries, single)
            # The leaf estimate the plan walk takes; Odyssey's inherited tp_card is its fallback.
            assert estimator.expression_card(Leaf(probe)) == true_count, (engine, probe)

        # (c) hash-join oracle equals nested-loop oracle
        plan = Leaf(bgp.patterns[0])
        for pattern in bgp.patterns[1:]:
            plan = Join(plan, Leaf(pattern))
        assert len(evaluate_expression(plan, stores)) == _nested_loop_count(plan, stores)
    report(4, "200-case suite: source selection, per-engine exactness, join oracles agree")


def test_criterion_5_planner_soundness(random_suite):
    suboptimal = 0
    for stores, bgp in random_suite:
        oracle = Oracle(stores)
        plan = greedy_left_deep_plan(bgp, oracle.cardinality)
        if classify_plan(plan, oracle.cardinality) is PlanClass.SUB_OPTIMAL:
            suboptimal += 1
    assert suboptimal == 0
    report(5, "greedy planning with the oracle never classifies SubOptimal (200 cases)")


def test_criterion_6_metric_properties():
    rng = random.Random(66)
    violations = 0
    for _ in range(1000):
        n = rng.randrange(1, 8)
        m = rng.randrange(0, 5)
        tp_real = [rng.uniform(0, 1e5) for _ in range(n)]
        tp_est = [v * rng.uniform(0.05, 20.0) for v in tp_real]
        join_real = [rng.uniform(0, 1e5) for _ in range(m)]
        join_est = [v * rng.uniform(0.05, 20.0) for v in join_real]

        r_c, _ = clamp_positive(tp_real + join_real)
        e_c, _ = clamp_positive(tp_est + join_est)
        q = q_error(r_c, e_c)
        sim = similarity_error(tp_real + join_real, tp_est + join_est)
        ok = (
            q >= 1.0
            and 0.0 <= sim <= 1.0
            and math.isclose(q, q_error(e_c, r_c))
            and math.isclose(sim, similarity_error(tp_est + join_est, tp_real + join_real))
        )
        c = rng.uniform(0.01, 100.0)
        ok = ok and math.isclose(
            sim, similarity_error([c * v for v in tp_real + join_real], [c * v for v in tp_est + join_est]),
            rel_tol=1e-9, abs_tol=1e-12,
        )
        metrics = bundle(fig_trace(tuple(tp_real), tuple(tp_est), tuple(join_real), tuple(join_est)))
        ok = ok and metrics.q_plan >= max(metrics.q_tp, metrics.q_join) - 1e-12
        violations += not ok
    assert violations == 0
    report(6, "1000 random vector pairs: symmetry, bounds, scale covariance, Q_P dominance")


def test_criterion_7_statistics_suite():
    assert spearman([1, 2, 3], [3, 1, 2]).rho == -0.5

    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    fit = ols(x, [2 * v + 1 for v in x])
    assert abs(fit.intercept - 1.0) < 1e-10
    assert abs(fit.slope - 2.0) < 1e-10

    xs = [float(i) for i in range(1, 11)]
    ys = [2.0 * v for v in xs]
    ys[4] = 100.0
    robust = irls_huber(xs, ys)
    assert abs(robust.slope - 2.0) < 0.05
    assert robust.outliers == (4,)

    clean = irls_huber(xs, [2.0 * v for v in xs])
    plain = ols(xs, [2.0 * v for v in xs])
    assert abs(clean.slope - plain.slope) < 1e-8
    assert abs(clean.intercept - plain.intercept) < 1e-8
    report(7, "spearman -0.5 exact, OLS (1,2), IRLS outlier flagged, clean IRLS == OLS")


def test_criterion_8_end_to_end_bench(tmp_path):
    runner = CliRunner()
    start = time.perf_counter()
    fx = tmp_path / "fx"
    assert runner.invoke(cli_main, ["fixtures", "--out", str(fx)]).exit_code == 0
    stores = tmp_path / "stores"
    for name in ("src0", "src1", "src2"):
        result = runner.invoke(
            cli_main,
            ["ingest", "--source", name, "--file", str(fx / f"bench/sources/{name}.nt"), "--out", str(stores)],
        )
        assert result.exit_code == 0, result.output
    results = tmp_path / "results.csv"
    result = runner.invoke(
        cli_main,
        [
            "evaluate",
            "--stores", str(stores),
            "--queries", str(fx / "bench/queries"),
            "--engines", "all",
            "--out", str(results),
        ],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(results.open()))
    assert len(rows) == 250  # 50 queries x 5 engines
    ok_rows = [r for r in rows if r["status"] == "ok"]
    assert len(ok_rows) >= 245

    def correlate_with(runtime_fn, path):
        with path.open("w") as fh:
            fh.write("query_id,engine,runtime_ms\n")
            for r in ok_rows:
                fh.write(f"{r['query_id']},{r['engine']},{runtime_fn(float(r['E_P']))}\n")
        out = tmp_path / (path.stem + "_report.csv")
        invoke = runner.invoke(
            cli_main,
            [
                "correlate",
                "--results", str(results),
                "--runtimes", str(path),
                "--features", "E_P",
                "--method", "spearman",
                "--out", str(out),
            ],
        )
        assert invoke.exit_code == 0, invoke.output
        return {
            row["engine"]: float(row["coefficient"])
            for row in csv.DictReader(out.open())
            if row["engine"] != "average"
        }

    monotone = correlate_with(lambda e: 1000.0 * e + 5.0, tmp_path / "mono.csv")
    anti = correlate_with(lambda e: 1.0e6 - 1000.0 * e, tmp_path / "anti.csv")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert set(monotone) == set(ENGINES)
    for engine, rho in monotone.items():
        assert rho == pytest.approx(1.0, abs=1e-9), engine
    for engine, rho in anti.items():
        assert rho == pytest.approx(-1.0, abs=1e-9), engine
    report(8, f"bench corpus end-to-end in {elapsed:.1f} s; rho = +1 / -1 per engine")


def test_criterion_9_divergent_printed_value():
    # The norm-ratio formula applied to r=(100,200,300), e=(200,500,600)
    # yields ~0.369. A published account of this example prints 0.388,
    # which the formula does not reproduce; this library trusts the
    # formula (see the README's "known divergences" note).
    value = similarity_error([100, 200, 300], [200, 500, 600])
    assert value == pytest.approx(0.369, abs=1e-3)
    assert abs(value - 0.388) > 1e-2
    report(9, "engine-2 tp error follows the formula (0.369), documented divergence")
