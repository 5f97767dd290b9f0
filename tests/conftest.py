from pathlib import Path

import pytest

from fedcard.estimators import ENGINE_NAMES, make_estimator
from fedcard.fixtures import (
    bench_queries,
    bench_stores,
    fig_example_store,
    toy1_store,
    toy2_triples,
    toy_stores,
)
from fedcard.ntriples import iri
from fedcard.oracle import Oracle
from fedcard.planner import classify_plan, greedy_left_deep_plan
from fedcard.query import TriplePattern, Var, parse_query
from fedcard.store import build_store
from fedcard.summaries import build_all

TOY = "http://example.org/toy/"
EDGE_QUERIES = Path(__file__).parent / "golden" / "edge_queries"


def edge_queries() -> dict[str, str]:
    """The edge-kind queries over the bench vocabulary, keyed by file stem."""
    paths = sorted(EDGE_QUERIES.glob("*.rq"))
    return {path.stem: path.read_text(encoding="utf-8") for path in paths}


def toy_iri(name: str):
    return iri(TOY + name)


def tp(s, p, o, ordinal=0) -> TriplePattern:
    """Shorthand: strings starting with '?' become variables, else toy IRIs."""

    def slot(v):
        return Var(v[1:]) if isinstance(v, str) and v.startswith("?") else toy_iri(v)

    return TriplePattern(slot(s), slot(p), slot(o), ordinal=ordinal)


@pytest.fixture(scope="session")
def toy1():
    return toy1_store()


@pytest.fixture(scope="session")
def toy1_summaries(toy1):
    return build_all([toy1])


@pytest.fixture(scope="session")
def toy_ab():
    """toy1 as source A plus a single-triple source B sharing predicate q."""
    return toy_stores()


@pytest.fixture(scope="session")
def toy_ab_summaries(toy_ab):
    return build_all(toy_ab)


@pytest.fixture(scope="session")
def toy2():
    return build_store("A", toy2_triples())


@pytest.fixture(scope="session")
def toy2_summaries(toy2):
    return build_all([toy2])


@pytest.fixture(scope="session")
def fig_store():
    return fig_example_store()


@pytest.fixture(scope="session")
def fig_summaries(fig_store):
    return build_all([fig_store])


@pytest.fixture(scope="session")
def bench_nodes():
    """Every node that the planner and ``classify_plan`` ask about, over the
    bench queries and the edge-kind queries, on the bench stores."""
    stores = bench_stores()
    summaries = build_all(stores)
    nodes = []

    def recording(card):
        def wrapped(expr):
            nodes.append(expr)
            return card(expr)

        return wrapped

    for text in [*bench_queries().values(), *edge_queries().values()]:
        bgp = parse_query(text)
        oracle = Oracle(stores)
        for engine in ENGINE_NAMES:
            estimator = make_estimator(engine, summaries, stores)
            plan = greedy_left_deep_plan(bgp, recording(estimator.expression_card))
            nodes.append(plan)
            classify_plan(plan, recording(oracle.cardinality))
    return nodes
