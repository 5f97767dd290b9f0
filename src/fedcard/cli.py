"""Command-line interface: ingest, summarize, evaluate, correlate, fixtures.

Exit codes: 0 success, 1 data/convergence failure, 2 usage error.

Only click and the standard library are imported here; each command imports
the modules it runs in its own body, so a process loads only what its command
needs: ``correlate`` reads the results CSV without loading the store, the
estimators or the oracle, and ``ingest`` never loads the statistics.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

import click

if TYPE_CHECKING:
    from .stats import CorrelationReport
    from .store import TripleStore

METRIC_FEATURES = ("E_T", "E_J", "E_P", "Q_T", "Q_J", "Q_P")
# ``fedcard.stats.METHODS``, spelled out so that building ``--method`` does
# not load the statistics; tests/test_cli.py checks that the two agree.
CORRELATION_METHODS = ("spearman", "ols", "irls")

# The kind of every path option. click checks it before any work, so a path
# of the wrong kind is a usage error (exit 2).
FILE = click.Path(dir_okay=False)
DIR = click.Path(file_okay=False)
EXISTING_FILE = click.Path(exists=True, dir_okay=False)
EXISTING_DIR = click.Path(exists=True, file_okay=False)


def _fail(message: str, code: int) -> NoReturn:
    """Print ``error: <message>`` to stderr and exit with ``code``."""
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _make_dir(path: Path) -> None:
    """Create ``path`` and its parents; a path that runs through a file exits 2."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot create directory {path}: {exc.strerror}", 2)


@click.group()
def main() -> None:
    """Cardinality-estimation laboratory for federated SPARQL planning."""


@main.command()
@click.option("--source", required=True, help="Source name for the ingested dataset.")
@click.option("--file", "file_path", required=True, type=FILE, help="N-Triples input file.")
@click.option("--out", "out_dir", required=True, type=DIR, help="Store directory.")
def ingest(source: str, file_path: str, out_dir: str) -> None:
    """Parse an N-Triples file into a deduplicated store file."""
    from .ntriples import NTriplesParseError
    from .store import load_ntriples_file, save_store

    path = Path(file_path)
    if not path.exists():
        _fail(f"no such file: {path}", 2)
    out = Path(out_dir)
    _make_dir(out)
    target = out / f"{source}.store"
    if target.is_dir():
        _fail(f"cannot write store file {target}: it is a directory", 2)
    try:
        store = load_ntriples_file(source, path)
    except (NTriplesParseError, UnicodeDecodeError) as exc:
        _fail(f"{path}: {exc}", 1)
    save_store(store, target)
    click.echo(f"ingested {store.total_triples} triples from {path} into {target}")


def _load_stores(stores_dir: str) -> list[TripleStore]:
    """Every store under ``stores_dir``; a missing or unreadable store exits 1."""
    from .store import load_store_dir

    try:
        stores = load_store_dir(stores_dir)
    except (OSError, ValueError) as exc:  # e.g. a directory named *.store, bad JSON
        _fail(f"cannot load stores from {stores_dir}: {exc}", 1)
    if not stores:
        _fail(f"no .store files under {stores_dir}", 1)
    return stores


@main.command()
@click.option("--stores", "stores_dir", required=True, type=EXISTING_DIR)
@click.option("--kind", type=click.Choice(["void", "costfed", "charsets", "all"]), default="all")
@click.option("--out", "out_dir", required=True, type=DIR)
def summarize(stores_dir: str, kind: str, out_dir: str) -> None:
    """Build statistics summaries from ingested stores."""
    from .summaries import build_all, save_summary

    _make_dir(Path(out_dir))
    summaries = build_all(_load_stores(stores_dir))
    kinds = ["void", "costfed", "charsets"] if kind == "all" else [kind]
    for k in kinds:
        summary = getattr(summaries, k)
        written = save_summary(summary, k, out_dir)
        click.echo(f"wrote {len(written)} {k} summary file(s) to {out_dir}")


def _parse_names(spec: str, valid: Sequence[str], what: str) -> list[str]:
    """Each name of the comma-separated ``--{what}s`` list once, in first-seen order.

    Names match ``valid`` case-insensitively; an unknown name or an empty list exits 2.
    """
    spelled = {name.lower(): name for name in valid}
    names = [item.strip().lower() for item in spec.split(",") if item.strip()]
    for name in names:
        if name not in spelled:
            _fail(f"unknown {what} {name!r}; valid {what}s: {', '.join(valid)}", 2)
    if not names:
        _fail(f"--{what}s names no {what}; valid {what}s: {', '.join(valid)}", 2)
    return [spelled[name] for name in dict.fromkeys(names)]


def _parse_engines(spec: str) -> list[str]:
    from .estimators import ENGINE_NAMES

    if spec.strip().lower() == "all":
        return list(ENGINE_NAMES)
    return _parse_names(spec, ENGINE_NAMES, "engine")


@main.command()
@click.option("--stores", "stores_dir", required=True, type=EXISTING_DIR)
@click.option("--queries", "queries_dir", required=True, type=EXISTING_DIR)
@click.option("--engines", default="all", help="Comma-separated engine list or 'all'.")
@click.option("--out", "out_path", required=True, type=FILE)
@click.option("--oracle-cap", type=int, default=None, help="Intermediate-result cap.")
@click.option("--seed", type=int, default=0, help="Reserved; evaluation is deterministic.")
def evaluate(stores_dir, queries_dir, engines, out_path, oracle_cap, seed) -> None:
    """Evaluate every query under every engine; write the results CSV."""
    from .evaluation import evaluate_queries, write_results_csv
    from .oracle import default_cap

    del seed  # the pipeline is deterministic; the flag pins the contract
    engine_names = _parse_engines(engines)
    # A bad cap is a usage error (exit 2) whatever the stores hold, so check it first.
    if oracle_cap is not None and oracle_cap < 1:
        _fail(f"--oracle-cap must be a positive integer, got {oracle_cap}", 2)
    try:
        cap = oracle_cap if oracle_cap is not None else default_cap()
    except ValueError as exc:
        _fail(str(exc), 2)
    # So is an output path through a file, also when the stores or queries are damaged.
    _make_dir(Path(out_path).parent)
    stores = _load_stores(stores_dir)
    queries = {}
    for path in sorted(Path(queries_dir).glob("*.rq")):
        try:
            queries[path.stem] = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            _fail(f"{path}: {exc}", 1)
        except OSError as exc:  # e.g. a directory named *.rq
            _fail(f"{path}: {exc.strerror}", 1)
    rows = evaluate_queries(queries, engine_names, stores, cap=cap)
    write_results_csv(rows, out_path)
    ok = sum(1 for r in rows if r.status == "ok")
    click.echo(f"wrote {len(rows)} rows ({ok} ok) to {out_path}")


def _render_report_csv(reports: list[CorrelationReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["engine", "feature", "method", "coefficient", "p_value", "n", "band"])
    outlier_lines = []
    for report in reports:
        for row in report.rows:
            writer.writerow(
                [
                    row.engine,
                    row.feature,
                    row.method,
                    f"{row.coefficient:.6g}",
                    "" if row.p_value != row.p_value else f"{row.p_value:.6g}",
                    str(row.n),
                    row.band,
                ]
            )
            if row.outlier_ids:
                outlier_lines.append(
                    f"# outliers: engine={row.engine} feature={row.feature} "
                    + ",".join(row.outlier_ids)
                )
    text = out.getvalue()
    if outlier_lines:
        text += "\n".join(outlier_lines) + "\n"
    return text


def _render_report_table(reports: list[CorrelationReport]) -> str:
    header = f"{'engine':<12} {'feature':<8} {'method':<9} {'coef':>9} {'p_value':>10} {'n':>4}  band"
    lines = [header, "-" * len(header)]
    for report in reports:
        for row in report.rows:
            p_text = "" if row.p_value != row.p_value else f"{row.p_value:.4g}"
            lines.append(
                f"{row.engine:<12} {row.feature:<8} {row.method:<9} "
                f"{row.coefficient:>9.4f} {p_text:>10} {row.n:>4}  {row.band}"
            )
    return "\n".join(lines)


@main.command()
@click.option("--results", "results_path", required=True, type=EXISTING_FILE)
@click.option("--runtimes", "runtimes_path", required=True, type=EXISTING_FILE)
@click.option("--features", default="E_T,E_J,E_P,Q_T,Q_J,Q_P")
@click.option("--method", type=click.Choice(list(CORRELATION_METHODS)), default="spearman")
@click.option("--common-only", is_flag=True, default=False)
@click.option("--out", "out_path", type=FILE, default=None, help="Report CSV path.")
def correlate(results_path, runtimes_path, features, method, common_only, out_path) -> None:
    """Correlate metric columns with supplied per-(query, engine) runtimes."""
    from .results import read_results_csv, read_runtimes_csv
    from .stats import correlate_results

    feature_list = _parse_names(features, METRIC_FEATURES, "feature")
    if out_path:
        _make_dir(Path(out_path).parent)
    try:
        results = read_results_csv(results_path)
    except ValueError as exc:  # includes UnicodeDecodeError
        _fail(f"{results_path}: {exc}", 1)
    try:
        runtimes = read_runtimes_csv(runtimes_path)
    except ValueError as exc:
        _fail(f"{runtimes_path}: {exc}", 1)

    engines_in_results = sorted({r["engine"] for r in results})
    engines_with_runtimes = {engine for (_, engine) in runtimes}
    for engine in engines_in_results:
        if engine not in engines_with_runtimes:
            click.echo(f"warning: no runtimes for engine {engine}; omitted", err=True)

    joined = []
    for record in results:
        key = (record["query_id"], record["engine"])
        if key in runtimes:
            merged = dict(record)
            merged["runtime_ms"] = runtimes[key]
            joined.append(merged)

    reports = []
    any_rows = False
    for feature in feature_list:
        report = correlate_results(
            joined, feature, "runtime_ms", method=method, common_only=common_only
        )
        for warning in report.warnings:
            click.echo(f"warning: {warning}", err=True)
        if any(row.engine != "average" for row in report.rows):
            any_rows = True
        reports.append(report)
    if not any_rows:
        if any(report.rejected for report in reports):
            _fail("no engine could be correlated; see the warnings above", 1)
        _fail("insufficient data: fewer than 3 joined rows for every engine", 1)

    click.echo(_render_report_table(reports))
    if out_path:
        Path(out_path).write_text(_render_report_csv(reports), encoding="utf-8")
        click.echo(f"wrote report to {out_path}")


@main.command()
@click.option("--out", "out_dir", required=True, type=DIR)
def fixtures(out_dir: str) -> None:
    """Emit the bundled corpora (toy stores, worked example, benchmark)."""
    from .fixtures import write_fixture_tree

    _make_dir(Path(out_dir))
    written = write_fixture_tree(out_dir)
    click.echo(f"wrote {len(written)} fixture files under {out_dir}")


if __name__ == "__main__":
    main()
