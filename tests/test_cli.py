import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fedcard
from fedcard.cli import main
from fedcard.results import RESULTS_HEADER
from fedcard.stats import METHODS


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    """Fixture tree plus ingested toy stores."""
    fx = tmp_path / "fx"
    result = runner.invoke(main, ["fixtures", "--out", str(fx)])
    assert result.exit_code == 0, result.output
    stores = tmp_path / "stores"
    for name in ("A", "B"):
        result = runner.invoke(
            main,
            ["ingest", "--source", name, "--file", str(fx / f"toy/sources/{name}.nt"), "--out", str(stores)],
        )
        assert result.exit_code == 0, result.output
    return tmp_path


def test_ingest_reports_triple_count(runner, workspace):
    assert (workspace / "stores" / "A.store").exists()


def test_ingest_missing_file(runner, tmp_path):
    result = runner.invoke(
        main, ["ingest", "--source", "X", "--file", str(tmp_path / "nope.nt"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "no such file" in result.output


def test_ingest_malformed_line_number(runner, tmp_path):
    bad = tmp_path / "bad.nt"
    good_line = "<http://x/s> <http://x/p> <http://x/o> .\n"
    bad.write_text(good_line * 6 + "<http://x/s> <http://x/p> oops .\n")
    result = runner.invoke(
        main, ["ingest", "--source", "X", "--file", str(bad), "--out", str(tmp_path / "st")]
    )
    assert result.exit_code == 1
    assert "line 7" in result.output


def test_ingest_non_utf8_file_is_a_data_error(runner, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(b"\xff<http://x/s> <http://x/p> <http://x/o> .\n")
    result = runner.invoke(
        main, ["ingest", "--source", "X", "--file", str(bad), "--out", str(tmp_path / "st")]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {bad}: ") and "utf-8" in line



GOLDEN = Path(__file__).parent / "golden"
TOY_QUERIES = ["--stores", "{ws}/stores", "--queries", "{ws}/fx/toy/queries"]
CORRELATE = ["correlate", "--runtimes", str(GOLDEN / "bench_runtimes.csv")]


# An output path that runs through a file expects (exit code, the start of its one error line).
NO_DIR = (2, "error: cannot create directory {ws}/file")
TOY_A = "{ws}/fx/toy/sources/A.nt"


@pytest.mark.parametrize(
    "args, exit_code",
    [
        pytest.param(
            ["ingest", "--source", "A", "--file", "{ws}/fx", "--out", "{ws}/st"], 2,
            id="ingest-file-is-a-dir",
        ),
        pytest.param(
            ["ingest", "--source", "A", "--file", "{ws}/fx/toy/sources/A.nt", "--out", "{ws}/file"], 2,
            id="ingest-out-is-a-file",
        ),
        pytest.param(
            ["summarize", "--stores", "{ws}/stores", "--out", "{ws}/file"], 2,
            id="summarize-out-is-a-file",
        ),
        pytest.param(
            ["summarize", "--stores", "{ws}/file", "--out", "{ws}/summaries"], 2,
            id="summarize-stores-is-a-file",
        ),
        pytest.param(["fixtures", "--out", "{ws}/file"], 2, id="fixtures-out-is-a-file"),
        pytest.param(["evaluate", *TOY_QUERIES, "--out", "{ws}/fx"], 2, id="evaluate-out-is-a-dir"),
        pytest.param(
            ["evaluate", "--stores", "{ws}/stores", "--queries", "{ws}/file", "--out", "{ws}/r.csv"], 2,
            id="evaluate-queries-is-a-file",
        ),
        pytest.param(
            ["evaluate", *TOY_QUERIES, "--out", "{ws}/new/dir/results.csv"], 0,
            id="evaluate-out-in-a-new-dir",
        ),
        pytest.param([*CORRELATE, "--results", "{ws}/fx"], 2, id="correlate-results-is-a-dir"),
        pytest.param(
            [*CORRELATE, "--results", str(GOLDEN / "bench_results.csv"), "--out", "{ws}/new/dir/r.csv"], 0,
            id="correlate-out-in-a-new-dir",
        ),
        pytest.param(
            ["ingest", "--source", "A", "--file", TOY_A, "--out", "{ws}/file/sub"], NO_DIR,
            id="ingest-out-through-a-file",
        ),
        pytest.param(
            ["summarize", "--stores", "{ws}/stores", "--out", "{ws}/file/sub"], NO_DIR,
            id="summarize-out-through-a-file",
        ),
        pytest.param(["fixtures", "--out", "{ws}/file/sub"], NO_DIR, id="fixtures-out-through-a-file"),
        pytest.param(
            ["evaluate", *TOY_QUERIES, "--out", "{ws}/file/r.csv"], NO_DIR,
            id="evaluate-out-through-a-file",
        ),
        pytest.param(
            [*CORRELATE, "--results", str(GOLDEN / "bench_results.csv"), "--out", "{ws}/file/r.csv"],
            NO_DIR,
            id="correlate-out-through-a-file",
        ),
        pytest.param(
            ["ingest", "--source", "dir", "--file", TOY_A, "--out", "{ws}"],
            (2, "error: cannot write store file {ws}/dir.store: it is a directory"),
            id="ingest-store-is-a-directory",
        ),
    ],
)
def test_path_mistakes_end_without_a_traceback(runner, workspace, args, exit_code):
    """A file where a directory belongs, or the reverse, exits 2 before any work,
    and so does an output path that runs through a file; a file output in a
    directory that does not exist yet gets its directory."""
    exit_code, error_line = exit_code if isinstance(exit_code, tuple) else (exit_code, None)
    (workspace / "file").write_text("")
    (workspace / "dir.store").mkdir()
    args = [arg.format(ws=workspace) for arg in args]
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if error_line:
        (line,) = result.output.splitlines()
        assert line.startswith(error_line.format(ws=workspace))
        assert (workspace / "file").read_text() == ""
    elif exit_code:
        assert "Usage:" in result.output
    else:
        assert Path(args[-1]).is_file()


def test_summarize_writes_all_kinds(runner, workspace):
    out = workspace / "summ"
    result = runner.invoke(
        main, ["summarize", "--stores", str(workspace / "stores"), "--out", str(out), "--kind", "all"]
    )
    assert result.exit_code == 0, result.output
    for kind in ("void", "costfed", "charsets"):
        assert (out / f"A.{kind}.json").exists()
        assert (out / f"B.{kind}.json").exists()


def test_evaluate_header_and_sorting(runner, workspace):
    out = workspace / "results.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--engines", "all",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    keys = [(r["query_id"], r["engine"]) for r in csv.DictReader(out.open())]
    assert keys == sorted(keys)
    assert len(keys) == 20  # 4 queries x 5 engines


def test_evaluate_empty_query_dir(runner, workspace, tmp_path):
    empty = tmp_path / "noqueries"
    empty.mkdir()
    out = tmp_path / "empty.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--stores", str(workspace / "stores"), "--queries", str(empty), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == RESULTS_HEADER + "\n"


def test_evaluate_unparseable_query_yields_failed_rows(runner, workspace, tmp_path):
    queries = tmp_path / "queries"
    queries.mkdir()
    (queries / "bad.rq").write_text("SELECT * WHERE { ?s <http://x/p> ?o OPTIONAL { ?s ?p ?o } }")
    out = tmp_path / "bad.csv"
    result = runner.invoke(
        main,
        ["evaluate", "--stores", str(workspace / "stores"), "--queries", str(queries), "--out", str(out)],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 5
    assert all(r["status"] == "failed" and r["plan_class"] == "Failed" for r in rows)
    assert all(r["E_P"] == "" for r in rows)


def test_evaluate_non_utf8_query_is_a_data_error(runner, workspace, tmp_path):
    queries = tmp_path / "queries"
    queries.mkdir()
    bad = queries / "bad.rq"
    bad.write_bytes(b"\xffSELECT * WHERE { ?s <http://x/p> ?o }")
    result = runner.invoke(
        main,
        ["evaluate", "--stores", str(workspace / "stores"), "--queries", str(queries),
         "--out", str(tmp_path / "bad.csv")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {bad}: ") and "utf-8" in line


def test_evaluate_query_directory_is_a_data_error(runner, workspace, tmp_path):
    bad = tmp_path / "queries" / "bad.rq"
    bad.mkdir(parents=True)
    result = runner.invoke(
        main,
        ["evaluate", "--stores", str(workspace / "stores"), "--queries", str(bad.parent),
         "--out", str(tmp_path / "bad.csv")],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {bad}: ")


def test_evaluate_unknown_engine(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--engines", "costfed,warpdrive",
            "--out", str(tmp_path / "x.csv"),
        ],
    )
    assert result.exit_code == 2
    for name in ("costfed", "splendid", "lhd", "semagrow", "odyssey"):
        assert name in result.output


def test_evaluate_oracle_cap_produces_blowup_rows(runner, workspace, tmp_path):
    out = tmp_path / "capped.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(out),
            "--oracle-cap", "1",
        ],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    blown = [r for r in rows if r["status"] == "oracle_blowup"]
    assert blown
    for row in blown:
        assert row["E_P"] == "" and row["Q_P"] == ""
        assert row["plan_class"] == "Failed"


def test_oracle_cap_env_override(runner, workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("FEDCARD_ORACLE_CAP", "1")
    out = tmp_path / "env.csv"
    result = runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert any(r["status"] == "oracle_blowup" for r in rows)


def _evaluate_toy(runner, workspace, tmp_path, *extra):
    return runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(tmp_path / "out.csv"),
            *extra,
        ],
    )


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_evaluate_rejects_non_positive_oracle_cap(runner, workspace, tmp_path, cap):
    result = _evaluate_toy(runner, workspace, tmp_path, "--oracle-cap", cap)
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"error: --oracle-cap must be a positive integer, got {cap}"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1e6"])
def test_evaluate_rejects_bad_oracle_cap_env(runner, workspace, tmp_path, monkeypatch, value):
    monkeypatch.setenv("FEDCARD_ORACLE_CAP", value)
    result = _evaluate_toy(runner, workspace, tmp_path)
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        f"error: FEDCARD_ORACLE_CAP must be a positive integer, got {value!r}"
    ]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "cap_args, env, message",
    [
        (["--oracle-cap", "0"], None, "error: --oracle-cap must be a positive integer, got 0"),
        ([], "x", "error: FEDCARD_ORACLE_CAP must be a positive integer, got 'x'"),
    ],
    ids=["option", "env"],
)
def test_bad_oracle_cap_exits_2_before_loading_stores(
    runner, workspace, tmp_path, monkeypatch, cap_args, env, message
):
    """A bad cap is a usage error even when a store file is damaged (which
    alone would exit 1): the cap is checked before any store is read."""
    (workspace / "stores" / "A.store").write_text("{not json", encoding="utf-8")
    if env is not None:
        monkeypatch.setenv("FEDCARD_ORACLE_CAP", env)
    result = _evaluate_toy(runner, workspace, tmp_path, *cap_args)
    assert result.exit_code == 2
    assert result.output.splitlines() == [message]


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, fedcard.cli; print('scipy' in sys.modules or 'numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fedcard.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_store_and_evaluation_imports_leave_numpy_unloaded():
    modules = ", ".join(
        f"fedcard.{m}" for m in ("store", "ntriples", "summaries", "oracle", "evaluation")
    )
    code = f"import sys, {modules}; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fedcard.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _modules_loaded_after(code, tmp_path):
    """The ``fedcard`` modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('fedcard'))))"
    env = {**os.environ, "PYTHONPATH": str(Path(fedcard.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
        check=True,
    )
    return set(out.stdout.split())


def _run_in_process(*args):
    return f"from fedcard.cli import main; main.main({list(args)!r}, standalone_mode=False)"


def test_each_command_loads_only_the_modules_it_runs(workspace, tmp_path):
    """``import fedcard.cli`` loads no fedcard module of its own; a command
    loads only what it runs (ingest no query, statistics or estimators,
    correlate no store, estimators or oracle)."""
    assert _modules_loaded_after("import fedcard.cli", tmp_path) == {"fedcard", "fedcard.cli"}

    nt = workspace / "fx/toy/sources/A.nt"
    loaded = _modules_loaded_after(
        _run_in_process("ingest", "--source", "A", "--file", str(nt), "--out", "st"), tmp_path
    )
    assert "fedcard.store" in loaded
    for module in ("estimators", "evaluation", "oracle", "query", "stats", "summaries", "fixtures"):
        assert f"fedcard.{module}" not in loaded

    golden = Path(__file__).parent / "golden"
    loaded = _modules_loaded_after(
        _run_in_process(
            "correlate", "--results", str(golden / "bench_results.csv"),
            "--runtimes", str(golden / "bench_runtimes.csv"), "--out", "report.csv",
        ),
        tmp_path,
    )
    assert {"fedcard.results", "fedcard.stats"} <= loaded
    for module in ("store", "estimators", "oracle"):
        assert f"fedcard.{module}" not in loaded


def test_correlate_help_lists_every_stats_method(runner):
    result = runner.invoke(main, ["correlate", "--help"])
    assert result.exit_code == 0
    assert f"[{'|'.join(METHODS)}]" in result.output


def test_correlate_unknown_method_is_a_usage_error(runner, tmp_path):
    results, runtimes = tmp_path / "r.csv", tmp_path / "t.csv"
    results.write_text(RESULTS_HEADER + "\n")
    runtimes.write_text("query_id,engine,runtime_ms\n")
    result = runner.invoke(
        main,
        ["correlate", "--results", str(results), "--runtimes", str(runtimes), "--method", "x"],
    )
    assert result.exit_code == 2
    assert "'x' is not one of 'spearman', 'ols', 'irls'" in result.output


def test_evaluate_deterministic(runner, workspace, tmp_path):
    args = [
        "evaluate",
        "--stores", str(workspace / "stores"),
        "--queries", str(workspace / "fx/toy/queries"),
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def _write_runtimes(path, rows, feature="E_P", slope=100.0):
    with path.open("w") as fh:
        fh.write("query_id,engine,runtime_ms\n")
        for row in rows:
            if row["status"] != "ok":
                continue
            runtime = slope * float(row[feature]) + 1.0
            fh.write(f"{row['query_id']},{row['engine']},{runtime}\n")


def test_correlate_round_trip(runner, workspace, tmp_path):
    results = tmp_path / "results.csv"
    invoke = runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(results),
        ],
    )
    assert invoke.exit_code == 0
    rows = list(csv.DictReader(results.open()))
    runtimes = tmp_path / "runtimes.csv"
    _write_runtimes(runtimes, rows)
    report_csv = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "correlate",
            "--results", str(results),
            "--runtimes", str(runtimes),
            "--features", "E_P",
            "--method", "spearman",
            "--out", str(report_csv),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "engine" in result.output and "band" in result.output
    text = report_csv.read_text()
    assert text.startswith("engine,feature,method,coefficient,p_value,n,band")


def test_correlate_missing_engine_warns(runner, workspace, tmp_path):
    results = tmp_path / "results.csv"
    runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(results),
        ],
    )
    rows = [r for r in csv.DictReader(results.open()) if r["engine"] != "lhd"]
    runtimes = tmp_path / "runtimes.csv"
    _write_runtimes(runtimes, rows)
    result = runner.invoke(
        main,
        ["correlate", "--results", str(results), "--runtimes", str(runtimes), "--features", "E_P"],
    )
    assert "no runtimes for engine lhd" in result.output


def test_correlate_insufficient_data(runner, workspace, tmp_path):
    results = tmp_path / "results.csv"
    runner.invoke(
        main,
        [
            "evaluate",
            "--stores", str(workspace / "stores"),
            "--queries", str(workspace / "fx/toy/queries"),
            "--out", str(results),
        ],
    )
    runtimes = tmp_path / "runtimes.csv"
    rows = list(csv.DictReader(results.open()))[:2]
    _write_runtimes(runtimes, rows)
    result = runner.invoke(
        main,
        ["correlate", "--results", str(results), "--runtimes", str(runtimes), "--features", "E_P"],
    )
    assert result.exit_code == 1
    assert "insufficient data" in result.output


@pytest.mark.parametrize("method", ["spearman", "ols", "irls"])
def test_correlate_constant_runtimes_names_the_skipped_engines(runner, tmp_path, method):
    golden = Path(__file__).parent / "golden"
    lines = (golden / "bench_runtimes.csv").read_text(encoding="utf-8").splitlines()
    runtimes = tmp_path / "runtimes.csv"
    runtimes.write_text(
        "\n".join([lines[0], *(line.rsplit(",", 1)[0] + ",100.000" for line in lines[1:])]) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(
        main,
        [
            "correlate",
            "--results", str(golden / "bench_results.csv"),
            "--runtimes", str(runtimes),
            "--method", method,
        ],
    )
    assert result.exit_code == 1
    assert "constant" in result.output
    assert "error: no engine could be correlated; see the warnings above" in result.output
    assert "insufficient data" not in result.output


def test_correlate_unknown_feature(runner, workspace, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "\n")
    runtimes = tmp_path / "runtimes.csv"
    runtimes.write_text("query_id,engine,runtime_ms\n")
    result = runner.invoke(
        main,
        ["correlate", "--results", str(results), "--runtimes", str(runtimes), "--features", "XX"],
    )
    assert result.exit_code == 2
    assert "unknown feature" in result.output


def test_correlate_irls_outlier_footer(runner, tmp_path):
    results = tmp_path / "results.csv"
    with results.open("w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for i in range(10):
            e_p = 0.05 * i
            fh.write(f"q{i},costfed,0,0,{e_p},1,1,1,OptP,2,1,2,false,ok\n")
    runtimes = tmp_path / "runtimes.csv"
    with runtimes.open("w") as fh:
        fh.write("query_id,engine,runtime_ms\n")
        for i in range(10):
            runtime = 1e4 if i == 5 else 100.0 * (0.05 * i)
            fh.write(f"q{i},costfed,{runtime}\n")
    report_csv = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        [
            "correlate",
            "--results", str(results),
            "--runtimes", str(runtimes),
            "--features", "E_P",
            "--method", "irls",
            "--out", str(report_csv),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "# outliers:" in report_csv.read_text()
    assert "q5" in report_csv.read_text()


def _write_store(stores, terms, triples):
    doc = {"format_version": 2, "source": "A", "terms": terms, "triples": triples}
    (stores / "A.store").write_text(json.dumps(doc))


SPO = ["<http://x/a>", "<http://x/p>", "<http://x/o>"]


def _break_format_version(stores):
    path = stores / "A.store"
    path.write_text(path.read_text().replace('"format_version": 2', '"format_version": 99'))


def _version_1_store(stores):
    doc = {"format_version": 1, "source": "A", "triples": [SPO]}
    (stores / "A.store").write_text(json.dumps(doc))


def _break_json(stores):
    (stores / "A.store").write_text('{"format_version": 2, "source": "A", "ter')


def _duplicate_source(stores):
    (stores / "A2.store").write_bytes((stores / "A.store").read_bytes())


def _drop_triples(stores):
    (stores / "A.store").write_text('{"format_version": 2, "source": "A", "terms": []}')


def _non_string_term(stores):
    _write_store(stores, [1, 2, 3], [0, 1, 2])


def _short_triple(stores):
    _write_store(stores, SPO, [0, 1])


def _trailing_term_content(stores):
    _write_store(stores, ["<http://x/a> junk", *SPO[1:]], [0, 1, 2])


def _bool_index(stores):
    _write_store(stores, SPO, [0, True, 2])


def _float_index(stores):
    _write_store(stores, SPO, [0, 1, 2.0])


def _string_index(stores):
    _write_store(stores, SPO, [0, "1", 2])


def _null_index(stores):
    _write_store(stores, SPO, [0, None, 2])


def _nested_triples(stores):
    _write_store(stores, SPO, [SPO, SPO, SPO])


def _index_out_of_range(stores):
    _write_store(stores, SPO, [0, 1, 3])


def _negative_index(stores):
    _write_store(stores, SPO, [0, 1, -1])


def _literal_subject(stores):
    _write_store(stores, ['"a"', *SPO[1:]], [0, 1, 2])


def _blank_predicate(stores):
    _write_store(stores, [SPO[0], "_:p", SPO[2]], [0, 1, 2])


def _directory_named_like_a_store(stores):
    (stores / "X.store").mkdir()


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize(
    "damage",
    [
        _break_format_version,
        _break_json,
        _duplicate_source,
        _drop_triples,
        _non_string_term,
        _short_triple,
        _trailing_term_content,
        _version_1_store,
        _bool_index,
        _float_index,
        _string_index,
        _null_index,
        _nested_triples,
        _index_out_of_range,
        _negative_index,
        _literal_subject,
        _blank_predicate,
        _directory_named_like_a_store,
    ],
)
def test_unreadable_store_dir_is_a_data_error(runner, workspace, tmp_path, command, damage):
    stores = workspace / "stores"
    damage(stores)
    args = [command, "--stores", str(stores), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        args += ["--queries", str(workspace / "fx/toy/queries")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: cannot load stores from {stores}: ")


def test_evaluate_out_through_a_file_exits_2_before_loading_stores(runner, workspace):
    """An output path through a file is a usage error even when a store file is
    damaged (which alone would exit 1): the output directory is made first."""
    _break_json(workspace / "stores")
    (workspace / "file").write_text("")
    args = [arg.format(ws=workspace) for arg in TOY_QUERIES]
    result = runner.invoke(main, ["evaluate", *args, "--out", str(workspace / "file" / "out.csv")])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: cannot create directory {workspace / 'file'}")


@pytest.mark.parametrize(
    "runtimes_text, message",
    [
        ("query_id,engine\nq1,lhd\n", "runtimes file needs columns"),
        ("query_id,engine,runtime_ms\nq1,lhd,1.5\nq2,lhd,fast\n", "line 3: runtime_ms 'fast' is not a number"),
        ("query_id,engine,runtime_ms\nq1,lhd\n", "line 2: runtime_ms None is not a number"),
    ],
)
def test_correlate_bad_runtimes_is_a_data_error(runner, tmp_path, runtimes_text, message):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "\n")
    runtimes = tmp_path / "runtimes.csv"
    runtimes.write_text(runtimes_text)
    result = runner.invoke(
        main, ["correlate", "--results", str(results), "--runtimes", str(runtimes)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {runtimes}: ") and message in line


def test_correlate_results_without_columns_is_a_data_error(runner, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("query_id,E_P\nq1,0.5\n")
    runtimes = tmp_path / "runtimes.csv"
    runtimes.write_text("query_id,engine,runtime_ms\nq1,lhd,1.5\n")
    result = runner.invoke(
        main, ["correlate", "--results", str(results), "--runtimes", str(runtimes)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith(f"error: {results}: results file needs columns")
