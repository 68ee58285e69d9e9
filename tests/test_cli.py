import json

import pytest
from click.testing import CliRunner

from rosie.cli import main

from conftest import D_TOY_NT
from test_store import BAD_SNAPSHOTS

QUERY_2ROWS = "SELECT ?x ?c WHERE { ?x <type> <Post> . ?x <content> ?c . }\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def toy_db(tmp_path, runner):
    nt = tmp_path / "toy.nt"
    nt.write_text(D_TOY_NT)
    db = tmp_path / "db"
    result = runner.invoke(main, ["load", str(nt), "--db", str(db)])
    assert result.exit_code == 0, result.output
    return db


def write_query(tmp_path, text, name="q.rq"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_toy_counts(self, tmp_path, runner):
        nt = tmp_path / "toy.nt"
        nt.write_text(D_TOY_NT)
        result = runner.invoke(main, ["load", str(nt), "--db", str(tmp_path / "db")])
        assert result.exit_code == 0
        assert result.stdout.strip() == "triples=8 terms=12"

    def test_empty_file(self, tmp_path, runner):
        nt = tmp_path / "empty.nt"
        nt.write_text("")
        result = runner.invoke(main, ["load", str(nt), "--db", str(tmp_path / "db")])
        assert result.exit_code == 0
        assert result.stdout.strip() == "triples=0 terms=0"

    def test_malformed_line_number_on_stderr(self, tmp_path, runner):
        nt = tmp_path / "bad.nt"
        nt.write_text("<a> <b> <c> .\n<d> <e> <f> .\n<broken line\n")
        result = runner.invoke(main, ["load", str(nt), "--db", str(tmp_path / "db")])
        assert result.exit_code == 1
        assert "line 3" in result.stderr

    def test_surrogate_escape_keeps_old_snapshot(self, toy_db, tmp_path, runner):
        snapshot = toy_db / "data.rosiedb"
        before = snapshot.read_bytes()
        nt = tmp_path / "surrogate.nt"
        nt.write_text('<s> <p> "\\ud800" .\n')
        result = runner.invoke(main, ["load", str(nt), "--db", str(toy_db)])
        assert result.exit_code == 1
        assert "line 1" in result.stderr and "surrogate" in result.stderr
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert snapshot.read_bytes() == before
        assert sorted(p.name for p in toy_db.iterdir()) == ["data.rosiedb"]

    def test_failed_save_keeps_old_snapshot(self, toy_db, tmp_path, runner, monkeypatch):
        snapshot = toy_db / "data.rosiedb"
        before = snapshot.read_bytes()

        def broken_save(dataset, fh):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr("rosie.cli.snapshot_save", broken_save)
        nt = tmp_path / "other.nt"
        nt.write_text("<a> <b> <c> .\n")
        result = runner.invoke(main, ["load", str(nt), "--db", str(toy_db)])
        assert result.exit_code == 2
        assert "disk full" in result.stderr
        assert snapshot.read_bytes() == before
        assert sorted(p.name for p in toy_db.iterdir()) == ["data.rosiedb"]

    def test_missing_file_is_io_error(self, tmp_path, runner):
        result = runner.invoke(
            main, ["load", str(tmp_path / "nope.nt"), "--db", str(tmp_path / "db")]
        )
        assert result.exit_code == 2


class TestQuery:
    def test_tsv_output(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, QUERY_2ROWS)
        result = runner.invoke(
            main, ["query", "--db", str(toy_db), "--file", str(qf)]
        )
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "?x\t?c"
        assert sorted(lines[1:]) == ['p1\t"a"', 'p2\t"b"']

    def test_policies_agree_modulo_row_order(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, QUERY_2ROWS)
        outputs = []
        for policy in ("static", "eager", "rosie"):
            result = runner.invoke(
                main,
                ["query", "--db", str(toy_db), "--file", str(qf), "--policy", policy],
            )
            assert result.exit_code == 0
            lines = result.stdout.splitlines()
            outputs.append((lines[0], sorted(lines[1:])))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_explain_goes_to_stderr(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, QUERY_2ROWS)
        result = runner.invoke(
            main, ["query", "--db", str(toy_db), "--file", str(qf), "--explain"]
        )
        assert result.exit_code == 0
        assert "digraph qrg {" in result.stderr
        assert "CS: " in result.stderr
        assert "digraph" not in result.stdout

    def test_explain_emits_expected_plan_string(self, tmp_path, runner):
        from conftest import QE_EXPECTED_CS, QE_TEXT, qe_weights_dataset
        from test_acceptance import _nt_of

        nt = tmp_path / "social.nt"
        nt.write_text(_nt_of(qe_weights_dataset()))
        db = tmp_path / "db"
        assert runner.invoke(main, ["load", str(nt), "--db", str(db)]).exit_code == 0
        qf = write_query(tmp_path, QE_TEXT, "example.rq")
        result = runner.invoke(
            main, ["query", "--db", str(db), "--file", str(qf), "--explain"]
        )
        assert result.exit_code == 0, result.stderr
        assert f"CS: {QE_EXPECTED_CS}" in result.stderr

    def test_explain_deterministic(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, QUERY_2ROWS)
        captures = set()
        for _ in range(3):
            result = runner.invoke(
                main, ["query", "--db", str(toy_db), "--file", str(qf), "--explain"]
            )
            captures.add(result.stderr)
        assert len(captures) == 1

    def test_unsupported_feature_exit_code(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, "ASK WHERE { ?x <type> <Post> . }\n")
        result = runner.invoke(main, ["query", "--db", str(toy_db), "--file", str(qf)])
        assert result.exit_code == 4

    def test_syntax_error_exit_code(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, "SELECT ?x WHERE { ?x <type> }\n")
        result = runner.invoke(main, ["query", "--db", str(toy_db), "--file", str(qf)])
        assert result.exit_code == 1
        assert "expected" in result.stderr

    @pytest.mark.parametrize("literal", ['"\\uZZZZ"', '"\\uD800"', '"a\\qb"'])
    def test_bad_escape_is_a_syntax_error(self, tmp_path, runner, toy_db, literal):
        qf = write_query(tmp_path, f"SELECT ?x WHERE {{ ?x <content> {literal} . }}\n")
        result = runner.invoke(main, ["query", "--db", str(toy_db), "--file", str(qf)])
        assert result.exit_code == 1
        assert result.stderr.startswith("syntax error:")
        assert "Traceback" not in result.output + result.stderr
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("suffix", ['^^"b"', "@42", "^^?s"])
    def test_filter_literal_suffix_is_a_syntax_error(
        self, tmp_path, runner, toy_db, suffix
    ):
        text = f'SELECT ?x WHERE {{ ?x <content> ?c . FILTER(?c = "a"{suffix}) }}\n'
        qf = write_query(tmp_path, text)
        result = runner.invoke(main, ["query", "--db", str(toy_db), "--file", str(qf)])
        assert result.exit_code == 1
        assert result.stderr.startswith("syntax error:")

    def test_timeout_exit_code(self, tmp_path, runner):
        triples = "\n".join(f"<s{i}> <p> <o{i}> ." for i in range(300))
        nt = tmp_path / "big.nt"
        nt.write_text(triples + "\n")
        db = tmp_path / "bigdb"
        assert runner.invoke(main, ["load", str(nt), "--db", str(db)]).exit_code == 0
        qf = write_query(
            tmp_path, "SELECT * WHERE { ?a <p> ?x . ?b <p> ?y . ?c <p> ?z . }\n"
        )
        result = runner.invoke(
            main,
            ["query", "--db", str(db), "--file", str(qf), "--timeout-ms", "5",
             "--policy", "static"],
        )
        assert result.exit_code == 3
        assert result.stderr == "query exceeded 5 ms budget\n"

    def test_non_utf8_query_file_exit_code(self, tmp_path, runner, toy_db):
        qf = tmp_path / "latin1.rq"
        qf.write_bytes('SELECT ?x WHERE { ?x <content> "caf\xe9" . }\n'.encode("latin-1"))
        result = runner.invoke(main, ["query", "--db", str(toy_db), "--file", str(qf)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("syntax error:") and "UTF-8" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "option",
        [
            ["--tau", "nan"], ["--tau", "0.5"], ["--sigma", "nan"], ["--sigma", "0"],
            ["--sigma", "1.5"], ["--timeout-ms", "0"], ["--timeout-ms", "-5"],
            ["--timeout-ms", "nan"],
        ],
    )
    def test_bad_run_parameter_is_a_usage_error(self, tmp_path, runner, toy_db, option):
        qf = write_query(tmp_path, QUERY_2ROWS)
        result = runner.invoke(
            main, ["query", "--db", str(toy_db), "--file", str(qf), *option]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.stderr and result.stdout == ""

    def test_trace_json_written(self, tmp_path, runner, toy_db):
        qf = write_query(tmp_path, QUERY_2ROWS)
        trace_path = tmp_path / "trace.json"
        result = runner.invoke(
            main,
            [
                "query", "--db", str(toy_db), "--file", str(qf),
                "--policy", "eager", "--trace-json", str(trace_path),
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(trace_path.read_text())
        assert doc["policy"] == "eager"
        assert doc["result_cardinality"] == 2
        assert any(s["decision"] == "materialize" for s in doc["steps"])

    def test_bad_snapshot_exit_code(self, tmp_path, runner):
        db = tmp_path / "db"
        db.mkdir()
        (db / "data.rosiedb").write_bytes(b"WRONGMAGIC")
        qf = write_query(tmp_path, QUERY_2ROWS)
        result = runner.invoke(main, ["query", "--db", str(db), "--file", str(qf)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
    def test_malformed_snapshot_exit_code(self, tmp_path, runner, case):
        db = tmp_path / "db"
        db.mkdir()
        (db / "data.rosiedb").write_bytes(BAD_SNAPSHOTS[case])
        qf = write_query(tmp_path, QUERY_2ROWS)
        result = runner.invoke(main, ["query", "--db", str(db), "--file", str(qf)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("io error: ")


class TestBench:
    def test_csv_shape(self, tmp_path, runner, toy_db):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "a.rq").write_text(QUERY_2ROWS)
        (qdir / "b.rq").write_text("SELECT ?s WHERE { ?s <type> ?t . }\n")
        result = runner.invoke(
            main,
            ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "3"],
        )
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "query,policy,mean_ms,gmean_group,result_count"
        assert len(lines) == 1 + 2 * 3
        counts = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:3]}
        assert counts["a.rq"] == "2"

    def test_single_run_warns(self, tmp_path, runner, toy_db):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "a.rq").write_text(QUERY_2ROWS)
        result = runner.invoke(
            main,
            ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "1"],
        )
        assert result.exit_code == 0
        assert "warm-up" in result.stderr

    def test_all_failures_exit_5(self, tmp_path, runner, toy_db):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "bad.rq").write_text("SELECT nonsense\n")
        result = runner.invoke(
            main,
            ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "2"],
        )
        assert result.exit_code == 5
        lines = result.stdout.splitlines()
        assert any("ERROR" in line for line in lines[1:])

    def test_unreadable_query_files_are_error_cells(self, tmp_path, runner, toy_db):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "good.rq").write_text(QUERY_2ROWS)
        (qdir / "latin1.rq").write_bytes(b"SELECT ?x WHERE { ?x <content> \"caf\xe9\" . }\n")
        (qdir / "folder.rq").mkdir()
        result = runner.invoke(
            main, ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "2",
                   "--policies", "static,rosie"],
        )
        assert result.exit_code == 0, result.stderr
        assert isinstance(result.exception, SystemExit) or result.exception is None
        cells = {tuple(line.split(",")[:2]): line for line in result.stdout.splitlines()[1:]}
        for name in ("latin1.rq", "folder.rq"):
            for kind in ("static", "rosie"):
                assert cells[(name, kind)] == f"{name},{kind},ERROR,ERROR,ERROR"
        assert cells[("good.rq", "rosie")].endswith(",2")

    @pytest.mark.parametrize(
        "option",
        [["--tau", "nan"], ["--sigma", "2"], ["--policies", "static,nonsense"]],
    )
    def test_bad_run_parameter_is_a_usage_error(self, tmp_path, runner, toy_db, option):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "a.rq").write_text(QUERY_2ROWS)
        result = runner.invoke(
            main, ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "2", *option]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.stderr and result.stdout == ""

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_unlistable_queries_path_is_io_error(self, tmp_path, runner, toy_db, kind):
        queries = tmp_path / "queries"
        if kind == "file":
            queries.write_text(QUERY_2ROWS)
        result = runner.invoke(
            main, ["bench", "--db", str(toy_db), "--queries", str(queries), "--runs", "2"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "io error:" in result.stderr and result.stdout == ""

    def test_partial_failure_exit_0(self, tmp_path, runner, toy_db):
        qdir = tmp_path / "queries"
        qdir.mkdir()
        (qdir / "good.rq").write_text(QUERY_2ROWS)
        (qdir / "bad.rq").write_text("SELECT nonsense\n")
        result = runner.invoke(
            main,
            ["bench", "--db", str(toy_db), "--queries", str(qdir), "--runs", "2"],
        )
        assert result.exit_code == 0
