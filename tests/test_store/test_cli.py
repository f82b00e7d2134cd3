"""The store-facing CLI: store ingest/info, query, obs summary on a db."""

import json

import pytest

from repro.cli import main

from tests.test_store.conftest import synthetic_records, write_trace


@pytest.fixture
def fault_db(tmp_path, fault_export):
    """A store holding the golden fault-study export."""
    db = tmp_path / "s.sqlite"
    assert main(["store", "ingest", "--db", str(db), "--label", "golden",
                 str(fault_export)]) == 0
    return db


class TestStoreIngest:
    def test_ingests_and_reports(self, tmp_path, fault_export, capsys):
        db = tmp_path / "s.sqlite"
        assert main(["store", "ingest", "--db", str(db),
                     str(fault_export)]) == 0
        out = capsys.readouterr().out
        assert "-> sweep 1" in out

    def test_duplicate_label_is_exit_2(self, fault_db, fault_export,
                                       capsys):
        assert main(["store", "ingest", "--db", str(fault_db),
                     "--label", "golden", str(fault_export)]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_label_with_many_paths_rejected(self, tmp_path, capsys):
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            write_trace(path, synthetic_records())
            traces.append(str(path))
        assert main(["store", "ingest", "--db",
                     str(tmp_path / "s.sqlite"), "--label", "x",
                     *traces]) == 2
        assert "--label" in capsys.readouterr().err

    def test_info_prints_versions_and_counts(self, fault_db, capsys):
        assert main(["store", "info", "--db", str(fault_db)]) == 0
        out = capsys.readouterr().out
        assert "obs_schema     1" in out
        assert "store_schema   1" in out
        assert "run_rows" in out


class TestQueryCli:
    def test_table_json_matches_export_byte_for_value(
            self, fault_db, fault_export, capsys):
        assert main(["query", "--db", str(fault_db), "--format", "json",
                     "table", "fault-study"]) == 0
        answered = json.loads(capsys.readouterr().out)
        exported = json.loads(
            (fault_export / "fault-study.json").read_text())
        assert answered == exported

    def test_curve_renders_table(self, fault_db, capsys):
        assert main(["query", "--db", str(fault_db), "curve",
                     "--workload", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "speedup_over_baseline" in out
        assert "bfs" in out

    def test_sweeps_listing(self, fault_db, capsys):
        assert main(["query", "--db", str(fault_db), "sweeps"]) == 0
        assert "golden" in capsys.readouterr().out

    def test_unknown_sweep_is_exit_2(self, fault_db, capsys):
        assert main(["query", "--db", str(fault_db), "table",
                     "fault-study", "--sweep", "nope"]) == 2
        assert "no such sweep" in capsys.readouterr().err

    def test_missing_db_is_exit_2(self, tmp_path, capsys):
        assert main(["query", "--db", str(tmp_path / "nope.sqlite"),
                     "sweeps"]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_migrations_from_ingested_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        write_trace(trace, synthetic_records())
        db = tmp_path / "s.sqlite"
        assert main(["store", "ingest", "--db", str(db), str(trace)]) == 0
        capsys.readouterr()
        assert main(["query", "--db", str(db), "migrations",
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "migration.decision" in out
        assert out.count("\n") <= 6  # header + rule + 3 rows + newline


class TestObsSummaryOnStore:
    def test_summary_matches_jsonl_rendering(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        write_trace(trace, synthetic_records())
        assert main(["obs", "summary", str(trace)]) == 0
        jsonl_rendering = capsys.readouterr().out
        db = tmp_path / "s.sqlite"
        assert main(["store", "ingest", "--db", str(db), str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(db)]) == 0
        assert capsys.readouterr().out == jsonl_rendering

    def test_validate_refuses_store(self, tmp_path, capsys):
        db = tmp_path / "s.sqlite"
        write_trace(tmp_path / "t.jsonl", synthetic_records())
        assert main(["store", "ingest", "--db", str(db),
                     str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(db)]) == 2
        assert "sqlite store" in capsys.readouterr().err

    def test_live_sink_store_summarizes(self, tmp_path, capsys):
        """run --obs-trace t.jsonl -> store ingest -> obs summary DB."""
        trace = tmp_path / "t.jsonl"
        assert main(["run", "fig8", "--phases", "3", "--warmup", "1",
                     "--workloads", "bfs", "--obs-trace", str(trace)]) == 0
        db = tmp_path / "s.sqlite"
        assert main(["store", "ingest", "--db", str(db), str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(db)]) == 0
        out = capsys.readouterr().out
        assert "phase timeline (eval ms):" in out
        assert "sim.phase" in out
        assert main(["obs", "summary", str(trace)]) == 0
        assert capsys.readouterr().out == out


class TestObsTraceRefusesStore:
    @pytest.mark.parametrize("command", [
        ["run", "fig2"],
        ["export", "--experiments", "fig2"],
    ])
    def test_sqlite_path_is_exit_2_and_writes_nothing(
            self, tmp_path, capsys, command):
        db = tmp_path / "t.sqlite"
        argv = list(command)
        if argv[0] == "export":
            argv += ["--out", str(tmp_path / "out")]
        argv += ["--phases", "3", "--warmup", "1", "--workloads", "bfs",
                 "--obs-trace", str(db)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "starnuma store ingest" in err
        assert list(tmp_path.iterdir()) == []
