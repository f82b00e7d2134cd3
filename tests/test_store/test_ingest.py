"""Ingestion: JSONL traces and export directories."""

import json

import pytest

from repro.store import (
    StoreIngestError,
    StoreWriter,
    ingest_export_dir,
    ingest_path,
    ingest_trace,
    open_store,
)
from repro.store.schema import SELECT_OBS_RECORDS, connect
from repro.store.writer import row_to_record

from tests.test_store.conftest import synthetic_records, write_trace


class TestIngestTrace:
    def test_records_round_trip(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        records = synthetic_records()
        write_trace(trace_path, records)
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            trace_id = ingest_trace(writer, trace_path)
        conn = connect(db, readonly=True)
        stored = [row_to_record(row) for row in
                  conn.execute(SELECT_OBS_RECORDS, (trace_id,))]
        meta = conn.execute(
            "SELECT level, schema_version, n_records FROM traces "
            "WHERE trace_id = ?", (trace_id,)).fetchone()
        conn.close()
        # meta lives in the trace registry; the rest round-trips exactly.
        assert stored == [r for r in records if r["kind"] != "meta"]
        assert tuple(meta) == ("basic", 1, len(records))

    def test_derived_tables_fold_during_ingest(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        write_trace(trace_path, synthetic_records(n_phases=3,
                                                  decisions_per_phase=2))
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_trace(writer, trace_path)
        conn = open_store(db, readonly=True)
        phases = conn.execute(
            "SELECT phase, span_count, total_dur_ns FROM phase_metrics "
            "ORDER BY CAST(phase AS INTEGER)").fetchall()
        decisions = conn.execute(
            "SELECT COUNT(*) FROM migration_decisions").fetchone()[0]
        conn.close()
        assert phases == [("0", 1, 1000), ("1", 1, 1001), ("2", 1, 1002)]
        assert decisions == 6

    def test_reingesting_same_trace_produces_identical_rows(self,
                                                            tmp_path):
        trace_path = tmp_path / "t.jsonl"
        write_trace(trace_path, synthetic_records())
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            first = ingest_trace(writer, trace_path, label="one")
            second = ingest_trace(writer, trace_path, label="two")
        conn = connect(db, readonly=True)
        rows = lambda tid: [tuple(row[2:]) for row in conn.execute(  # noqa: E731
            "SELECT * FROM obs_records WHERE trace_id = ? ORDER BY seq",
            (tid,))]
        assert rows(first) == rows(second)
        conn.close()


class TestIngestExportDir:
    def test_manifest_and_results_land(self, tmp_path, fault_export):
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            sweep_id = ingest_export_dir(writer, fault_export,
                                         label="golden")
        conn = open_store(db, readonly=True)
        label, seed = conn.execute(
            "SELECT label, seed FROM sweeps WHERE sweep_id = ?",
            (sweep_id,)).fetchone()
        experiments = [row[0] for row in conn.execute(
            "SELECT experiment FROM runs ORDER BY experiment")]
        conn.close()
        assert label == "golden"
        assert seed == 1
        assert experiments == ["fault-study"]

    def test_duplicate_label_refused(self, tmp_path, fault_export):
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_export_dir(writer, fault_export, label="x")
            with pytest.raises(StoreIngestError, match="already exists"):
                ingest_export_dir(writer, fault_export, label="x")

    def test_non_result_json_skipped(self, tmp_path):
        directory = tmp_path / "export"
        directory.mkdir()
        (directory / "result.json").write_text(json.dumps({
            "experiment": "e", "notes": "", "headers": ["w", "v"],
            "rows": [["a", 1.0]],
        }))
        (directory / "checkpoint.json").write_text("{}")
        (directory / "stray.json").write_text('{"other": "shape"}')
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_export_dir(writer, directory)
        conn = open_store(db, readonly=True)
        assert conn.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0] == 1
        conn.close()

    def test_empty_directory_refused(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            with pytest.raises(StoreIngestError, match="no exported"):
                ingest_export_dir(writer, directory)

    def test_manifest_obs_trace_rides_along(self, tmp_path):
        directory = tmp_path / "export"
        directory.mkdir()
        write_trace(directory / "trace.jsonl", synthetic_records())
        (directory / "manifest.json").write_text(json.dumps(
            {"schema": 2, "seed": 3, "obs_trace": "trace.jsonl"}))
        (directory / "r.json").write_text(json.dumps({
            "experiment": "e", "notes": "", "headers": ["w", "v"],
            "rows": [["a", 1.0]],
        }))
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_export_dir(writer, directory, label="withtrace")
        conn = open_store(db, readonly=True)
        labels = [row[0] for row in
                  conn.execute("SELECT label FROM traces")]
        conn.close()
        assert labels == ["withtrace:obs"]


class TestIngestPath:
    def test_dispatches_on_artifact_shape(self, tmp_path, fault_export):
        trace_path = tmp_path / "t.jsonl"
        write_trace(trace_path, synthetic_records())
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            assert ingest_path(writer, fault_export)[0] == "sweep"
            assert ingest_path(writer, trace_path)[0] == "trace"

    def test_refuses_sqlite_artifacts_and_missing_paths(self, tmp_path):
        db = tmp_path / "s.sqlite"
        other = tmp_path / "other.sqlite"
        open_store(other).close()
        with StoreWriter(db) as writer:
            with pytest.raises(StoreIngestError, match="already a sqlite"):
                ingest_path(writer, other)
            with pytest.raises(StoreIngestError, match="no such"):
                ingest_path(writer, tmp_path / "nope.jsonl")
