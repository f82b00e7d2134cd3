"""StoreWriter: buffering, lifecycle, fork safety, concurrent writers."""

import json
import multiprocessing
import os

import pytest

from repro.store.schema import connect
from repro.store import StoreWriter, open_store
from repro.store.writer import scenario_key

from tests.test_store.conftest import synthetic_records


class TestScenarioKey:
    def test_joins_label_cells(self):
        assert scenario_key(["bfs", "pool-dead", 1.5, 3]) == \
            "bfs/pool-dead"
        assert scenario_key(["bfs", True, 2.0]) == "bfs/True"

    def test_all_numeric_rows_get_placeholder(self):
        assert scenario_key([1, 2.5]) == "-"


class TestBuffering:
    def test_rows_buffer_until_batch_size(self, tmp_path):
        db = tmp_path / "s.sqlite"
        writer = StoreWriter(db, batch_size=100)
        sweep = writer.begin_sweep("s", source="test")
        writer.add_result(sweep, {
            "experiment": "e", "notes": "", "headers": ["w", "x"],
            "rows": [["a", 1.0], ["b", 2.0]],
        })
        reader = connect(db, readonly=True)
        # Header rows (sweeps/runs) are eager; bulk rows are buffered.
        assert reader.execute(
            "SELECT COUNT(*) FROM runs").fetchone()[0] == 1
        assert reader.execute(
            "SELECT COUNT(*) FROM run_rows").fetchone()[0] == 0
        writer.flush()
        assert reader.execute(
            "SELECT COUNT(*) FROM run_rows").fetchone()[0] == 2
        assert reader.execute(
            "SELECT COUNT(*) FROM run_metrics").fetchone()[0] == 2
        writer.close()
        reader.close()

    def test_batch_boundary_flushes_automatically(self, tmp_path):
        db = tmp_path / "s.sqlite"
        writer = StoreWriter(db, batch_size=3)
        trace = writer.begin_trace(source="test")
        for index in range(7):
            writer.add_obs_record(trace, {"kind": "event", "name": "e",
                                          "t_ns": index})
        reader = connect(db, readonly=True)
        assert reader.execute(
            "SELECT COUNT(*) FROM obs_records").fetchone()[0] == 6
        writer.close()
        assert reader.execute(
            "SELECT COUNT(*) FROM obs_records").fetchone()[0] == 7
        reader.close()

    def test_row_content_is_deterministic(self, tmp_path):
        """Same inputs -> identical row content (no wall-clock leaks)."""
        records = synthetic_records()
        dumps = []
        for name in ("a.sqlite", "b.sqlite"):
            db = tmp_path / name
            with StoreWriter(db) as writer:
                trace = writer.begin_trace(source="fixed", label="t")
                for record in records:
                    writer.add_obs_record(trace, record)
                writer.finish_trace(trace)
            conn = connect(db, readonly=True)
            dumps.append([tuple(row) for row in conn.execute(
                "SELECT * FROM obs_records ORDER BY trace_id, seq")])
            conn.close()
        assert dumps[0] == dumps[1]


class TestLifecycle:
    def test_close_finishes_open_traces(self, tmp_path):
        db = tmp_path / "s.sqlite"
        writer = StoreWriter(db)
        trace = writer.begin_trace(source="test")
        for record in synthetic_records():
            writer.add_obs_record(trace, record)
        writer.close()  # finish_trace was never called explicitly
        conn = open_store(db, readonly=True)
        n_records = conn.execute(
            "SELECT n_records FROM traces").fetchone()[0]
        n_phases = conn.execute(
            "SELECT COUNT(*) FROM phase_metrics").fetchone()[0]
        conn.close()
        assert n_records == len(synthetic_records())
        assert n_phases == 3

    def test_use_after_close_raises(self, tmp_path):
        writer = StoreWriter(tmp_path / "s.sqlite")
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.begin_sweep("s", source="test")

    def test_forked_child_raises_and_close_is_noop(self, tmp_path):
        writer = StoreWriter(tmp_path / "s.sqlite")
        trace = writer.begin_trace(source="test")
        pid = os.fork()
        if pid == 0:
            try:
                try:
                    writer.add_obs_record(trace, {"kind": "event",
                                                  "name": "child"})
                except RuntimeError:
                    writer.close()  # must be inert in the child
                    os._exit(0)
                os._exit(1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        writer.add_obs_record(trace, {"kind": "event", "name": "parent",
                                      "t_ns": 0})
        writer.close()


def _concurrent_appender(db_path, worker, n_records, barrier, errors):
    """One writer process: its own connection, its own trace."""
    try:
        writer = StoreWriter(db_path, batch_size=16, busy_timeout_s=30.0)
        barrier.wait()  # maximize write-lock contention
        trace = writer.begin_trace(source=f"worker-{worker}",
                                   label=f"w{worker}")
        for index in range(n_records):
            writer.add_obs_record(trace, {
                "kind": "event", "name": "migration.decision",
                "t_ns": index,
                "attrs": {"worker": worker, "index": index},
            })
        writer.finish_trace(trace)
        writer.close()
    except Exception as exc:  # noqa: BLE001 -- reported to the parent
        errors.put(f"worker {worker}: {type(exc).__name__}: {exc}")


class TestConcurrentWriters:
    def test_two_processes_append_without_loss_or_lock_errors(
            self, tmp_path):
        """Satellite: WAL + busy_timeout carry concurrent appends.

        Two writer processes hammer the same store; every row must
        land (no lost rows) and neither may surface ``database is
        locked`` (the busy timeout absorbs lock contention).
        """
        db = tmp_path / "shared.sqlite"
        open_store(db).close()  # schema exists before the race starts
        n_records = 300
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        errors = context.Queue()
        workers = [
            context.Process(target=_concurrent_appender,
                            args=(str(db), worker, n_records, barrier,
                                  errors))
            for worker in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0
        problems = []
        while not errors.empty():
            problems.append(errors.get())
        assert problems == []  # no "database is locked", no exceptions

        conn = open_store(db, readonly=True)
        totals = dict(conn.execute(
            "SELECT json_extract(attrs, '$.worker'), COUNT(*) "
            "FROM obs_records GROUP BY 1"))
        counts = dict(conn.execute(
            "SELECT label, n_records FROM traces"))
        conn.close()
        assert totals == {0: n_records, 1: n_records}
        assert counts == {"w0": n_records, "w1": n_records}

    def test_interleaved_rows_stay_attributed(self, tmp_path):
        """Each worker's rows carry its own trace_id, in its own order."""
        db = tmp_path / "shared.sqlite"
        open_store(db).close()
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        errors = context.Queue()
        workers = [
            context.Process(target=_concurrent_appender,
                            args=(str(db), worker, 50, barrier, errors))
            for worker in range(2)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
        conn = open_store(db, readonly=True)
        for trace_id in (1, 2):
            indices = [json.loads(attrs)["index"] for (attrs,) in
                       conn.execute("SELECT attrs FROM obs_records "
                                    "WHERE trace_id = ? ORDER BY seq",
                                    (trace_id,))]
            assert indices == list(range(50))
        conn.close()
