"""The sqlite format as seen from obs: path sniffing and the row codec.

Runs write JSONL only; these pin the two pieces of ``repro.store`` an
obs trace meets on its way into a store, and that ``configure`` keeps
writing JSONL.
"""

import sqlite3

import pytest

from repro.obs import OBS, JsonlSink, configure, shutdown
from repro.store.schema import is_sqlite_path
from repro.store.writer import record_to_row, row_to_record


class TestIsSqlitePath:
    def test_suffix_decides_for_missing_files(self, tmp_path):
        assert is_sqlite_path(tmp_path / "t.sqlite")
        assert is_sqlite_path(tmp_path / "t.sqlite3")
        assert is_sqlite_path(tmp_path / "t.db")
        assert not is_sqlite_path(tmp_path / "t.jsonl")

    def test_magic_bytes_decide_for_existing_files(self, tmp_path):
        db = tmp_path / "odd-name.trace"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        assert is_sqlite_path(db)
        jsonl = tmp_path / "fake.sqlite"
        jsonl.write_text('{"kind":"meta"}\n')
        assert not is_sqlite_path(jsonl)


class TestRecordRoundTrip:
    @pytest.mark.parametrize("record", [
        {"kind": "span", "name": "sim.phase", "t_ns": 10, "dur_ns": 5,
         "attrs": {"phase": 3}},
        {"kind": "span", "name": "sim.run", "t_ns": 0, "dur_ns": 1},
        {"kind": "event", "name": "migration.decision", "t_ns": 7,
         "attrs": {"policy": "starnuma", "pages": 64}},
        {"kind": "event", "name": "bare", "t_ns": 1},
        {"kind": "metric", "type": "counter", "name": "c", "value": 3.0},
        {"kind": "metric", "type": "gauge", "name": "g", "value": 1.5,
         "samples": 4},
        {"kind": "metric", "type": "histogram", "name": "h",
         "edges": [1.0, 2.0], "buckets": [1, 2, 3], "count": 6,
         "total": 9.5},
    ])
    def test_exact(self, record):
        row = record_to_row(1, 1, record)
        assert row_to_record(row[2:]) == record

    def test_empty_attrs_survive(self):
        record = {"kind": "event", "name": "e", "t_ns": 0, "attrs": {}}
        assert row_to_record(record_to_row(1, 1, record)[2:]) == record


class TestConfigureDispatch:
    def test_jsonl_suffix_still_selects_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        configure(trace_path=str(trace), level="basic")
        assert isinstance(OBS._sink, JsonlSink)
        OBS.event("e")
        shutdown()
        assert '"kind":"event"' in trace.read_text()
