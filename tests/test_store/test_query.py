"""Query goldens: store answers must reproduce the exported JSON numbers.

The acceptance bar of ``starnuma query``: the fault-study degradation
curve and the fig8 cross-sweep diff computed *from the store alone*
must match what the exported JSON files say, byte-for-value.
"""

import json

import pytest

from repro.cli import main
from repro.store import (
    QueryError,
    StoreWriter,
    cross_sweep_diff,
    degradation_curve,
    ingest_export_dir,
    list_sweeps,
    list_traces,
    open_store,
    phase_timeline,
    run_table,
    summarize_store,
    top_regressions,
)
from repro.store.ingest import ingest_trace
from repro.obs.summary import iter_trace, summarize_records

from tests.test_store.conftest import synthetic_records, write_trace


@pytest.fixture(scope="session")
def fault_store(tmp_path_factory, fault_export):
    db = tmp_path_factory.mktemp("fault-db") / "s.sqlite"
    with StoreWriter(db) as writer:
        ingest_export_dir(writer, fault_export, label="golden")
    return db


@pytest.fixture(scope="session")
def fig8_store(tmp_path_factory, fig8_exports):
    db = tmp_path_factory.mktemp("fig8-db") / "s.sqlite"
    a, b = fig8_exports
    with StoreWriter(db) as writer:
        ingest_export_dir(writer, a, label="seed1")
        ingest_export_dir(writer, b, label="seed2")
    return db


class TestRunTableGolden:
    def test_reproduces_exported_json_byte_for_value(self, fault_store,
                                                     fault_export):
        exported = json.loads(
            (fault_export / "fault-study.json").read_text())
        conn = open_store(fault_store, readonly=True)
        stored = run_table(conn, "golden", "fault-study")
        conn.close()
        assert stored == exported

    def test_unknown_experiment_is_one_line(self, fault_store):
        conn = open_store(fault_store, readonly=True)
        with pytest.raises(QueryError, match="no experiment 'nope'"):
            run_table(conn, None, "nope")
        conn.close()


class TestDegradationCurveGolden:
    def test_matches_export_columns(self, fault_store, fault_export):
        exported = json.loads(
            (fault_export / "fault-study.json").read_text())
        headers = exported["headers"]
        col = {name: headers.index(name) for name in
               ("workload", "severity", "scenario",
                "speedup_over_baseline")}
        expected = [
            (row[col["workload"]], row[col["severity"]],
             row[col["scenario"]], row[col["speedup_over_baseline"]])
            for row in exported["rows"]
        ]
        conn = open_store(fault_store, readonly=True)
        curve_headers, rows = degradation_curve(conn, "golden")
        conn.close()
        assert curve_headers == ("workload", "severity", "scenario",
                                 "speedup_over_baseline")
        assert rows == expected

    def test_workload_filter_narrows_to_one_curve(self, fault_store):
        conn = open_store(fault_store, readonly=True)
        _, rows = degradation_curve(conn, "golden", workload="bfs")
        with pytest.raises(QueryError, match="no rows for workload"):
            degradation_curve(conn, "golden", workload="nope")
        conn.close()
        assert rows
        assert {row[0] for row in rows} == {"bfs"}
        # Severity rungs stay in emission order: the degradation ladder.
        severities = [row[1] for row in rows]
        assert severities == sorted(severities)


class TestCrossSweepDiffGolden:
    def test_matches_values_computed_from_the_two_exports(
            self, fig8_store, fig8_exports):
        export_a, export_b = fig8_exports
        table_a = json.loads((export_a / "fig8a.json").read_text())
        table_b = json.loads((export_b / "fig8a.json").read_text())
        col = table_a["headers"].index("speedup_t16")
        expected = {
            row[0]: (row[col], brow[col])
            for row, brow in zip(table_a["rows"], table_b["rows"])
        }
        conn = open_store(fig8_store, readonly=True)
        headers, rows = cross_sweep_diff(conn, "seed1", "seed2",
                                         "fig8a", "speedup_t16")
        conn.close()
        assert headers == ("scenario", "a", "b", "delta", "ratio")
        assert len(rows) == len(expected)
        for scenario, a, b, delta, ratio in rows:
            golden_a, golden_b = expected[scenario]
            assert a == golden_a
            assert b == golden_b
            assert delta == pytest.approx(golden_b - golden_a)
            assert ratio == pytest.approx(golden_b / golden_a)

    def test_regressions_rank_by_relative_drop(self, fig8_store):
        conn = open_store(fig8_store, readonly=True)
        headers, rows = top_regressions(conn, "seed1", "seed2", top=5)
        conn.close()
        assert headers[-1] == "drop"
        drops = [row[-1] for row in rows]
        assert drops == sorted(drops, reverse=True)
        assert len(rows) == 5

    def test_top_must_be_positive(self, fig8_store):
        conn = open_store(fig8_store, readonly=True)
        with pytest.raises(QueryError, match="top must be"):
            top_regressions(conn, "seed1", "seed2", top=0)
        conn.close()


class TestSweepResolution:
    def test_ambiguous_default_names_the_candidates(self, fig8_store):
        conn = open_store(fig8_store, readonly=True)
        with pytest.raises(QueryError, match="seed1, seed2"):
            run_table(conn, None, "fig8a")
        with pytest.raises(QueryError, match="no such sweep"):
            run_table(conn, "seed3", "fig8a")
        conn.close()

    def test_listings(self, fig8_store):
        conn = open_store(fig8_store, readonly=True)
        _, sweeps = list_sweeps(conn)
        _, traces = list_traces(conn)
        conn.close()
        assert [row[1] for row in sweeps] == ["seed1", "seed2"]
        assert traces == []


class TestStoreSummaryGolden:
    def test_matches_streaming_jsonl_fold(self, tmp_path):
        """Store-backed summary == the JSONL fold, field for field."""
        trace_path = tmp_path / "t.jsonl"
        write_trace(trace_path, synthetic_records(n_phases=4,
                                                  decisions_per_phase=3))
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_trace(writer, trace_path)
        jsonl_summary = summarize_records(iter_trace(trace_path))
        conn = open_store(db, readonly=True)
        store_summary = summarize_store(conn)
        conn.close()
        assert store_summary["meta"] == jsonl_summary["meta"]
        assert store_summary["n_records"] == jsonl_summary["n_records"]
        assert dict(store_summary["spans"]) == dict(jsonl_summary["spans"])
        assert dict(store_summary["phase_ns"]) == \
            dict(jsonl_summary["phase_ns"])
        assert dict(store_summary["events"]) == \
            dict(jsonl_summary["events"])
        assert store_summary["metrics"] == jsonl_summary["metrics"]

    def test_phase_timeline_uses_materialized_index(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        write_trace(trace_path, synthetic_records(n_phases=2))
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            ingest_trace(writer, trace_path)
        conn = open_store(db)
        # Poison the raw log: if the timeline still answers correctly,
        # it came from phase_metrics, not a re-fold of obs_records.
        with conn:
            conn.execute("DELETE FROM obs_records")
        headers, rows = phase_timeline(conn)
        conn.close()
        assert headers == ("phase", "spans", "total_ms")
        assert [row[0] for row in rows] == ["0", "1"]

    def test_timeline_without_phase_index_refuses_with_one_line(
            self, tmp_path):
        db = tmp_path / "s.sqlite"
        with StoreWriter(db):
            pass
        conn = open_store(db)
        with conn:
            conn.execute("DROP TABLE phase_metrics")
        with pytest.raises(QueryError, match="no phase_metrics index"):
            phase_timeline(conn)
        conn.close()

    def test_empty_store_refuses_with_one_line(self, tmp_path):
        db = tmp_path / "s.sqlite"
        with StoreWriter(db):
            pass
        conn = open_store(db, readonly=True)
        with pytest.raises(QueryError, match="no obs traces"):
            summarize_store(conn)
        conn.close()


def _multi_trace_records():
    """Two sessions whose metrics overlap and whose phase sets differ."""
    first = [
        {"kind": "meta", "schema": 1, "level": "basic",
         "clock": "monotonic_ns"},
        {"kind": "span", "name": "sim.phase", "t_ns": 0, "dur_ns": 1000,
         "attrs": {"phase": 0}},
        {"kind": "span", "name": "sim.phase", "t_ns": 1000, "dur_ns": 3000,
         "attrs": {"phase": 1}},
        {"kind": "span", "name": "sim.run", "t_ns": 0, "dur_ns": 5000},
        {"kind": "event", "name": "migration.decision", "t_ns": 10,
         "attrs": {"phase": 0, "pages": 64, "policy": "starnuma"}},
        {"kind": "metric", "type": "counter", "name": "c.pages",
         "value": 3.0},
        {"kind": "metric", "type": "gauge", "name": "g.depth",
         "value": 2.0, "samples": 3},
        {"kind": "metric", "type": "histogram", "name": "h.diff",
         "edges": [1.0, 2.0], "buckets": [1, 1, 0], "count": 2,
         "total": 2.5},
        {"kind": "metric", "type": "histogram", "name": "h.same",
         "edges": [1.0, 2.0], "buckets": [1, 0, 2], "count": 3,
         "total": 6.5},
    ]
    second = [
        {"kind": "meta", "schema": 1, "level": "detail",
         "clock": "monotonic_ns"},
        {"kind": "span", "name": "sim.phase", "t_ns": 0, "dur_ns": 2000,
         "attrs": {"phase": 1}},
        {"kind": "span", "name": "sim.phase", "t_ns": 2000, "dur_ns": 4000,
         "attrs": {"phase": 2}},
        {"kind": "span", "name": "sim.phase", "t_ns": 6000, "dur_ns": 500,
         "attrs": {"phase": 3}},
        {"kind": "event", "name": "migration.decision", "t_ns": 20,
         "attrs": {"phase": 2, "pages": 32, "policy": "starnuma"}},
        {"kind": "event", "name": "runner.retry", "t_ns": 30},
        {"kind": "metric", "type": "counter", "name": "a.only_second",
         "value": 1.0},
        {"kind": "metric", "type": "counter", "name": "c.pages",
         "value": 4.0},
        {"kind": "metric", "type": "gauge", "name": "g.depth",
         "value": 7.0, "samples": 2},
        {"kind": "metric", "type": "histogram", "name": "h.diff",
         "edges": [1.0, 4.0], "buckets": [0, 0, 5], "count": 5,
         "total": 30.0},
        {"kind": "metric", "type": "histogram", "name": "h.same",
         "edges": [1.0, 2.0], "buckets": [0, 1, 1], "count": 2,
         "total": 4.0},
    ]
    return first, second


_META_BASIC = {"kind": "meta", "schema": 1, "level": "basic",
               "clock": "monotonic_ns"}
_META_DETAIL = {"kind": "meta", "schema": 1, "level": "detail",
                "clock": "monotonic_ns"}

#: summarize_store over both traces: counters and equal-edge histogram
#: buckets sum, the gauge keeps the last value and sums samples, a
#: histogram whose edges differ keeps its first summary, the first
#: trace's header names the fold, metrics come back sorted by name.
_BOTH_TRACES = {
    "meta": _META_BASIC,
    "n_records": 20,
    "spans": {"sim.phase": {"count": 5, "total_ns": 10500.0},
              "sim.run": {"count": 1, "total_ns": 5000.0}},
    "phase_ns": {0: 1000.0, 1: 5000.0, 2: 4000.0, 3: 500.0},
    "events": {"migration.decision": 2, "runner.retry": 1},
    "metrics": [
        {"kind": "metric", "type": "counter", "name": "a.only_second",
         "value": 1.0},
        {"kind": "metric", "type": "counter", "name": "c.pages",
         "value": 7.0},
        {"kind": "metric", "type": "gauge", "name": "g.depth",
         "value": 7.0, "samples": 5},
        {"kind": "metric", "type": "histogram", "name": "h.diff",
         "edges": [1.0, 2.0], "buckets": [1, 1, 0], "count": 2,
         "total": 2.5},
        {"kind": "metric", "type": "histogram", "name": "h.same",
         "edges": [1.0, 2.0], "buckets": [1, 1, 3], "count": 5,
         "total": 10.5},
    ],
}

_SECOND_TRACE = {
    "meta": _META_DETAIL,
    "n_records": 11,
    "spans": {"sim.phase": {"count": 3, "total_ns": 6500.0}},
    "phase_ns": {1: 2000.0, 2: 4000.0, 3: 500.0},
    "events": {"migration.decision": 1, "runner.retry": 1},
    "metrics": [record for record in _multi_trace_records()[1]
                if record["kind"] == "metric"],
}


def _bar(label, n_blocks, pad):
    return f"phase {label}  " + "\u2588" * n_blocks + " " * pad


#: ``starnuma obs summary DB`` over both traces, byte for byte.
_BOTH_TRACES_RENDERED = "\n".join([
    "[obs] 20 records, level basic, schema 1",
    "",
    "phase timeline (eval ms):",
    _bar(0, 8, 33) + "0.00 ms",
    _bar(1, 40, 1) + "0.01 ms",
    _bar(2, 32, 9) + "0.00 ms",
    _bar(3, 4, 37) + "0.00 ms",
    "",
    "spans:",
    "span       count  total ms  mean ms",
    "---------  -----  --------  -------",
    "sim.phase  5      0.011     0.002",
    "sim.run    1      0.005     0.005",
    "",
    "events:",
    "event               count",
    "------------------  -----",
    "migration.decision  2",
    "runner.retry        1",
    "",
    "metrics:",
    "metric         type       value",
    "-------------  ---------  -------------",
    "a.only_second  counter    1",
    "c.pages        counter    7",
    "g.depth        gauge      7",
    "h.diff         histogram  n=2 mean=1.25",
    "h.same         histogram  n=5 mean=2.10",
]) + "\n"


class TestMultiTraceSummaryGolden:
    """The store fold over more than one trace, pinned to constants."""

    @pytest.fixture
    def two_trace_db(self, tmp_path):
        db = tmp_path / "s.sqlite"
        with StoreWriter(db) as writer:
            for name, records in zip(("one.jsonl", "two.jsonl"),
                                     _multi_trace_records()):
                write_trace(tmp_path / name, records)
                ingest_trace(writer, tmp_path / name)
        return db

    def test_every_trace_folds_together(self, two_trace_db):
        conn = open_store(two_trace_db, readonly=True)
        summary = summarize_store(conn)
        conn.close()
        assert summary == _BOTH_TRACES

    def test_one_trace_by_id(self, two_trace_db):
        conn = open_store(two_trace_db, readonly=True)
        summary = summarize_store(conn, trace=2)
        conn.close()
        assert summary == _SECOND_TRACE

    def test_rendered_summary(self, two_trace_db, capsys):
        assert main(["obs", "summary", str(two_trace_db)]) == 0
        assert capsys.readouterr().out == _BOTH_TRACES_RENDERED
