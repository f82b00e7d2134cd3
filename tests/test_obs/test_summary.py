"""Trace summarization and the text report."""

import json

from repro.obs import read_trace, render_summary, summarize_records


def _trace_records():
    return [
        {"kind": "meta", "schema": 1, "level": "basic",
         "clock": "monotonic_ns"},
        {"kind": "span", "name": "sim.phase", "t_ns": 0, "dur_ns": 2000000,
         "attrs": {"phase": 0}},
        {"kind": "span", "name": "sim.phase", "t_ns": 2000000,
         "dur_ns": 1000000, "attrs": {"phase": 1}},
        {"kind": "span", "name": "sim.phase", "t_ns": 3000000,
         "dur_ns": 1000000, "attrs": {"phase": 1}},
        {"kind": "event", "name": "migration.decision", "t_ns": 5,
         "attrs": {}},
        {"kind": "metric", "type": "counter", "name": "sim.phases",
         "value": 3.0},
        {"kind": "metric", "type": "histogram", "name": "iters",
         "edges": [1, 2], "buckets": [1, 1, 0], "count": 2, "total": 3.0},
    ]


class TestSummarize:
    def test_folds_phases_spans_events_metrics(self):
        summary = summarize_records(_trace_records())
        assert summary["n_records"] == 7
        assert summary["phase_ns"] == {0: 2000000.0, 1: 2000000.0}
        assert summary["spans"]["sim.phase"]["count"] == 3
        assert summary["events"] == {"migration.decision": 1}
        assert len(summary["metrics"]) == 2

    def test_empty_trace(self):
        summary = summarize_records([])
        assert summary["n_records"] == 0
        assert summary["phase_ns"] == {}


class TestRender:
    def test_sections_present(self):
        text = render_summary(summarize_records(_trace_records()))
        assert "phase timeline (eval ms):" in text
        assert "phase 0" in text
        assert "migration.decision" in text
        assert "sim.phases" in text
        assert "n=2 mean=1.50" in text

    def test_no_phases_no_timeline(self):
        text = render_summary(summarize_records([_trace_records()[0]]))
        assert "phase timeline" not in text
        assert "1 records" in text

    def test_width_is_respected(self):
        summary = summarize_records(_trace_records())
        narrow = render_summary(summary, width=8)
        wide = render_summary(summary, width=60)
        assert max(len(line) for line in narrow.splitlines()) \
            < max(len(line) for line in wide.splitlines())


class TestReadTrace:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in _trace_records()
        ) + "\n")  # trailing blank line is skipped
        assert read_trace(path) == _trace_records()
