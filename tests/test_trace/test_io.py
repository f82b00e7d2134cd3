"""Tests for trace persistence and ingestion."""

import numpy as np
import pytest

from repro.trace import PhaseTrace, TraceSynthesizer
from repro.trace.io import (
    load_phase_traces,
    records_to_phase_trace,
    save_phase_traces,
)
from repro.trace.records import TraceRecord


@pytest.fixture
def traces(tiny_population):
    synthesizer = TraceSynthesizer(tiny_population, threads_per_socket=4,
                                   instructions_per_thread=500_000, seed=8)
    return synthesizer.synthesize(3)


class TestRoundTrip:
    def test_save_load_identity(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_phase_traces(traces, path)
        restored = load_phase_traces(path)
        assert len(restored) == len(traces)
        for original, loaded in zip(traces, restored):
            assert loaded.phase == original.phase
            assert (loaded.dense() == original.dense()).all()
            assert (loaded.instructions_per_thread
                    == original.instructions_per_thread)

    def test_bundle_format_unchanged(self, traces, tmp_path):
        """Sparse in memory, still dense int64 v1 arrays on disk."""
        path = tmp_path / "traces.npz"
        save_phase_traces(traces, path)
        with np.load(path) as bundle:
            first = {key: (bundle[key].dtype, bundle[key].shape)
                     for key in bundle.files}
        assert sorted(first) == ["counts_0", "counts_1", "counts_2",
                                 "instructions", "phases", "version"]
        assert all(dtype == np.int64 for dtype, _ in first.values())
        assert first["counts_0"][1] == traces[0].index.shape

        # A loaded trace is indexed by its own nonzeros, not by any
        # population, and writes back the same bundle.
        restored = load_phase_traces(path)
        assert restored[0].index is not traces[0].index
        again = tmp_path / "again.npz"
        save_phase_traces(restored, again)
        with np.load(path) as before, np.load(again) as after:
            assert sorted(after.files) == sorted(before.files)
            for key in before.files:
                assert after[key].dtype == before[key].dtype
                assert np.array_equal(after[key], before[key])

    def test_phases_sorted_on_load(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_phase_traces(list(reversed(traces)), path)
        restored = load_phase_traces(path)
        assert [trace.phase for trace in restored] == [0, 1, 2]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            save_phase_traces([], tmp_path / "x.npz")

    def test_rejects_mixed_shapes(self, traces, tmp_path):
        odd = PhaseTrace.from_dense(9, np.zeros((2, 2), dtype=np.int64),
                                    instructions_per_thread=100)
        with pytest.raises(ValueError):
            save_phase_traces(traces + [odd], tmp_path / "x.npz")

    def test_version_check(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_phase_traces(traces, path)
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        arrays["version"] = np.array([99])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_phase_traces(path)


class TestIngestion:
    def record(self, socket, page, is_write=False):
        return TraceRecord(socket=socket, thread=0, instruction_index=0,
                           page=page, is_write=is_write)

    def test_aggregation(self):
        records = [self.record(0, 3), self.record(0, 3), self.record(2, 1)]
        trace = records_to_phase_trace(records, n_sockets=4, n_pages=8,
                                       instructions_per_thread=1000)
        assert trace.dense()[0, 3] == 2
        assert trace.dense()[2, 1] == 1
        assert trace.total_accesses == 3

    def test_rejects_out_of_range_socket(self):
        with pytest.raises(ValueError):
            records_to_phase_trace([self.record(9, 0)], 4, 8, 1000)

    def test_rejects_out_of_range_page(self):
        with pytest.raises(ValueError):
            records_to_phase_trace([self.record(0, 99)], 4, 8, 1000)

    def test_record_stream_roundtrip(self, tiny_population):
        """Synthesizer records aggregate into a usable phase trace."""
        synthesizer = TraceSynthesizer(tiny_population, 4, 500_000, seed=9)
        records = list(synthesizer.record_stream(0, 2000))
        trace = records_to_phase_trace(
            records, 16, tiny_population.n_pages, 500_000
        )
        assert trace.total_accesses == 2000
        member = tiny_population.membership()
        assert trace.dense()[~member].sum() == 0
