"""Tests for trace record containers."""

import numpy as np
import pytest

from repro.trace import PhaseTrace, TraceSynthesizer
from repro.trace.records import narrow_counts

INT32_MAX = int(np.iinfo(np.int32).max)


def make_trace(counts, phase=0, instructions=1000):
    return PhaseTrace.from_dense(phase, np.asarray(counts, dtype=np.int64),
                                 instructions_per_thread=instructions)


class TestPhaseTrace:
    def test_shape_properties(self):
        trace = make_trace(np.zeros((4, 10)))
        assert trace.n_sockets == 4
        assert trace.n_pages == 10

    def test_totals(self):
        trace = make_trace([[1, 2], [3, 4]])
        assert trace.total_accesses == 10
        assert list(trace.accesses_per_socket()) == [3, 7]
        assert list(trace.page_totals()) == [4, 6]

    def test_touched_mask(self):
        trace = make_trace([[0, 2], [1, 0]])
        touched = trace.dense() > 0
        assert touched.tolist() == [[False, True], [True, False]]

    def test_rejects_1d_counts(self):
        with pytest.raises(ValueError):
            make_trace(np.zeros(5))

    def test_rejects_zero_instructions(self):
        with pytest.raises(ValueError):
            make_trace(np.zeros((2, 2)), instructions=0)


class TestNarrowing:
    def test_counts_that_fit_narrow_to_int32(self):
        values = narrow_counts(np.array([0, 7, INT32_MAX], dtype=np.int64))
        assert values.dtype == np.int32
        assert values.tolist() == [0, 7, INT32_MAX]

    @pytest.mark.parametrize("low, high, dtype", [
        (0, 127, np.int8), (0, 128, np.int16),
        (-128, 0, np.int8), (-129, 0, np.int16),
        (0, 32767, np.int16), (0, 32768, np.int32),
        (-32768, 5, np.int16), (-32769, 5, np.int32),
        (0, INT32_MAX, np.int32), (0, INT32_MAX + 1, np.int64),
        (-INT32_MAX - 1, 0, np.int32), (-INT32_MAX - 2, 0, np.int64),
    ])
    def test_each_phase_takes_the_narrowest_type(self, low, high, dtype):
        values = narrow_counts(np.array([low, 1, high], dtype=np.int64))
        assert values.dtype == dtype
        assert values.tolist() == [low, 1, high]

    def test_an_empty_phase_is_int8(self):
        assert narrow_counts(np.zeros(0, dtype=np.int64)).dtype == np.int8

    def test_overflowing_counts_stay_int64(self):
        values = narrow_counts(np.array([1, INT32_MAX + 1], dtype=np.int64))
        assert values.dtype == np.int64
        assert values.tolist() == [1, INT32_MAX + 1]

    @pytest.mark.parametrize("top", [100, INT32_MAX, INT32_MAX + 1])
    def test_result_never_aliases_its_input(self, top):
        # Step A narrows out of a draw buffer the next phase overwrites.
        draws = np.array([1, top], dtype=np.int64)
        values = narrow_counts(draws)
        assert not np.shares_memory(values, draws)
        draws[:] = 0
        assert values.tolist() == [1, top]

    def test_synthesized_phase_past_int32_keeps_int64(self, tiny_population):
        # Lift the per-socket access cap so single cells exceed int32.
        synthesizer = TraceSynthesizer(
            tiny_population, threads_per_socket=64,
            instructions_per_thread=10**12, seed=1,
            accesses_cap_per_socket=10**15)
        trace = synthesizer.synthesize_phase(0)
        assert trace.values.dtype == np.int64
        assert int(trace.values.max()) > INT32_MAX
        dense = trace.dense()
        assert dense.dtype == np.int64
        assert int(dense.sum()) == trace.total_accesses
        assert np.array_equal(trace.page_totals(), dense.sum(axis=0))
        assert np.array_equal(trace.accesses_per_socket(), dense.sum(axis=1))



class TestSparseLookups:
    """Column and per-page reads agree with the dense matrix."""

    COUNTS = [[0, 5, 0, 2], [3, 0, 0, 4], [0, 7, 0, 1]]

    def test_from_dense_keeps_only_nonzeros(self):
        trace = make_trace(self.COUNTS)
        assert trace.index.size == 6
        assert trace.values.tolist() == [5, 2, 3, 4, 7, 1]
        # Stored in the narrowest type that holds the phase's counts.
        assert trace.values.dtype == np.int8

    def test_columns_match_dense_columns(self):
        trace = make_trace(self.COUNTS)
        dense = np.asarray(self.COUNTS)
        for pages in ([1, 0, 1], [2], [3, 2, 1, 0], []):
            block = trace.columns(np.array(pages, dtype=np.int64))
            assert block.dtype == np.int64
            assert block.tolist() == dense[:, pages].tolist()
            # Column indexing lays the block out in Fortran order.
            assert block.flags.f_contiguous

    def test_per_page_reductions(self):
        trace = make_trace(self.COUNTS)
        assert trace.page_totals().tolist() == [3, 12, 0, 7]
        assert trace.page_peaks().tolist() == [3, 7, 0, 4]

    def test_at_sockets_reads_one_cell_per_page(self):
        trace = make_trace(self.COUNTS)
        # Page 0 at socket 1, page 1 at socket 1 (no cell), page 2 on the
        # pool (-1), page 3 at socket 2.
        got = trace.at_sockets(np.array([1, 1, -1, 2]))
        assert got.dtype == np.int64
        assert got.tolist() == [3, 0, 0, 1]
