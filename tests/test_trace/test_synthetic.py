"""Tests for the trace synthesizer."""

import numpy as np
import pytest

from repro.trace import TraceSynthesizer


@pytest.fixture
def synthesizer(tiny_population):
    return TraceSynthesizer(tiny_population, threads_per_socket=4,
                            instructions_per_thread=1_000_000, seed=9)


class TestVolumes:
    def test_accesses_per_socket_formula(self, synthesizer, tiny_profile):
        expected = int(1_000_000 * 4 * tiny_profile.mpki / 1000)
        assert synthesizer.accesses_per_socket == expected

    def test_sampled_volume_close_to_expected(self, synthesizer):
        trace = synthesizer.synthesize_phase(0)
        per_socket = trace.accesses_per_socket()
        assert per_socket == pytest.approx(
            synthesizer.accesses_per_socket, rel=0.02
        )

    def test_cap_applies(self, tiny_population):
        synthesizer = TraceSynthesizer(
            tiny_population, threads_per_socket=4,
            instructions_per_thread=10 ** 12,
            accesses_cap_per_socket=1000, seed=1,
        )
        assert synthesizer.accesses_per_socket == 1000


class TestDistributions:
    def test_nonsharers_never_access(self, synthesizer, tiny_population):
        trace = synthesizer.synthesize_phase(0)
        member = tiny_population.membership()
        assert trace.dense()[~member].sum() == 0

    def test_hot_pages_get_more(self, synthesizer, tiny_population):
        trace = synthesizer.synthesize_phase(0)
        totals = trace.page_totals()
        weights = tiny_population.weight
        hot = np.argsort(weights)[-100:]
        cold = np.argsort(weights)[:100]
        assert totals[hot].mean() > totals[cold].mean()

    def test_drift_changes_rates_between_phases(self, synthesizer):
        rates_0 = synthesizer.phase_rates(0)
        rates_1 = synthesizer.phase_rates(1)
        assert not np.allclose(rates_0, rates_1)

    def test_no_drift_when_sigma_zero(self, tiny_population):
        import dataclasses

        profile = dataclasses.replace(tiny_population.profile,
                                      drift_sigma=0.0)
        population = dataclasses.replace(tiny_population, profile=profile)
        synthesizer = TraceSynthesizer(population, 4, 1_000_000, seed=1)
        assert np.allclose(synthesizer.phase_rates(0),
                           synthesizer.phase_rates(5))


class TestDeterminism:
    def test_same_seed_same_trace(self, tiny_population):
        a = TraceSynthesizer(tiny_population, 4, 1_000_000, seed=3)
        b = TraceSynthesizer(tiny_population, 4, 1_000_000, seed=3)
        assert (a.synthesize_phase(2).dense()
                == b.synthesize_phase(2).dense()).all()

    def test_phases_differ(self, synthesizer):
        a = synthesizer.synthesize_phase(0)
        b = synthesizer.synthesize_phase(1)
        assert not (a.dense() == b.dense()).all()

    def test_synthesize_returns_sequential_phases(self, synthesizer):
        traces = synthesizer.synthesize(3)
        assert [trace.phase for trace in traces] == [0, 1, 2]


class TestRecordStream:
    def test_record_fields(self, synthesizer, tiny_population):
        records = list(synthesizer.record_stream(0, n_records=64))
        assert len(records) == 64
        for record in records[:8]:
            assert 0 <= record.socket < 16
            assert 0 <= record.page < tiny_population.n_pages
            mask = int(tiny_population.sharer_mask[record.page])
            assert mask & (1 << record.socket)

    def test_single_socket_stream(self, synthesizer):
        records = list(synthesizer.record_stream(0, 32, socket=5))
        assert all(record.socket == 5 for record in records)

    def test_instruction_indices_increase(self, synthesizer):
        records = list(synthesizer.record_stream(0, 16))
        indices = [record.instruction_index for record in records]
        assert indices == sorted(indices)
        assert indices[0] > 0


class TestValidation:
    def test_rejects_zero_threads(self, tiny_population):
        with pytest.raises(ValueError):
            TraceSynthesizer(tiny_population, 0, 1_000_000)

    def test_rejects_zero_instructions(self, tiny_population):
        with pytest.raises(ValueError):
            TraceSynthesizer(tiny_population, 4, 0)

    def test_rejects_zero_phases(self, synthesizer):
        with pytest.raises(ValueError):
            synthesizer.synthesize(0)

    def test_rejects_zero_records(self, synthesizer):
        with pytest.raises(ValueError):
            list(synthesizer.record_stream(0, 0))
