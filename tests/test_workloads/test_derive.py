"""Tests for trace-derived populations."""

import numpy as np
import pytest

from repro.trace import TraceSynthesizer
from repro.workloads.derive import derive_population, measured_write_fractions


class TestDerivePopulation:
    def test_roundtrip_from_synthetic_traces(self, tiny_population,
                                             tiny_profile):
        """Deriving from traces of a known population recovers its
        structure: sharer sets and weight ranking."""
        synthesizer = TraceSynthesizer(tiny_population, 4, 4_000_000,
                                       seed=13)
        totals = sum(trace.dense() for trace in synthesizer.synthesize(4))
        touched = np.flatnonzero(totals.sum(axis=0) > 0)
        derived = derive_population(
            totals[:, touched], tiny_profile,
            write_fraction=tiny_population.write_fraction[touched],
        )
        # Sharer sets of well-sampled pages match the ground truth.
        truth = tiny_population.sharer_mask[touched]
        hot = derived.weight > np.median(derived.weight)
        agreement = np.mean(derived.sharer_mask[hot] == truth[hot])
        assert agreement > 0.9
        # Weight ordering is preserved for clearly separated pages.
        truth_weight = tiny_population.weight[touched]
        hottest_true = np.argsort(truth_weight)[-50:]
        hottest_derived = np.argsort(derived.weight)[-200:]
        assert len(set(hottest_true) & set(hottest_derived)) > 35

    def test_weights_normalized(self, tiny_profile):
        counts = np.array([[5, 0], [5, 10]])
        population = derive_population(counts, tiny_profile)
        assert population.weight.sum() == pytest.approx(1.0)
        assert population.weight[1] == pytest.approx(0.5)

    def test_sharer_masks(self, tiny_profile):
        counts = np.array([[5, 0], [5, 10]])
        population = derive_population(counts, tiny_profile)
        assert population.sharer_count[0] == 2
        assert population.sharer_count[1] == 1
        assert population.sharer_mask[1] == 0b10

    def test_usable_by_pipeline(self, tiny_profile):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 100, size=(16, 2048))
        population = derive_population(counts, tiny_profile)
        rates = population.socket_access_rates()
        assert rates.sum(axis=1) == pytest.approx(np.ones(16))

    def test_rejects_untouched_pages(self, tiny_profile):
        counts = np.array([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            derive_population(counts, tiny_profile)

    def test_rejects_negative_counts(self, tiny_profile):
        with pytest.raises(ValueError):
            derive_population(np.array([[-1]]), tiny_profile)

    def test_rejects_bad_write_fractions(self, tiny_profile):
        counts = np.array([[1], [1]])
        with pytest.raises(ValueError):
            derive_population(counts, tiny_profile, write_fraction=1.5)

    def test_per_page_write_fraction_shape_checked(self, tiny_profile):
        counts = np.array([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            derive_population(counts, tiny_profile,
                              write_fraction=np.array([0.1, 0.2, 0.3]))


class TestMeasuredWriteFractions:
    def test_basic(self):
        reads = np.array([[3, 0], [3, 5]])
        writes = np.array([[2, 5], [2, 0]])
        fractions = measured_write_fractions(reads, writes)
        assert fractions[0] == pytest.approx(0.4)
        assert fractions[1] == pytest.approx(0.5)

    def test_rejects_untouched(self):
        with pytest.raises(ValueError):
            measured_write_fractions(np.zeros((2, 1)), np.zeros((2, 1)))
