"""Tests for the migration cost model."""

import numpy as np
import pytest

from repro.config import scaled_config
from repro.migration import MigrationBatch, MigrationCostModel
from repro.migration.records import RegionMove
from repro.topology import POOL_LOCATION
from repro.trace import PhaseTrace


@pytest.fixture
def model():
    return MigrationCostModel(scaled_config())


def sparse(counts):
    return PhaseTrace.from_dense(0, counts, instructions_per_thread=1)


def batch_moving(pages, destination=POOL_LOCATION, source=0, phase=1):
    batch = MigrationBatch(phase=phase)
    batch.add(RegionMove(pages=np.asarray(pages, dtype=np.int64),
                         source=source, destination=destination))
    return batch


class TestInFlightWindow:
    def test_includes_copy_and_shootdown(self, model):
        window = model.per_page_in_flight_ns()
        copy_ns = 4096 / model.system.bandwidth.numalink_gbps
        shootdown_ns = model.system.core.cycles_to_ns(3000)
        assert window == pytest.approx(copy_ns + shootdown_ns)


class TestCosts:
    def test_empty_batch_is_free(self, model):
        costs = model.costs_for(MigrationBatch(phase=1),
                                sparse(np.zeros((16, 4))), 1e9)
        assert costs.pages_migrated == 0
        assert costs.stall_ns_total == 0.0

    def test_shootdown_cycles_scale_with_pages(self, model):
        counts = np.zeros((16, 10))
        costs = model.costs_for(batch_moving([0, 1, 2]), sparse(counts),
                                1e9)
        assert costs.shootdown_cycles == pytest.approx(3 * 3000)

    def test_copy_bytes(self, model):
        counts = np.zeros((16, 10))
        costs = model.costs_for(batch_moving([0, 1]), sparse(counts), 1e9)
        assert costs.copy_bytes == pytest.approx(2 * 4096)

    def test_stalls_scale_with_page_heat(self, model):
        cold = np.zeros((16, 10))
        hot = np.zeros((16, 10))
        hot[:, 0] = 1e6
        batch = batch_moving([0])
        cold_costs = model.costs_for(batch, sparse(cold), 1e9)
        hot_costs = model.costs_for(batch, sparse(hot), 1e9)
        assert hot_costs.stall_ns_total > cold_costs.stall_ns_total == 0.0

    def test_stall_bounded_by_window(self, model):
        counts = np.zeros((16, 10))
        counts[:, 0] = 1000
        batch = batch_moving([0])
        costs = model.costs_for(batch, sparse(counts),
                                phase_duration_ns=1.0)
        # in-flight fraction clamps at 1: every access stalls half a window.
        expected = 16000 * model.per_page_in_flight_ns() / 2
        assert costs.stall_ns_total == pytest.approx(expected)

    def test_rejects_bad_duration(self, model):
        with pytest.raises(ValueError):
            model.costs_for(batch_moving([0]), sparse(np.zeros((16, 10))),
                            0.0)


class TestScanCore:
    def test_overhead_matches_paper_scale(self):
        from repro.config import full_scale_config

        model = MigrationCostModel(full_scale_config())
        # One dedicated core out of 448 is ~0.2%.
        assert model.scan_core_overhead() == pytest.approx(1 / 448)
