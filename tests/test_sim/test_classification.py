"""Tests for phase access classification."""

import numpy as np
import pytest

from repro.placement import PageMap
from repro.sim.classification import (
    block_transfer_fractions,
    classify_phase,
)
from repro.topology import POOL_LOCATION


class TestBlockTransferFractions:
    def test_matches_sharing_model(self, tiny_population):
        from repro.coherence import SharingModel

        fractions = block_transfer_fractions(tiny_population)
        model = SharingModel(coupling=tiny_population.profile.coupling)
        for page in (0, 100, 2000):
            expected = model.block_transfer_fraction(
                int(tiny_population.sharer_count[page]),
                float(tiny_population.write_fraction[page]),
            )
            assert fractions[page] == pytest.approx(expected)

    def test_private_pages_zero(self, tiny_population):
        fractions = block_transfer_fractions(tiny_population)
        private = tiny_population.sharer_count == 1
        assert (fractions[private] == 0).all()


class TestClassifyPhase:
    def classify(self, tiny_population, locations, counts):
        page_map = PageMap(np.asarray(locations, dtype=np.int16), 16, True)
        return classify_phase(counts, page_map, tiny_population)

    def test_conserves_accesses(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace, page_map,
                                        tiny_setup.population)
        reconstructed = (classification.demand.sum()
                         + classification.bt_socket.sum()
                         + classification.bt_pool.sum())
        assert reconstructed == pytest.approx(trace.total_accesses)
        assert classification.total_accesses == pytest.approx(
            trace.total_accesses
        )

    def test_pool_column_collects_pool_pages(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.full(trace.n_pages, POOL_LOCATION, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace, page_map,
                                        tiny_setup.population)
        assert classification.demand[:, :16].sum() == 0
        assert classification.demand_to_pool() > 0
        assert classification.bt_socket.sum() == 0

    def test_socket_homes_collect_bt(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace, page_map,
                                        tiny_setup.population)
        assert classification.bt_pool.sum() == 0
        assert classification.bt_socket.sum() > 0
        # All socket-homed transfers land in the home-0 column.
        assert classification.bt_socket[:, 1:].sum() == 0

    def test_writes_bounded_by_demand(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace, page_map,
                                        tiny_setup.population)
        assert (classification.demand_writes
                <= classification.demand + 1e-9).all()

    def test_pool_owner_load_conserved(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.full(trace.n_pages, POOL_LOCATION, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace, page_map,
                                        tiny_setup.population)
        assert classification.bt_pool_owner.sum() == pytest.approx(
            classification.bt_pool.sum()
        )

    def test_rejects_mismatched_map(self, tiny_setup):
        trace = tiny_setup.traces[0]
        page_map = PageMap(np.zeros(10, dtype=np.int16), 16, True)
        with pytest.raises(ValueError):
            classify_phase(trace, page_map, tiny_setup.population)
