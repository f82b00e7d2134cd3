"""Integration of replication with classification and timing."""

import numpy as np
import pytest

from repro.placement import PageMap
from repro.replication import ReplicationPlan
from repro.sim.classification import classify_phase


@pytest.fixture
def world(tiny_setup):
    trace = tiny_setup.traces[0]
    locations = np.zeros(trace.n_pages, dtype=np.int16)
    page_map = PageMap(locations, 16, True)
    return tiny_setup, trace, page_map


class TestClassificationWithReplication:
    def full_plan(self, population, penalty=2000.0):
        return ReplicationPlan(
            replicated=np.ones(population.n_pages, dtype=bool),
            extra_copies=0, write_penalty_ns=penalty,
        )

    def test_all_replicated_means_all_local(self, world):
        setup, trace, page_map = world
        plan = self.full_plan(setup.population)
        classification = classify_phase(trace, page_map,
                                        setup.population, plan)
        demand = classification.demand
        off_diagonal = demand.sum() - np.trace(demand[:, :16])
        assert off_diagonal == pytest.approx(0.0)
        assert classification.bt_socket.sum() == 0
        assert classification.bt_pool.sum() == 0

    def test_total_accesses_preserved(self, world):
        setup, trace, page_map = world
        plan = self.full_plan(setup.population)
        classification = classify_phase(trace, page_map,
                                        setup.population, plan)
        assert classification.total_accesses == pytest.approx(
            float(trace.total_accesses)
        )

    def test_replicated_writes_counted(self, world):
        setup, trace, page_map = world
        plan = self.full_plan(setup.population)
        classification = classify_phase(trace, page_map,
                                        setup.population, plan)
        expected = float(
            (trace.dense() * setup.population.write_fraction[None, :]).sum()
        )
        assert classification.replicated_writes == pytest.approx(
            expected, rel=1e-6
        )

    def test_partial_plan_splits(self, world):
        setup, trace, page_map = world
        mask = np.zeros(setup.population.n_pages, dtype=bool)
        mask[::2] = True
        plan = ReplicationPlan(replicated=mask, extra_copies=0)
        classification = classify_phase(trace, page_map,
                                        setup.population, plan)
        bare = classify_phase(trace, page_map, setup.population)
        assert classification.total_accesses == pytest.approx(
            bare.total_accesses
        )
        assert classification.bt_socket.sum() < bare.bt_socket.sum()

    def test_plan_size_mismatch_rejected(self, world):
        setup, trace, page_map = world
        plan = ReplicationPlan(replicated=np.zeros(7, dtype=bool),
                               extra_copies=0)
        with pytest.raises(ValueError):
            classify_phase(trace, page_map, setup.population, plan)


class TestEndToEnd:
    def test_write_penalty_hurts_read_write_workload(self, tiny_setup,
                                                     base_system):
        from repro.sim import Simulator

        population = tiny_setup.population
        plan = ReplicationPlan(
            replicated=np.ones(population.n_pages, dtype=bool),
            extra_copies=0, write_penalty_ns=5000.0,
        )
        plain = Simulator(base_system, tiny_setup)
        calibration = plain.calibrate()
        bare = plain.run(calibration=calibration, warmup_phases=1)
        replicated = Simulator(base_system, tiny_setup,
                               replication=plan).run(
            calibration=calibration, warmup_phases=1
        )
        # The tiny profile writes ~27% of accesses: software coherence
        # swamps the locality gain.
        assert replicated.amat_ns > bare.amat_ns

    def test_free_replication_of_reads_helps(self, tiny_setup, base_system):
        from repro.sim import Simulator

        population = tiny_setup.population
        plan = ReplicationPlan(
            replicated=np.ones(population.n_pages, dtype=bool),
            extra_copies=0, write_penalty_ns=0.0,
        )
        plain = Simulator(base_system, tiny_setup)
        calibration = plain.calibrate()
        bare = plain.run(calibration=calibration, warmup_phases=1)
        replicated = Simulator(base_system, tiny_setup,
                               replication=plan).run(
            calibration=calibration, warmup_phases=1
        )
        assert replicated.amat_ns < bare.amat_ns
