"""Golden equivalence of the timing model and its scalar oracle.

The program's Step C (route-incidence matrices, whole-vector M/D/1, the
stacked fixed point) must be numerically indistinguishable from the
per-route Python reference in :mod:`tests.test_sim.scalar_oracle`: same
AMAT, same IPC, same per-link utilizations, on every workload, on both
systems, and under faults (each fault state compiles its own incidence
against its rerouted table).
"""

import numpy as np
import pytest

from repro.config import baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.placement import first_touch_placement
from repro.sim import SimulationSetup, Simulator
from repro.sim.classification import classify_phase
from repro.topology import POOL_LOCATION
from repro.workloads import WORKLOADS
from tests.test_sim import scalar_oracle

RTOL = 1e-9

ALL_WORKLOADS = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def systems():
    return baseline_config(), starnuma_config()


@pytest.fixture(scope="module")
def worlds(systems):
    """One setup + shared calibration per workload (scalar reference)."""
    base, _ = systems
    out = {}
    for name in ALL_WORKLOADS:
        setup = SimulationSetup.create(WORKLOADS[name], base,
                                       n_phases=3, seed=7)
        calibration = scalar_oracle.calibrate(Simulator(base, setup))
        out[name] = (setup, calibration)
    return out


def assert_phases_match(scalar_result, vector_result):
    assert len(scalar_result.phases) == len(vector_result.phases)
    for ps, pv in zip(scalar_result.phases, vector_result.phases):
        assert pv.ipc == pytest.approx(ps.ipc, rel=RTOL)
        assert pv.amat_ns == pytest.approx(ps.amat_ns, rel=RTOL)
        assert pv.unloaded_amat_ns == pytest.approx(ps.unloaded_amat_ns,
                                                    rel=RTOL)
        assert pv.duration_ns == pytest.approx(ps.duration_ns, rel=RTOL)


def run_both(system, setup, calibration, faults=None, mode="dynamic"):
    scalar = scalar_oracle.run(
        Simulator(system, setup,
                  faults=FaultSchedule(list(faults)) if faults else None),
        calibration=calibration, mode=mode, warmup_phases=1,
    )
    vector = Simulator(
        system, setup,
        faults=FaultSchedule(list(faults)) if faults else None,
    ).run(calibration=calibration, mode=mode, warmup_phases=1)
    return scalar, vector


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_baseline(self, name, systems, worlds):
        base, _ = systems
        setup, calibration = worlds[name]
        scalar, vector = run_both(base, setup, calibration)
        assert_phases_match(scalar, vector)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_starnuma(self, name, systems, worlds):
        _, star = systems
        setup, calibration = worlds[name]
        scalar, vector = run_both(star, setup, calibration)
        assert_phases_match(scalar, vector)


class TestFaultedEquivalence:
    """A faulted run forces per-fault-state kernels to recompile."""

    FAULTS = (
        FaultEvent(FaultKind.LINK_FAIL, phase=1, link_id="upi:s0-s1"),
        FaultEvent(FaultKind.POOL_DEGRADE, phase=2,
                   capacity_factor=0.5, latency_factor=2.0),
    )

    def test_faulted_starnuma(self, systems, worlds):
        _, star = systems
        setup, calibration = worlds["sssp"]
        scalar, vector = run_both(star, setup, calibration,
                                  faults=self.FAULTS)
        assert_phases_match(scalar, vector)


class TestLinkLoadEquivalence:
    """Every charged link direction, not just the reported top-3."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_per_link_utilizations(self, name, systems, worlds):
        _, star = systems
        setup, _ = worlds[name]
        population = setup.population
        page_map = first_touch_placement(population.sharer_mask,
                                         star.n_sockets, has_pool=True)
        # Home a slice of pages at the pool so pool demand, pool-homed
        # block transfers, and tracker charges are all exercised.
        page_map.move(np.arange(0, population.n_pages, 7), POOL_LOCATION)

        model = Simulator(star, setup).timing
        classification = classify_phase(setup.traces[1], page_map,
                                        population)
        loads = {
            "scalar": scalar_oracle.build_loads(model, classification),
            "vector": model._build_loads(classification, batch=None),
        }
        scalar_bytes = loads["scalar"].bytes_vector
        vector_bytes = loads["vector"].bytes_vector
        np.testing.assert_allclose(vector_bytes, scalar_bytes, rtol=RTOL)

        window_ns = 1e6
        np.testing.assert_allclose(
            loads["vector"].utilization_vector(window_ns),
            loads["scalar"].utilization_vector(window_ns),
            rtol=RTOL,
        )
        np.testing.assert_allclose(
            loads["vector"].wait_ns_vector(window_ns),
            loads["scalar"].wait_ns_vector(window_ns),
            rtol=RTOL,
        )

