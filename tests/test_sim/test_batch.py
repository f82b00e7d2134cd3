"""Whole-run golden equivalence of :meth:`Simulator.run`.

Every run of a (workload, system) pair -- result assembly and migration
totals included -- must be indistinguishable from the scalar reference
(:mod:`tests.test_sim.scalar_oracle`): within 1e-9 rel on every
workload, on both systems and under faults. The ``driver`` parameter
names the Step C driver under test; ``solo`` is the one-lane
``Simulator.run``, the only driver.
"""

import pytest

from repro.config import baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import SimulationSetup, Simulator
from repro.workloads import WORKLOADS
from tests.test_sim import scalar_oracle

RTOL = 1e-9

ALL_WORKLOADS = sorted(WORKLOADS)

FAULTS = (
    FaultEvent(FaultKind.LINK_FAIL, phase=1, link_id="upi:s0-s1"),
    FaultEvent(FaultKind.POOL_DEGRADE, phase=2,
               capacity_factor=0.5, latency_factor=2.0),
)


@pytest.fixture(scope="module")
def systems():
    return baseline_config(), starnuma_config()


@pytest.fixture(scope="module")
def worlds(systems):
    """One setup + calibration per workload (scalar reference)."""
    base, _ = systems
    out = {}
    for name in ALL_WORKLOADS:
        setup = SimulationSetup.create(WORKLOADS[name], base,
                                       n_phases=3, seed=7)
        calibration = scalar_oracle.calibrate(Simulator(base, setup))
        out[name] = (setup, calibration)
    return out


def simulator(system, setup, faults=None):
    return Simulator(system, setup,
                     faults=FaultSchedule(list(faults)) if faults else None)


def solo_run(system, setup, calibration, faults=None):
    return simulator(system, setup, faults).run(calibration=calibration,
                                                warmup_phases=1)


def oracle_run(system, setup, calibration, faults=None):
    return scalar_oracle.run(simulator(system, setup, faults),
                             calibration=calibration, warmup_phases=1)


def assert_close(reference, candidate, rtol=RTOL):
    assert len(reference.phases) == len(candidate.phases)
    for pr, pc in zip(reference.phases, candidate.phases):
        assert pc.ipc == pytest.approx(pr.ipc, rel=rtol)
        assert pc.amat_ns == pytest.approx(pr.amat_ns, rel=rtol)
        assert pc.unloaded_amat_ns == pytest.approx(pr.unloaded_amat_ns,
                                                    rel=rtol)
        assert pc.duration_ns == pytest.approx(pr.duration_ns, rel=rtol)


DRIVERS = {"solo": solo_run}


def drive(driver, lanes, calibration):
    """Run each ``(system, setup, faults)`` lane through ``driver``."""
    run = DRIVERS[driver]
    return [run(system, setup, calibration, faults)
            for system, setup, faults in lanes]


class TestGoldenEquivalence:
    """Simulator.run vs the scalar oracle, <= 1e-9."""

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_whole_grid(self, name, driver, systems, worlds):
        setup, calibration = worlds[name]
        lanes = [(system, setup, None) for system in systems]
        for (system, _, _), result in zip(lanes, drive(driver, lanes,
                                                       calibration)):
            assert_close(oracle_run(system, setup, calibration), result)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_faulted_schedule(self, driver, systems, worlds):
        base, star = systems
        setup, calibration = worlds["sssp"]
        faulted, clean = drive(driver, [(star, setup, FAULTS),
                                        (base, setup, None)], calibration)
        assert_close(oracle_run(star, setup, calibration, faults=FAULTS),
                     faulted)
        assert_close(oracle_run(base, setup, calibration), clean)


class TestGrouping:
    """Checks on what Simulator.run is given."""

    def test_closed_loop_needs_calibration(self, systems, worlds):
        base, _ = systems
        setup, _ = worlds["sssp"]
        with pytest.raises(ValueError, match="calibration"):
            Simulator(base, setup).run()
