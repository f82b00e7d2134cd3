"""One compiled kernel per route table, shared by every model on it."""

import gc
import weakref

import pytest

from repro.config import TrackerKind, baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.obs import OBS, MemorySink, shutdown
from repro.sim import SimulationSetup, Simulator, timing
from repro.topology import RouteTable, Topology
from repro.workloads import WORKLOADS


@pytest.fixture(scope="module")
def world():
    base = baseline_config()
    setup = SimulationSetup.create(WORKLOADS["sssp"], base,
                                   n_phases=3, seed=7)
    calibration = Simulator(base, setup).calibrate()
    return base, setup, calibration


def compiled(records):
    metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
    assert "sim.kernel.compile_cache_hit" not in metrics
    return metrics.get("sim.kernel.compiled", {}).get("value", 0)


class TestCompileCache:
    def test_identical_tables_share_a_kernel(self, world):
        base, setup, _ = world
        first = Simulator(base, setup)
        second = Simulator(base, setup)
        assert (first.timing._vector_kernel()
                is second.timing._vector_kernel())

    def test_t16_and_t0_share_geometry_and_kernel(self, world):
        _, setup, _ = world
        t16 = Simulator(starnuma_config(tracker=TrackerKind.T16), setup)
        t0 = Simulator(starnuma_config(tracker=TrackerKind.T0), setup)
        assert t16.system != t0.system
        assert t0.topology is t16.topology
        assert t0.routes is t16.routes
        assert t0.timing is not t16.timing
        assert t0.timing._vector_kernel() is t16.timing._vector_kernel()

    def test_two_runs_compile_one_kernel(self, world):
        base, setup, calibration = world
        timing._GEOMETRY_CACHE.clear()
        records = []
        OBS.configure(MemorySink(records))
        try:
            Simulator(base, setup).run(calibration=calibration,
                                       warmup_phases=1)
            Simulator(base, setup).run(calibration=calibration,
                                       warmup_phases=1)
        finally:
            shutdown()
        assert compiled(records) == 1

    def test_faulted_states_compile_once_per_distinct_table(self, world):
        """A fault state compiles one kernel, shared by two simulators."""
        base, setup, calibration = world
        star = starnuma_config()
        star_setup = SimulationSetup.create(WORKLOADS["sssp"], base,
                                            n_phases=3, seed=7)
        faults = [
            FaultEvent(FaultKind.POOL_DEGRADE, phase=1,
                       capacity_factor=0.5, latency_factor=2.0),
        ]
        timing._GEOMETRY_CACHE.clear()
        records = []
        simulators = []
        OBS.configure(MemorySink(records))
        try:
            for _ in range(2):
                simulator = Simulator(star, star_setup,
                                      faults=FaultSchedule(list(faults)))
                simulator.run(calibration=calibration, warmup_phases=1)
                simulators.append(simulator)
        finally:
            shutdown()
        # One clean kernel + one degraded kernel, compiled exactly once.
        assert compiled(records) == 2
        first, second = (simulator._phase_timing_model(1)
                         for simulator in simulators)
        assert first is not second
        assert first.routes is second.routes
        assert first._vector_kernel() is second._vector_kernel()
        assert (first._vector_kernel()
                is not simulators[0].timing._vector_kernel())

    def test_kernel_is_freed_with_its_table(self):
        routes = RouteTable(Topology(starnuma_config()))
        kernel = weakref.ref(timing._kernel_of(routes))
        assert routes in timing._KERNELS
        assert timing._kernel_of(routes) is kernel()
        held = len(timing._KERNELS)
        del routes
        gc.collect()
        assert kernel() is None
        assert len(timing._KERNELS) == held - 1
