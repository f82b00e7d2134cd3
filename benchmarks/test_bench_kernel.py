"""Microbenchmarks of the phase timing kernel.

Unlike the figure benchmarks, these measure the kernel itself -- one
phase evaluation at a pinned IPC (a single utilization -> waiting-time
-> AMAT pass) and the full damped fixed point -- with trace synthesis,
calibration, and Step B excluded. Run with ``--benchmark-json`` to feed
the CI perf-smoke artifact::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py \
        --benchmark-json bench-kernel.json
"""

import pytest

from repro.config import starnuma_config
from repro.placement import first_touch_placement
from repro.sim import SimulationSetup, Simulator
from repro.sim.timing import FixedPointSettings, PhaseTimingModel
from repro.workloads import WORKLOADS


@pytest.fixture(scope="module")
def world():
    """One StarNUMA phase ready to evaluate: model, trace, map, fit."""
    star = starnuma_config()
    setup = SimulationSetup.create(WORKLOADS["sssp"], star, n_phases=3,
                                   seed=1)
    simulator = Simulator(star, setup)
    calibration = simulator.calibrate()
    page_map = first_touch_placement(setup.population.sharer_mask,
                                     star.n_sockets, has_pool=True)
    model = PhaseTimingModel(star, simulator.topology, simulator.routes,
                             setup.population, FixedPointSettings())
    return model, setup, calibration, page_map


def test_bench_single_evaluate(world, benchmark):
    model, setup, calibration, page_map = world
    trace = setup.traces[1]
    pinned = setup.population.profile.ipc_16
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration,
                               fixed_ipc=pinned)
    )
    assert timing.amat_ns > 0


def test_bench_fixed_point(world, benchmark):
    model, setup, calibration, page_map = world
    trace = setup.traces[1]
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged
