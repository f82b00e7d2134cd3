"""Microbenchmark of instrumentation overhead on the timing kernel.

Measures the full damped fixed point (the hottest instrumented path)
three ways: obs disabled (the default -- every call site is one
attribute load and a branch), obs armed to a :class:`NullSink`
(records are built and discarded), and obs armed at ``detail`` level
to a memory sink. ``docs/observability.md`` quotes the disabled and
null-sink numbers; the acceptance bar is null-sink overhead within a
few percent of the uninstrumented fixed point.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py \
        --benchmark-json bench-obs.json
"""

import pytest

from repro.config import starnuma_config
from repro.obs import OBS, MemorySink, NullSink, shutdown
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
    return model, setup.traces[1], page_map, calibration


@pytest.fixture(autouse=True)
def disarm():
    shutdown()
    yield
    shutdown()


def test_bench_fixed_point_obs_disabled(world, benchmark):
    model, trace, page_map, calibration = world
    assert not OBS.enabled
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged


def test_bench_fixed_point_obs_null_sink(world, benchmark):
    model, trace, page_map, calibration = world
    OBS.configure(NullSink())
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged


def test_bench_fixed_point_obs_detail_memory(world, benchmark):
    model, trace, page_map, calibration = world
    OBS.configure(MemorySink(), level="detail")
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged
