"""Sweep-level batching: stacked fixed point vs per-scenario solves.

The figure-8 grid is the motivating sweep: every workload under
StarNUMA, sharing one lane signature. The sequential reference solves
each scenario's phases as one-lane stacks of the same solver; the
batched run stacks all lanes into ``(lanes, width)`` arrays and drives
one masked fixed point per phase. Both sides consume the same
pre-built :class:`~repro.sim.timing.PhaseInputs`, so the pair isolates
what stacking buys in the solve stage. (End-to-end sweep
time is dominated by Step B and per-phase classification, which are
identical on both paths; the ``e2e`` pair below records that honestly,
starting every round from fresh setups so it times them cold.)

Run with ``--benchmark-json`` to feed the CI perf-smoke artifact::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep.py \
        --benchmark-json bench-sweep.json

The committed baseline lives at the repo root as ``BENCH_fig8.json``;
``benchmarks/compare_bench.py`` diffs a fresh run against it using
machine-normalized speedup ratios and fails on a >25% regression.
"""

import dataclasses

import pytest

from repro.config import starnuma_config
from repro.sim import SimulationSetup, Simulator
from repro.sim.batch import LaneSpec, plan_groups, run_lanes
from repro.sim.timing import _BatchedKernel
from repro.workloads import WORKLOADS

N_PHASES = 4


def build_specs(n_lanes):
    """``n_lanes`` compatible lanes: 8 workloads x replica seeds."""
    star = starnuma_config()
    names = sorted(WORKLOADS)[:8]
    combos = [(name, seed) for seed in (1, 2, 3, 4) for name in names]
    specs = []
    for name, seed in combos[:n_lanes]:
        setup = SimulationSetup.create(WORKLOADS[name], star,
                                       n_phases=N_PHASES, seed=seed)
        simulator = Simulator(star, setup)
        specs.append(LaneSpec(simulator=simulator,
                              calibration=simulator.calibrate(),
                              warmup_phases=1))
    assert len(plan_groups(specs, n_lanes)) == 1  # one shared stack
    return specs


def prepare(specs):
    """Per-lane timing models and phase inputs, built once outside timing."""
    models, inputs = [], []
    for spec in specs:
        simulator = spec.simulator
        checkpoints = simulator.checkpoints(spec.mode, spec.static_map)
        lane_models, lane_inputs = [], []
        for checkpoint, trace in zip(checkpoints, simulator.setup.traces):
            model = simulator._phase_timing_model(trace.phase)
            lane_inputs.append(model.phase_inputs(trace, checkpoint.page_map,
                                                  checkpoint.batch))
            lane_models.append(model)
        models.append(lane_models)
        inputs.append(lane_inputs)
    return models, inputs


def solve_sequential(specs, models, inputs):
    """One-lane solves per lane and phase, chaining IPC per lane."""
    settings = specs[0].simulator.timing.settings
    out = []
    for i, spec in enumerate(specs):
        previous = None
        for p in range(N_PHASES):
            lane = models[i][p].batched_lane(inputs[i][p], spec.calibration,
                                             initial_ipc=previous)
            (solution,) = _BatchedKernel([lane], settings).solve()
            previous = solution[0]
            out.append(solution[:3])
    return out


def solve_batched(specs, models, inputs):
    """One stacked masked fixed point per phase across all lanes."""
    settings = specs[0].simulator.timing.settings
    out = [[] for _ in specs]
    previous = [None] * len(specs)
    for p in range(N_PHASES):
        lanes = [models[i][p].batched_lane(inputs[i][p], spec.calibration,
                                           initial_ipc=previous[i])
                 for i, spec in enumerate(specs)]
        for i, solution in enumerate(_BatchedKernel(lanes,
                                                    settings).solve()):
            previous[i] = solution[0]
            out[i].append(solution[:3])
    return [item for lane in out for item in lane]


@pytest.fixture(scope="module", params=[8, 16, 32],
                ids=["8lanes", "16lanes", "32lanes"])
def sweep(request):
    specs = build_specs(request.param)
    models, inputs = prepare(specs)
    return specs, models, inputs


def test_bench_solve_sequential(sweep, benchmark):
    specs, models, inputs = sweep
    results = benchmark(lambda: solve_sequential(specs, models, inputs))
    assert len(results) == len(specs) * N_PHASES


def test_bench_solve_batched(sweep, benchmark):
    specs, models, inputs = sweep
    results = benchmark(lambda: solve_batched(specs, models, inputs))
    assert len(results) == len(specs) * N_PHASES


def test_solve_batched_matches_sequential(sweep):
    """The benchmark pair really computes the same sweep, bit for bit."""
    specs, models, inputs = sweep
    assert solve_batched(specs, models, inputs) \
        == solve_sequential(specs, models, inputs)


#: Rounds of each end-to-end case; every round starts cold.
E2E_ROUNDS = 5


@pytest.fixture(scope="module")
def e2e_specs():
    return build_specs(8)


def cold_specs(specs):
    """Copies of ``specs`` on fresh setups, so no round reads another's
    Step B or classifications (both are cached on the setup)."""
    return [LaneSpec(simulator=Simulator(spec.simulator.system,
                                         dataclasses.replace(
                                             spec.simulator.setup)),
                     calibration=spec.calibration,
                     warmup_phases=spec.warmup_phases)
            for spec in specs]


def bench_cold(benchmark, specs, run):
    """Time ``run`` on cold copies of ``specs``, built outside the timer."""
    return benchmark.pedantic(run, setup=lambda: ((cold_specs(specs),), {}),
                              rounds=E2E_ROUNDS)


def test_bench_e2e_sequential(e2e_specs, benchmark):
    results = bench_cold(benchmark, e2e_specs, lambda specs: [
        spec.simulator.run(calibration=spec.calibration,
                           warmup_phases=spec.warmup_phases)
        for spec in specs
    ])
    assert len(results) == 8


def test_bench_e2e_batched(e2e_specs, benchmark):
    results = bench_cold(benchmark, e2e_specs, run_lanes)
    assert len(results) == 8
