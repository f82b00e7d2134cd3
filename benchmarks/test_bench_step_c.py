"""Step C bookkeeping: the array passes vs the per-cell and per-hop loops.

Times the per-phase bookkeeping around Step C's solve over every fig8
checkpoint (seed 3, the 8 workloads' 12 phases, for each of the
baseline, T16 and T0 systems) twice: as the program runs it, and with
the loops kept in ``tests/test_sim/scalar_oracle.py``. One round does,
per phase:

* the access breakdown (one ``bincount`` vs one ``classify`` and
  ``AccessBreakdown.add`` per demand cell);
* the migration copy charge (one ``np.add.at`` vs one byte-vector add
  per hop per move);
* the moved pages' access sum that the stall estimate reads (integer
  entries vs a dense block of their columns).

Classifications, traces and batches are captured before the clock
starts; each round charges fresh zeroed byte vectors, also made outside
the clock.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_step_c.py \\
        --benchmark-json bench-step-c.json
"""

import time

import numpy as np
import pytest

from repro.config import TrackerKind
from repro.experiments import ExperimentContext
from repro.interconnect import LinkLoads
from repro.sim import Simulator
from tests.test_sim import scalar_oracle
from tests.test_sim.test_step_c_bookkeeping import breakdown_bits

SEED = 3
ROUNDS = 5
SYSTEMS = ("baseline", "T16", "T0")


@pytest.fixture(scope="module")
def phases():
    """Per system: [(model, trace, classification, batch)] of fig8."""
    context = ExperimentContext(seed=SEED)
    systems = {
        "baseline": context.baseline_system(),
        "T16": context.starnuma_system(tracker=TrackerKind.T16),
        "T0": context.starnuma_system(tracker=TrackerKind.T0),
    }
    cases = {label: [] for label in SYSTEMS}
    for workload in context.workload_names:
        setup = context.setup(workload)
        for label, system in systems.items():
            simulator = Simulator(system, setup)
            model = simulator.timing
            for trace, checkpoint in zip(setup.traces,
                                         simulator.checkpoints()):
                cases[label].append((
                    model, trace,
                    model.classify(trace, checkpoint.page_map,
                                   checkpoint.classifications),
                    checkpoint.batch))
    return cases


def fresh(cases):
    """Zeroed byte vectors, one per phase, for a round to charge."""
    loads = [LinkLoads(model.topology, burstiness=model.settings.burstiness)
             for model, _, _, _ in cases]
    return (cases, loads), {}


def bookkeep_array(cases, loads):
    out = []
    for (model, trace, classification, batch), charged in zip(cases, loads):
        breakdown = model._breakdown(classification)
        moved = 0
        if batch is not None:
            model._charge_migrations(charged, batch)
            moved = trace.columns_total(batch.all_pages())
        out.append((breakdown, charged, moved))
    return out


def bookkeep_oracle(cases, loads):
    out = []
    for (model, trace, classification, batch), charged in zip(cases, loads):
        breakdown = scalar_oracle.breakdown(model, classification)
        moved = 0
        if batch is not None:
            scalar_oracle.charge_migrations(model, charged, batch)
            moved = int(trace.columns(batch.all_pages()).sum())
        out.append((breakdown, charged, moved))
    return out


def best_of(cases):
    """Best times of the array passes and the loops, in alternating rounds.

    Alternating keeps a slow spell of the host from landing on one side.
    """
    times = {bookkeep_array: [], bookkeep_oracle: []}
    for _ in range(ROUNDS):
        for function, samples in times.items():
            args, _ = fresh(cases)
            begun = time.perf_counter()
            function(*args)
            samples.append(time.perf_counter() - begun)
    return min(times[bookkeep_array]), min(times[bookkeep_oracle])


def bench(benchmark, function, cases):
    function(*fresh(cases)[0])
    results = benchmark.pedantic(function, setup=lambda: fresh(cases),
                                 rounds=ROUNDS)
    assert len(results) == len(cases)


@pytest.mark.parametrize("system", SYSTEMS)
def test_bench_step_c_array(phases, system, benchmark):
    bench(benchmark, bookkeep_array, phases[system])


@pytest.mark.parametrize("system", SYSTEMS)
def test_bench_step_c_oracle(phases, system, benchmark):
    bench(benchmark, bookkeep_oracle, phases[system])


@pytest.mark.parametrize("system", SYSTEMS)
def test_array_faster_and_identical(phases, system):
    """The pair books the same bits, and the array passes are faster."""
    cases = phases[system]
    got = bookkeep_array(*fresh(cases)[0])
    want = bookkeep_oracle(*fresh(cases)[0])
    for (breakdown, loads, moved), (oracle_breakdown, oracle_loads,
                                     oracle_moved) in zip(got, want):
        assert breakdown_bits(breakdown) == breakdown_bits(oracle_breakdown)
        assert np.array_equal(loads.bytes_vector, oracle_loads.bytes_vector)
        assert moved == oracle_moved
    array, oracle = best_of(cases)
    print(f"\n{system}: array {array:.4f} s, oracle {oracle:.4f} s "
          f"per {len(cases)} phases ({oracle / array:.2f}x)")
    assert array < oracle
