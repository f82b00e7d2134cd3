"""Baseline migration decisions: the array pass vs the per-candidate loop.

Times ``BaselinePolicy.decide`` over the phases a fig8 sweep decides
for one workload (seed 3, the 12 baseline Step B calls, each on its
checkpoint's page map) twice: as the program runs it, clear-winner
pages in bulk and only near-tied pages in order, and with the original
per-candidate loop (``tests/test_migration/baseline_oracle.py``). The
traces and page maps are captured before the clock starts; each round
decides on fresh copies of the maps, also made outside the clock.

Masstree has the most near-tied candidates of the pair, tc the fewest.
Both sides share the per-page reductions before the loop (totals,
peaks, home counts), so the ratio understates the loop's own speedup.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_baseline.py \\
        --benchmark-json bench-baseline.json
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.config import baseline_config
from repro.experiments import ExperimentContext
from repro.migration import BaselinePolicy
from repro.sim import Simulator
from tests.test_migration.baseline_oracle import OracleBaselinePolicy

SEED = 3
ROUNDS = 5
WORKLOADS = ("masstree", "tc")


@pytest.fixture(scope="module")
def streams():
    """Per workload: (scaled migration config, [(trace, page map)])."""
    context = ExperimentContext(seed=SEED, workloads=list(WORKLOADS))
    cases = {}
    for workload in WORKLOADS:
        setup = context.setup(workload)
        simulator = Simulator(baseline_config(), setup)
        config = dataclasses.replace(
            simulator.system.migration,
            migration_limit_pages=simulator.effective_migration_limit)
        cases[workload] = (config, [
            (trace, checkpoint.page_map)
            for trace, checkpoint in zip(setup.traces,
                                         simulator.checkpoints())])
    return cases


def fresh(cases):
    """The decide inputs, with page maps each call may mutate."""
    return ([(trace, page_map.copy()) for trace, page_map in cases],), {}


def decide_all(policy_class, config, inputs):
    batches = []
    for phase, (trace, page_map) in enumerate(inputs):
        policy = policy_class(config)
        policy.phases_run = phase
        batches.append((policy.decide(trace, page_map), page_map))
    return batches


def decide_array(config, inputs):
    return decide_all(BaselinePolicy, config, inputs)


def decide_oracle(config, inputs):
    return decide_all(OracleBaselinePolicy, config, inputs)


def best_of(config, cases):
    """Best times of the array pass and the oracle, in alternating rounds.

    Alternating keeps a slow spell of the host from landing on one side.
    """
    times = {decide_array: [], decide_oracle: []}
    for _ in range(ROUNDS):
        for function, samples in times.items():
            (inputs,), _ = fresh(cases)
            begun = time.perf_counter()
            function(config, inputs)
            samples.append(time.perf_counter() - begun)
    return min(times[decide_array]), min(times[decide_oracle])


def bench(benchmark, function, config, cases):
    function(config, fresh(cases)[0][0])
    results = benchmark.pedantic(
        lambda inputs: function(config, inputs),
        setup=lambda: fresh(cases), rounds=ROUNDS)
    assert len(results) == len(cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_baseline_array(streams, workload, benchmark):
    config, cases = streams[workload]
    bench(benchmark, decide_array, config, cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_baseline_oracle(streams, workload, benchmark):
    config, cases = streams[workload]
    bench(benchmark, decide_oracle, config, cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_array_faster_and_identical(streams, workload):
    """The pair makes the same moves, and the array pass is faster."""
    config, cases = streams[workload]
    got = decide_array(config, fresh(cases)[0][0])
    want = decide_oracle(config, fresh(cases)[0][0])
    for (batch, page_map), (oracle_batch, oracle_map) in zip(got, want):
        assert batch.phase == oracle_batch.phase
        assert [(move.source, move.destination, move.pages.tolist())
                for move in batch.moves] == [
            (move.source, move.destination, move.pages.tolist())
            for move in oracle_batch.moves]
        assert np.array_equal(page_map.locations, oracle_map.locations)
    array, oracle = best_of(config, cases)
    print(f"\n{workload}: array {array:.4f} s, oracle {oracle:.4f} s "
          f"per {len(cases)} phases ({oracle / array:.2f}x)")
    assert array < oracle
