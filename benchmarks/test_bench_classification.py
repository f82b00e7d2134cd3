"""Step C classification: sparse (COO) phases vs the dense oracle.

Times ``classify_phase`` over the phases a fig8 sweep classifies for
one workload (seed 3, 12 phases under each of the baseline, StarNUMA
T16 and StarNUMA T0 checkpoints' page maps; the StarNUMA maps hold
pool pages, which exercise the owner matmul) twice: as the program
runs it, over the values at the population's sharer cells, and with
the dense oracle (``tests/test_sim/classification_oracle.py``) over
the full ``(n_sockets, n_pages)`` matrix. Both sides are warm: the
population caches of each are built before the clock starts, and the
oracle's dense matrices are made outside it.

Masstree is the densest population (sharer cells cover 0.91 of the
matrix), where sparse storage has the least to skip; poa the sparsest
(0.06). The sparse path must be no slower on either.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_classification.py \\
        --benchmark-json bench-classification.json
"""

import time

import numpy as np
import pytest

from repro.config import TrackerKind, baseline_config, starnuma_config
from repro.experiments import ExperimentContext
from repro.sim import Simulator
from repro.sim.classification import classify_phase
from tests.test_sim import classification_oracle

SEED = 3
ROUNDS = 5
WORKLOADS = ("masstree", "poa")


#: fig8's three systems; each makes its own Step B decisions.
SYSTEMS = (baseline_config(), starnuma_config(tracker=TrackerKind.T16),
           starnuma_config(tracker=TrackerKind.T0))


@pytest.fixture(scope="module")
def phases():
    """Per workload: (population, [(trace, dense counts, page map)])."""
    context = ExperimentContext(seed=SEED, workloads=list(WORKLOADS))
    cases = {}
    for workload in WORKLOADS:
        setup = context.setup(workload)
        cases[workload] = (setup.population, [
            (trace, trace.dense(), checkpoint.page_map)
            for system in SYSTEMS
            for trace, checkpoint in zip(
                setup.traces, Simulator(system, setup).checkpoints())])
    return cases


def classify_sparse(population, cases):
    return [classify_phase(trace, page_map, population)
            for trace, _, page_map in cases]


def classify_dense(population, cases):
    return [classification_oracle.classify_phase(counts, page_map,
                                                 population)
            for _, counts, page_map in cases]


def best_of(function, *args):
    function(*args)  # warm the population caches
    times = []
    for _ in range(ROUNDS):
        begun = time.perf_counter()
        function(*args)
        times.append(time.perf_counter() - begun)
    return min(times)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_classification_sparse(phases, workload, benchmark):
    population, cases = phases[workload]
    classify_sparse(population, cases)
    results = benchmark.pedantic(classify_sparse, (population, cases),
                                 rounds=ROUNDS)
    assert len(results) == len(cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_classification_oracle(phases, workload, benchmark):
    population, cases = phases[workload]
    classify_dense(population, cases)
    results = benchmark.pedantic(classify_dense, (population, cases),
                                 rounds=ROUNDS)
    assert len(results) == len(cases)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sparse_no_slower_and_identical(phases, workload):
    """The pair computes the same bits, and sparse is no slower."""
    population, cases = phases[workload]
    for got, want in zip(classify_sparse(population, cases),
                         classify_dense(population, cases)):
        for name in ("demand", "demand_writes", "bt_socket", "bt_pool",
                     "bt_pool_owner"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    sparse = best_of(classify_sparse, population, cases)
    dense = best_of(classify_dense, population, cases)
    print(f"\n{workload}: sparse {sparse:.4f} s, dense {dense:.4f} s "
          f"per {len(cases)} phases ({dense / sparse:.2f}x)")
    assert sparse <= dense
