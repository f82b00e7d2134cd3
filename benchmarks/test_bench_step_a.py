"""Step A on every usable CPU: set-up with phases on threads vs one CPU.

Times ``SimulationSetup.create`` (population build, then 12 phases of
trace synthesis) for the 8 workloads at seed 3 on the baseline system,
as ``ExperimentContext.setup`` calls it, twice: as the program runs it,
drawing the phases on ``min(12, usable CPUs)`` threads, and with
``os.sched_getaffinity`` patched to report one CPU, which draws them
all on the calling thread. The two must give the same traces bit for
bit; on a host with more than one usable CPU the threaded side must
also be faster.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_step_a.py \\
        --benchmark-json bench-step-a.json
"""

import contextlib
import os
import time

import numpy as np
import pytest

from repro.experiments import ExperimentContext
from repro.sim import SimulationSetup
from tests.test_trace.test_parallel_synthesis import usable_cpus

SEED = 3
ROUNDS = 3
MODES = ("threaded", "one-cpu")


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(seed=SEED)


def cpus(mode):
    return usable_cpus(1) if mode == "one-cpu" else contextlib.nullcontext()


def set_up_all(context):
    return [SimulationSetup.create(context.profile(workload),
                                   context.baseline_system(),
                                   n_phases=context.n_phases, seed=SEED)
            for workload in context.workload_names]


def best_of(context):
    """Best set-up time of each mode, in alternating rounds.

    Alternating keeps a slow spell of the host from landing on one side.
    """
    times = {mode: [] for mode in MODES}
    for _ in range(ROUNDS):
        for mode, samples in times.items():
            with cpus(mode):
                begun = time.perf_counter()
                set_up_all(context)
                samples.append(time.perf_counter() - begun)
    return min(times["threaded"]), min(times["one-cpu"])


@pytest.mark.parametrize("mode", MODES)
def test_bench_step_a(context, mode, benchmark):
    with cpus(mode):
        setups = benchmark.pedantic(set_up_all, args=(context,),
                                    rounds=ROUNDS)
    assert len(setups) == len(context.workload_names)


def test_threads_identical_and_faster(context):
    """Both modes draw the same traces; threads win given a second CPU."""
    with cpus("one-cpu"):
        want = set_up_all(context)
    got = set_up_all(context)
    for setup, reference in zip(got, want):
        for trace, expected in zip(setup.traces, reference.traces,
                                   strict=True):
            assert trace.values.dtype == expected.values.dtype
            assert np.array_equal(trace.values, expected.values)
    threaded, one_cpu = best_of(context)
    usable = len(os.sched_getaffinity(0))
    print(f"\n{usable} usable CPUs: threaded {threaded:.3f} s, one CPU "
          f"{one_cpu:.3f} s per {len(got)} set-ups "
          f"({one_cpu / threaded:.2f}x)")
    if usable > 1:
        assert threaded < one_cpu
