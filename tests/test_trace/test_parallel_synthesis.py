"""Step A on threads: the same traces as on one CPU, and no thread left.

``TraceSynthesizer.synthesize`` draws a set-up's phases on
``min(n_phases, usable CPUs)`` threads. Each phase reads only its own
generators, so the traces must equal the one-CPU traces bit for bit
(``os.sched_getaffinity`` is patched to one CPU for the reference, and
to four for the threaded side, so helpers run even on a small host).
Sweeps fork right after set-up, so no helper may outlive the call,
also when a phase raises or a ``SIGALRM`` handler raises in the
calling thread; inside a ``multiprocessing`` child the draw stays on
the calling thread.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.trace import TraceSynthesizer
from repro.workloads import all_workloads, build_population

INT32_MAX = int(np.iinfo(np.int32).max)
N_PHASES = 5
THREADED_CPUS = 4


@contextlib.contextmanager
def usable_cpus(count):
    """``os.sched_getaffinity`` reports ``count`` CPUs while open."""
    with mock.patch.object(os, "sched_getaffinity",
                           return_value=set(range(count))):
        yield


def one_cpu_traces(synthesizer, n_phases):
    with usable_cpus(1):
        return synthesizer.synthesize(n_phases)


def assert_same_traces(got, want):
    assert [trace.phase for trace in got] == [trace.phase for trace in want]
    for trace, reference in zip(got, want):
        assert trace.index is reference.index
        assert trace.instructions_per_thread \
            == reference.instructions_per_thread
        assert trace.values.dtype == reference.values.dtype
        assert np.array_equal(trace.values, reference.values)


@contextlib.contextmanager
def recording_draws(fail_phase=None, delay=0.0):
    """Record ``(phase, thread)`` of each draw; optionally fail or stall."""
    original = TraceSynthesizer._draw
    calls = []

    def draw(self, phase, scratch, **kwargs):
        calls.append((phase, threading.current_thread()))
        if phase == fail_phase:
            raise RuntimeError(f"phase {phase} failed")
        time.sleep(delay)
        return original(self, phase, scratch, **kwargs)

    with mock.patch.object(TraceSynthesizer, "_draw", draw):
        yield calls


def without_drift(population):
    profile = dataclasses.replace(population.profile, drift_sigma=0.0)
    return dataclasses.replace(population, profile=profile)


@pytest.mark.parametrize("n_sockets", [16, 32])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload",
                         [profile.name for profile in all_workloads()])
def test_threads_draw_the_one_cpu_traces(workload, seed, n_sockets):
    profile = next(p for p in all_workloads() if p.name == workload)
    population = build_population(profile, n_sockets=n_sockets,
                                  sockets_per_chassis=4, seed=seed)
    for drift in (True, False):
        synthesizer = TraceSynthesizer(
            population if drift else without_drift(population),
            threads_per_socket=8, instructions_per_thread=2_000_000,
            seed=seed)
        want = one_cpu_traces(synthesizer, N_PHASES)
        with usable_cpus(THREADED_CPUS):
            got = synthesizer.synthesize(N_PHASES)
        assert_same_traces(got, want)
        assert_same_traces(
            [synthesizer.synthesize_phase(phase)
             for phase in range(N_PHASES)], want)


class TestThreads:
    @pytest.fixture
    def synthesizer(self, tiny_population):
        return TraceSynthesizer(tiny_population, threads_per_socket=4,
                                instructions_per_thread=1_000_000, seed=9)

    def test_helpers_draw_and_are_gone_after_return(self, synthesizer):
        before = threading.active_count()
        with usable_cpus(THREADED_CPUS), recording_draws() as calls:
            traces = synthesizer.synthesize(8)
        assert threading.active_count() == before
        assert sorted(phase for phase, _ in calls) == list(range(8))
        threads = {thread for _, thread in calls}
        assert threading.main_thread() in threads
        assert len(threads) > 1
        assert [trace.phase for trace in traces] == list(range(8))

    def test_thread_count_follows_cpus_and_phases(self, synthesizer):
        with usable_cpus(THREADED_CPUS), recording_draws() as calls:
            synthesizer.synthesize(2)
        assert len({thread for _, thread in calls}) <= 2
        with usable_cpus(1), recording_draws() as calls:
            synthesizer.synthesize(6)
        assert {thread for _, thread in calls} == {threading.main_thread()}

    @pytest.mark.parametrize("fail_phase", [0, 3, 7])
    def test_raising_phase_propagates_and_leaves_no_thread(
            self, synthesizer, fail_phase):
        before = threading.active_count()
        with usable_cpus(THREADED_CPUS), \
                recording_draws(fail_phase=fail_phase):
            with pytest.raises(RuntimeError,
                               match=f"phase {fail_phase} failed"):
                synthesizer.synthesize(8)
        assert threading.active_count() == before

    def test_alarm_in_calling_thread_leaves_no_thread(self, synthesizer):
        class Timeout(Exception):
            pass

        def on_alarm(signum, frame):
            raise Timeout()

        before = threading.active_count()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            with usable_cpus(THREADED_CPUS), \
                    recording_draws(delay=0.5) as calls:
                signal.setitimer(signal.ITIMER_REAL, 0.1)
                with pytest.raises(Timeout):
                    synthesizer.synthesize(12)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert threading.active_count() == before
        # The alarm stopped the hand-out: not every phase was drawn.
        assert len(calls) < 12

    def test_pool_worker_draws_on_its_calling_thread(self, synthesizer):
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            with usable_cpus(THREADED_CPUS), recording_draws() as calls:
                traces = synthesizer.synthesize(6)
            send.send(([phase for phase, _ in calls],
                       all(thread is threading.main_thread()
                           for _, thread in calls),
                       [trace.values.tobytes() for trace in traces]))

        process = context.Process(target=child)
        process.start()
        assert receive.poll(60)
        phases, on_calling_thread, values = receive.recv()
        process.join(30)
        assert not process.is_alive()
        assert process.exitcode == 0
        assert phases == list(range(6))
        assert on_calling_thread
        want = one_cpu_traces(synthesizer, 6)
        assert values == [trace.values.tobytes() for trace in want]


def test_counts_past_int32_keep_their_own_int64_values(tiny_population):
    # Lift the per-socket access cap so single cells exceed int32; the
    # int64 values must be each phase's own, not a reused draw buffer.
    synthesizer = TraceSynthesizer(
        tiny_population, threads_per_socket=64,
        instructions_per_thread=10**12, seed=1,
        accesses_cap_per_socket=10**15)
    with usable_cpus(THREADED_CPUS):
        traces = synthesizer.synthesize(N_PHASES)
    for trace in traces:
        assert trace.values.dtype == np.int64
        assert int(trace.values.max()) > INT32_MAX
    for first, second in zip(traces, traces[1:]):
        assert not np.shares_memory(first.values, second.values)
        assert not np.array_equal(first.values, second.values)
    assert_same_traces(traces, one_cpu_traces(synthesizer, N_PHASES))
    for trace in traces:
        want = synthesizer.synthesize_phase(trace.phase)
        assert np.array_equal(trace.values, want.values)
