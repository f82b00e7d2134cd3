"""Pool workers cap their BLAS threads at their share of the CPUs.

Every forked worker of :class:`repro.runner.supervisor.WorkerPool`,
replacements included, lowers OpenBLAS's thread count to
``max(1, usable CPUs // n_workers)`` and never raises it; the parent
keeps its own count. The helper that sets it is a no-op returning
``None`` when no setter is found.
"""

import ctypes.util
import os

import pytest

from repro.obs import OBS, MemorySink, shutdown
from repro.runner import SupervisionPolicy, SweepRunner, supervisor
from repro.runner.blas import (
    blas_threads,
    cap_blas_threads,
    set_blas_threads,
)

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"),
                       reason="supervised pool needs fork"),
    pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                       reason="the rule reads the affinity mask"),
    pytest.mark.skipif(blas_threads() is None,
                       reason="numpy's BLAS is not OpenBLAS"),
]

FAST_POLICY = SupervisionPolicy(heartbeat_timeout_s=5.0,
                                poll_interval_s=0.02)


def expected_share(n_workers):
    """The rule: a share of the usable CPUs, never above the parent's."""
    usable = len(os.sched_getaffinity(0))
    return min(blas_threads(), max(1, usable // n_workers))


def worker_counts(run_task, task_ids, jobs):
    runner = SweepRunner(run_task, jobs=jobs, policy=FAST_POLICY,
                         backoff_s=0.0)
    outcomes = runner.run(task_ids)
    assert all(outcome.succeeded for outcome in outcomes)
    return [outcome.payload for outcome in outcomes]


@pytest.mark.parametrize("jobs, n_tasks", [(2, 3), (3, 3), (4, 2)])
def test_workers_run_their_share(jobs, n_tasks):
    parent = blas_threads()
    counts = worker_counts(lambda task_id: blas_threads(),
                           [f"t{i}" for i in range(n_tasks)], jobs)
    # ``min(jobs, tasks)`` workers are forked.
    assert counts == [expected_share(min(jobs, n_tasks))] * n_tasks
    assert blas_threads() == parent


def test_replacement_worker_is_capped_too():
    def crash_once(task_id):
        if task_id == "crash" and supervisor.task_incarnation() == 0:
            os._exit(3)
        return blas_threads(), supervisor.task_incarnation()

    counts = worker_counts(crash_once, ["crash", "steady"], 2)
    assert counts == [(expected_share(2), 1), (expected_share(2), 0)]


def test_task_spans_record_the_count():
    records = []
    OBS.configure(MemorySink(records))
    try:
        SweepRunner(lambda task_id: None, jobs=2, policy=FAST_POLICY
                    ).run(["a", "b"])
        SweepRunner(lambda task_id: None).run(["c"])
    finally:
        shutdown()
    spans = {span["attrs"]["task"]: span["attrs"]["blas_threads"]
             for span in records if span.get("name") == "runner.task"}
    # Pool workers run their share; the sequential path, the parent's.
    assert spans == {"a": expected_share(2), "b": expected_share(2),
                     "c": blas_threads()}


def test_cap_never_raises_the_count():
    inherited = blas_threads()
    assert cap_blas_threads(inherited + 1) == inherited
    assert blas_threads() == inherited


def test_set_and_restore():
    inherited = blas_threads()
    try:
        assert set_blas_threads(1) == 1
        assert blas_threads() == 1
    finally:
        assert set_blas_threads(inherited) == inherited


def test_no_setter_found_is_a_no_op():
    inherited = blas_threads()
    libraries = [ctypes.util.find_library("c") or "libc.so.6",
                 "/nonexistent/libopenblas.so"]
    assert set_blas_threads(1, libraries=libraries) is None
    assert blas_threads(libraries=libraries) is None
    assert blas_threads() == inherited
