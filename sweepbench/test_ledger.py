"""Self-time accounting of the ledger on a toy call tree.

Run with: python3 -m pytest sweepbench/test_ledger.py -q
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Ledger, merge_workers  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def toy_tree(clock):
    """outer(1s) -> [inner(2s) -> leaf(3s)], leaf(4s); inner re-enters."""
    ledger = Ledger(clock=clock)

    def leaf(seconds):
        clock.spend(seconds)
        return seconds

    leaf = ledger.wrap("leaf", leaf)

    def inner(nested):
        clock.spend(2.0)
        if nested:
            inner(False)  # same layer: stays inside the open span
        return leaf(3.0)

    inner = ledger.wrap("inner", inner)

    def outer():
        clock.spend(1.0)
        inner(True)
        leaf(4.0)

    return ledger, ledger.wrap("outer", outer)


def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    ledger, outer = toy_tree(clock)
    outer()
    assert ledger.self_s == pytest.approx(
        {"outer": 1.0, "inner": 4.0, "leaf": 10.0})
    assert dict(ledger.calls) == {"outer": 1, "inner": 1, "leaf": 3}
    # The parts sum to the measured whole.
    assert sum(ledger.self_s.values()) == pytest.approx(clock.now)


def test_exception_still_closes_the_span():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def failing():
        clock.spend(2.0)
        raise ValueError("boom")

    failing = ledger.wrap("failing", failing)

    def caller():
        clock.spend(1.0)
        with pytest.raises(ValueError):
            failing()

    ledger.wrap("caller", caller)()
    assert ledger.self_s == pytest.approx({"caller": 1.0, "failing": 2.0})


def test_observer_counts_results():
    ledger = Ledger(clock=FakeClock())

    def count(book, result):
        book.counters["items"] += result
        book.digest("values", repr(result).encode())

    double = ledger.wrap("double", lambda value: 2 * value, observe=count)
    for value in (1, 2, 1):
        double(value)
    assert ledger.counters["items"] == 8
    assert len(ledger.digests["values"]) == 2


def test_fork_copy_is_cleared_and_dumped(tmp_path):
    clock = FakeClock()
    ledger, outer = toy_tree(clock)
    ledger.worker_dir = tmp_path
    outer()
    # Pretend this process is a forked worker holding the parent's copy.
    ledger.root_pid = ledger._pid = os.getpid() + 1
    outer()
    merged = merge_workers(tmp_path)
    assert merged["workers"] == 1
    # Only the second call tree: the parent's totals were dropped.
    assert merged["calls"] == {"outer": 1, "inner": 1, "leaf": 3}
    assert merged["self_s"]["leaf"] == pytest.approx(10.0)


def test_patch_and_restore():
    class Target:
        def work(self):
            return 3

    ledger = Ledger(clock=FakeClock())
    original = Target.__dict__["work"]
    ledger.patch_attr(Target, "work", "target")
    assert Target().work() == 3
    assert ledger.calls["target"] == 1
    ledger.restore()
    assert Target.__dict__["work"] is original
