"""Host-speed probe: a fixed kernel like the program's, timed between processes.

On a shared 2-core VM the same sweep runs up to 40% slower for minutes
at a time, and set-up slows with it. The probe does a fixed amount of
the same kinds of work -- NumPy random draws, sorts, bincounts and
gathers on fresh 4 MB arrays, a small matmul on the default BLAS
threads, and a dict-heavy Python loop -- without importing the
program, so no change to the program can move it. ``run.py`` probes
before the first process it starts and after each one, and scales the
run's times by ``REFERENCE_S`` over the median probe: the times it
reports are seconds at the host speed where one probe takes
``REFERENCE_S``.

Over eight seeds on such a VM, during a slow spell that eased, scaling
cut the quartile spread of sweep_s from 0.32 to 0.10 of the median on
sensitivity and from 0.19 to 0.10 on fig8. A single probe jitters by
10% or more from second to second, so a run uses the median of its
probes. A pure memory-gather probe and a pure Python loop tracked the
slow spells worse and were dropped.
"""

from __future__ import annotations

import statistics
import time

import numpy

#: Probe time that defines the reference host speed (about the median
#: probe on a quiet 2-core Xeon VM at 2.7 GHz).
REFERENCE_S = 0.180
#: Kernel runs per probe; the median is the probe time.
REPEATS = 3


def _kernel() -> int:
    rng = numpy.random.default_rng(12345)
    values = rng.integers(0, 1 << 20, size=1 << 19)
    numpy.argsort(values, kind="stable")
    numpy.bincount(values & 0xFFFF, minlength=1 << 16)
    numpy.unique(values >> 4)
    total = int(values[rng.permutation(1 << 19)].sum())
    matrix = rng.random((256, 256))
    total += int((matrix @ matrix).sum())
    counts = {}
    for i in range(50000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return total + len(counts)


def probe_s(repeats: int = REPEATS) -> float:
    """Median seconds of one kernel run, over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        begun = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - begun)
    return statistics.median(times)
