"""OpenBLAS's thread pool, read and set through the loaded library.

numpy's OpenBLAS starts one thread per usable CPU, and a forked worker
inherits that count. Between the many small matrix-vector calls of
Step C those threads spin rather than sleep, so ``N`` workers each
running ``C`` BLAS threads on ``C`` CPUs load the host ``N``-fold and
every worker slows down. :class:`repro.runner.supervisor.WorkerPool`
therefore caps each worker at its share of the CPUs.

``threadpoolctl`` is not a dependency, so the library is found the way
the process itself sees it: the OpenBLAS paths mapped into
``/proc/self/maps``, opened with :mod:`ctypes`. Every function here is
a no-op returning ``None`` when no OpenBLAS (or no known symbol) is
found, e.g. on a numpy built against another BLAS.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Optional, Sequence

#: Setter and getter symbols, in lookup order: numpy's bundled 64-bit
#: build first, then a system OpenBLAS (64-bit, then 32-bit ints).
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_", "openblas_set_num_threads")
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _loaded_openblas() -> Sequence[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            return sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return ()


def _first_symbol(names: Sequence[str],
                  libraries: Optional[Sequence[str]]) -> Optional[Any]:
    """The first of ``names`` that one of ``libraries`` exports."""
    for library in (_loaded_openblas() if libraries is None
                    else libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in names:
            function = getattr(handle, name, None)
            if function is not None:
                return function
    return None


def blas_threads(libraries: Optional[Sequence[str]] = None
                 ) -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` if none is found.

    ``libraries`` replaces the search of ``/proc/self/maps``.
    """
    getter = _first_symbol(_GETTERS, libraries)
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(count: int,
                     libraries: Optional[Sequence[str]] = None
                     ) -> Optional[int]:
    """Set OpenBLAS's thread count; returns the count now in effect.

    A no-op returning ``None`` when no setter is found. ``libraries``
    replaces the search of ``/proc/self/maps``.
    """
    setter = _first_symbol(_SETTERS, libraries)
    if setter is None:
        return None
    setter.restype = None
    setter(ctypes.c_int(count))
    threads = blas_threads(libraries)
    return count if threads is None else threads


def worker_share(n_workers: int) -> int:
    """BLAS threads per worker so ``n_workers`` fill the usable CPUs once."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        usable = os.cpu_count() or 1
    return max(1, usable // n_workers)


def cap_blas_threads(limit: int) -> Optional[int]:
    """Lower OpenBLAS's thread count to ``limit``, never raising it.

    Returns the count now in effect, or ``None`` without OpenBLAS.
    """
    inherited = blas_threads()
    if inherited is not None and inherited > limit:
        return set_blas_threads(limit)
    return inherited
