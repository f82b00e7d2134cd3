"""Trace record formats."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.cells import CountIndex, narrowest_signed


@dataclass(frozen=True)
class TraceRecord:
    """One LLC-missing memory access, as the Pin-based tracer would log it."""

    socket: int
    thread: int
    instruction_index: int
    page: int
    is_write: bool


def narrow_counts(values: np.ndarray) -> np.ndarray:
    """A new array of ``values`` in the narrowest type that holds them.

    Each phase gets the narrowest signed type that holds its min and
    max: int8, int16, int32, or int64 for counts past int32. A count is
    bounded only by its phase's accesses (Poisson draws around rates
    capped at ``accesses_cap_per_socket``, 2e9, and a draw can exceed
    its mean), so the type is picked from the data and the cast never
    wraps. Readers upcast before any arithmetic that could leave the
    narrow range. The result never aliases ``values``, which may be a
    draw buffer that the next phase overwrites.
    """
    if not values.size:
        return values.astype(np.int8)
    return values.astype(narrowest_signed(int(values.min()),
                                          int(values.max())))


@dataclass
class PhaseTrace:
    """Aggregated access counts of one phase, in sparse (COO) layout.

    ``values[i]`` is the number of LLC-missing accesses socket
    ``index.sockets[i]`` issued to page ``index.pages[i]`` during the
    phase; cells outside ``index`` hold zero. A synthesized phase is
    aligned to its population's :attr:`~PagePopulation.index`, so all
    phases of a workload share one index. ``instructions_per_thread``
    is the phase length in dynamic instructions (one billion in the
    paper's setup).
    """

    phase: int
    index: CountIndex
    values: np.ndarray
    instructions_per_thread: int

    def __post_init__(self) -> None:
        if self.values.shape != (self.index.size,):
            raise ValueError("values must align with the count index")
        if self.instructions_per_thread <= 0:
            raise ValueError("phase length must be positive")

    @classmethod
    def from_dense(cls, phase: int, counts: np.ndarray,
                   instructions_per_thread: int) -> "PhaseTrace":
        """A phase from a dense ``(n_sockets, n_pages)`` count matrix.

        The index is the matrix's own nonzeros, so no population is
        needed (trace files, external tracers).
        """
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be (n_sockets, n_pages)")
        index = CountIndex.from_mask(counts != 0)
        return cls(phase=phase, index=index,
                   values=narrow_counts(counts.ravel()[index.flat]),
                   instructions_per_thread=instructions_per_thread)

    @property
    def n_sockets(self) -> int:
        return self.index.n_sockets

    @property
    def n_pages(self) -> int:
        return self.index.n_pages

    @property
    def total_accesses(self) -> int:
        return int(self.values.sum(dtype=np.int64))

    def dense(self) -> np.ndarray:
        """The int64 ``(n_sockets, n_pages)`` count matrix."""
        return self.index.dense(self.values)

    def columns(self, pages: np.ndarray) -> np.ndarray:
        """``dense()[:, pages]``, densifying only those columns."""
        return self.index.columns(self.values, pages)

    def columns_total(self, pages: np.ndarray) -> int:
        """``columns(pages).sum()``, with no dense block."""
        return self.index.columns_total(self.values, pages)

    def at_sockets(self, sockets: np.ndarray) -> np.ndarray:
        """Per page ``p``, the count at cell ``(sockets[p], p)``."""
        return self.index.at_sockets(self.values, sockets)

    def accesses_per_socket(self) -> np.ndarray:
        return self._reduce(self.index.sockets, self.n_sockets)

    def page_totals(self) -> np.ndarray:
        return self._reduce(self.index.pages, self.n_pages)

    def page_peaks(self) -> np.ndarray:
        """Per page, the largest count any one socket issued."""
        peaks = np.zeros(self.n_pages, dtype=self.values.dtype)
        np.maximum.at(peaks, self.index.pages, self.values)
        return peaks.astype(np.int64)

    def _reduce(self, bins: np.ndarray, n_bins: int) -> np.ndarray:
        # Float64 bins of integer counts are exact far past any phase.
        return np.bincount(bins, weights=self.values,
                           minlength=n_bins).astype(np.int64)
