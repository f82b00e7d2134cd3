"""Sparse (COO) layout of per-(socket, page) access counts.

A socket only ever touches the pages it shares, and most pages are
shared by a few sockets (Section II, Fig. 2), so a dense
``(n_sockets, n_pages)`` count matrix is mostly zeros by construction.
A :class:`CountIndex` lists the cells that may be nonzero in flat
row-major order; a phase then stores only the values aligned to it.

Visiting the values in index order visits cells in exactly the order a
row-major pass over the dense matrix does, minus cells that hold zero.
A sequential sum such as ``np.bincount`` therefore gives bit-identical
bins on either layout: adding ``+0.0`` never changes a float.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.workloads.population import PagePopulation


def popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each uint32 mask, by SWAR bit-slicing.

    ``np.bitwise_count`` needs numpy 2; this runs on any supported numpy
    with no temporary wider than the masks.
    """
    bits = masks.astype(np.uint32)
    bits -= (bits >> 1) & 0x55555555
    bits = (bits & 0x33333333) + ((bits >> 2) & 0x33333333)
    bits = (bits + (bits >> 4)) & 0x0F0F0F0F
    return ((bits * 0x01010101) >> 24).astype(np.int16)


_SIGNED = tuple(np.iinfo(dtype) for dtype in (np.int8, np.int16, np.int32))


def narrowest_signed(low: int, high: int) -> np.dtype:
    """The narrowest signed integer type that holds ``low`` and ``high``."""
    for info in _SIGNED:
        if info.min <= low and high <= info.max:
            return info.dtype
    return np.dtype(np.int64)


class CountIndex:
    """The (socket, page) cells of a count layout, in row-major order.

    ``sockets`` and ``pages`` are the cells' coordinates; their flat
    offsets into the dense matrix (:attr:`flat`) strictly increase.
    ``sockets`` is stored in the narrowest signed type that holds
    ``n_sockets - 1`` (int8 up to 128 sockets), so arithmetic on it
    upcasts first. ``pages`` stays int64: it is a ``take``/``bincount``
    index on the hot path, and a narrower type would be cast on every
    call.
    """

    def __init__(self, n_sockets: int, n_pages: int, flat: np.ndarray):
        self.n_sockets = int(n_sockets)
        self.n_pages = int(n_pages)
        sockets, self.pages = np.divmod(
            np.asarray(flat, dtype=np.int64), self.n_pages)
        #: Where each socket's row starts in the entries, plus the end.
        self.row_bounds = np.searchsorted(sockets,
                                          np.arange(self.n_sockets + 1))
        self.sockets = sockets.astype(
            narrowest_signed(0, max(self.n_sockets - 1, 0)))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "CountIndex":
        """The cells where a boolean ``(n_sockets, n_pages)`` mask is set."""
        if mask.ndim != 2:
            raise ValueError("mask must be (n_sockets, n_pages)")
        return cls(mask.shape[0], mask.shape[1], np.flatnonzero(mask))

    @property
    def shape(self) -> Tuple[int, int]:
        return self.n_sockets, self.n_pages

    @property
    def size(self) -> int:
        return int(self.pages.size)

    @property
    def flat(self) -> np.ndarray:
        """Flat row-major offsets of the cells (computed, not stored)."""
        flat = np.multiply(self.sockets, self.n_pages, dtype=np.int64)
        flat += self.pages
        return flat

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The int64 ``(n_sockets, n_pages)`` matrix of ``values``."""
        out = np.zeros(self.n_sockets * self.n_pages, dtype=np.int64)
        out[self.flat] = values
        return out.reshape(self.shape)

    def columns(self, values: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """``dense(values)[:, pages]``, densifying only those columns.

        Reads only the entries of ``pages`` (through the page-major
        order), so its cost follows the columns asked for, not the
        whole index. The block is Fortran-ordered, as column indexing
        lays it out, so float sums over it round identically.
        """
        pages = np.asarray(pages, dtype=np.int64)
        entries, lengths = self._page_entries(pages)
        cells = (np.repeat(np.arange(pages.size) * self.n_sockets, lengths)
                 + self.sockets[entries])
        out = np.zeros(self.n_sockets * pages.size, dtype=np.int64)
        out[cells] = values[entries]
        return out.reshape((self.n_sockets, pages.size), order="F")

    def columns_total(self, values: np.ndarray, pages: np.ndarray) -> int:
        """``columns(values, pages).sum()``, with no dense block.

        Sums only the entries of ``pages``, in page-major order; the
        sum is over integers, so any order gives the same total.
        """
        entries, _ = self._page_entries(np.asarray(pages, dtype=np.int64))
        return int(values[entries].astype(np.int64, copy=False).sum())

    def _page_entries(self, pages: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Entries of ``pages``, page after page, and each page's count."""
        order, starts = self._page_major
        first = starts[pages]
        lengths = starts[pages + 1] - first
        ends = np.cumsum(lengths)
        # Page-major slots of every requested cell, page after page.
        slots = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            first - ends + lengths, lengths)
        return order[slots], lengths

    def at_sockets(self, values: np.ndarray,
                   sockets: np.ndarray) -> np.ndarray:
        """Per page ``p``, the int64 value at cell ``(sockets[p], p)``.

        Zero where that cell is not in the index or ``sockets[p]`` is
        negative (a pool location). A page's cells sit in socket order
        in the page-major order, so the cell's slot is the page's start
        plus the number of its sockets below ``sockets[p]``: one popcount
        per page, never a pass over the entries.
        """
        if not self.size:
            return np.zeros(self.n_pages, dtype=np.int64)
        order, starts = self._page_major
        masks = self._page_masks
        on_socket = sockets >= 0
        shift = np.where(on_socket, sockets, 0).astype(np.uint32)
        held = on_socket & (((masks >> shift) & 1) == 1)
        slots = starts[:-1] + popcount(
            masks & ((np.uint32(1) << shift) - np.uint32(1)))
        np.minimum(slots, self.size - 1, out=slots)
        out = values[order[slots]].astype(np.int64)
        out[~held] = 0
        return out

    @cached_property
    def _page_masks(self) -> np.ndarray:
        """Bitmask of the sockets each page has cells for."""
        if self.n_sockets > 32:
            raise ValueError(
                f"{self.n_sockets} sockets: page masks are 32-bit (uint32)")
        masks = np.zeros(self.n_pages, dtype=np.uint32)
        np.bitwise_or.at(masks, self.pages,
                         np.uint32(1) << self.sockets.astype(np.uint32))
        return masks

    @cached_property
    def _page_major(self) -> Tuple[np.ndarray, np.ndarray]:
        """Entry order sorted by page, and each page's start in it.

        The order is int32 while the index has fewer than 2**31 entries.
        """
        order = np.argsort(self.pages, kind="stable")
        if self.size <= np.iinfo(np.int32).max:
            order = order.astype(np.int32)
        starts = np.zeros(self.n_pages + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.pages, minlength=self.n_pages),
                  out=starts[1:])
        return order, starts


class SharerIndex(CountIndex):
    """A population's sharer membership as a :class:`CountIndex`.

    Built once per population (:attr:`PagePopulation.index`). Every
    synthesized phase is aligned to it, and it caches what each phase's
    classification would otherwise recompute: the per-page
    block-transfer fractions, and three float64 tables -- the dense
    membership (for the pool-owner matmul) and per-entry gathers of the
    block-transfer and write fractions.

    The three tables outweigh the rest of the index, and a sweep
    classifies one workload's phases at a time, so at most one index
    holds them: building one on an index drops all three from the index
    that held them before, which rebuilds them, bit for bit, if it is
    read again. The holder is referenced weakly and never keeps a
    finished set-up alive.
    """

    #: Step C's tables, each kept in the instance ``__dict__`` under its
    #: property's name while this index is the holder.
    STEP_C_TABLES = ("membership_f64", "entry_bt_fraction",
                     "entry_write_fraction")
    #: The index holding the Step C tables, if it is still alive.
    _step_c_holder: Optional["weakref.ref[SharerIndex]"] = None

    def __init__(self, population: "PagePopulation"):
        sockets = np.arange(population.n_sockets, dtype=np.uint32)
        membership = ((population.sharer_mask[None, :]
                       >> sockets[:, None]) & 1) == 1
        super().__init__(population.n_sockets, population.n_pages,
                         np.flatnonzero(membership))
        #: Boolean ``(n_sockets, n_pages)``: who shares what.
        self.membership = membership
        self._sharer_mask = population.sharer_mask
        self._coupling = population.profile.coupling
        self._sharer_count = population.sharer_count
        self._write_fraction = population.write_fraction

    @cached_property
    def _page_masks(self) -> np.ndarray:
        return self._sharer_mask

    @cached_property
    def bt_fraction(self) -> np.ndarray:
        """Per-page probability that a miss is served cache-to-cache.

        Vectorized form of
        :meth:`repro.coherence.transfers.SharingModel.block_transfer_fraction`.
        """
        sharers = self._sharer_count.astype(np.float64)
        writes = self._write_fraction
        intensity = writes * (2.0 - writes)
        remote_writer = np.where(sharers > 1, (sharers - 1) / sharers, 0.0)
        return np.minimum(1.0, self._coupling * intensity * remote_writer)

    @property
    def membership_f64(self) -> np.ndarray:
        return self._step_c_table(
            "membership_f64", lambda: self.membership.astype(np.float64))

    @property
    def entry_bt_fraction(self) -> np.ndarray:
        return self._step_c_table(
            "entry_bt_fraction", lambda: self.bt_fraction[self.pages])

    @property
    def entry_write_fraction(self) -> np.ndarray:
        return self._step_c_table(
            "entry_write_fraction", lambda: self._write_fraction[self.pages])

    def _drop_step_c_tables(self) -> None:
        """Free this index's Step C tables; the next read rebuilds them."""
        for name in self.STEP_C_TABLES:
            self.__dict__.pop(name, None)

    def _step_c_table(self, name: str,
                      build: Callable[[], np.ndarray]) -> np.ndarray:
        table = self.__dict__.get(name)
        if table is None:
            holder = SharerIndex._step_c_holder
            previous = holder() if holder is not None else None
            if previous is not self:
                if previous is not None:
                    previous._drop_step_c_tables()
                SharerIndex._step_c_holder = weakref.ref(self)
            table = self.__dict__[name] = build()
        return table
