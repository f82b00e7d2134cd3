"""Vectorized per-region access trackers (the T_i designs)."""

from __future__ import annotations

import numpy as np

from repro.config import MigrationConfig, TrackerKind
from repro.workloads.cells import popcount


def region_of_page(page: np.ndarray, pages_per_region: int) -> np.ndarray:
    """Map page indices to region indices."""
    return page // pages_per_region


class RegionTrackerArray:
    """Per-region sharer bits and saturating access counters.

    One entry per region, matching the metadata-region layout of Section
    III-D1: a bitmask with one bit per socket recording which sockets
    touched the region this phase, and (for ``T_i`` with ``i > 0``) an
    ``i``-bit saturating counter of total region accesses. ``T_0`` tracks
    only the sharer bits.

    The array is updated from per-(socket, region) access counts -- the
    aggregate the TLB-annex/page-table-walker hardware produces -- and is
    scanned and reset once per migration phase by the policy.
    """

    def __init__(self, n_regions: int, n_sockets: int,
                 tracker: TrackerKind = TrackerKind.T16):
        if n_regions < 1:
            raise ValueError(f"need at least one region, got {n_regions}")
        if not 1 <= n_sockets <= 32:
            raise ValueError(
                f"sharer bitmask supports 1..32 sockets, got {n_sockets}"
            )
        self.n_regions = n_regions
        self.n_sockets = n_sockets
        self.tracker = tracker
        self.counter_max = (1 << tracker.counter_bits) - 1 if tracker.counts_accesses else 0
        self.sharer_bits = np.zeros(n_regions, dtype=np.uint32)
        self.counters = np.zeros(n_regions, dtype=np.int64)

    def update(self, counts: np.ndarray) -> None:
        """Fold per-(socket, region) access counts into the trackers.

        ``counts`` has shape ``(n_sockets, n_regions)``. Counters saturate
        at ``2**i - 1`` per the i-bit hardware counter; sharer bits are set
        for every socket with a nonzero count.
        """
        if counts.shape != (self.n_sockets, self.n_regions):
            raise ValueError(
                f"counts shape {counts.shape} != "
                f"({self.n_sockets}, {self.n_regions})"
            )
        if np.any(counts < 0):
            raise ValueError("access counts must be >= 0")
        touched = counts > 0
        for socket in range(self.n_sockets):
            mask = np.uint32(1 << socket)
            self.sharer_bits[touched[socket]] |= mask
        if self.tracker.counts_accesses:
            self.counters += counts.sum(axis=0).astype(np.int64)
            np.minimum(self.counters, self.counter_max, out=self.counters)

    def sharer_counts(self) -> np.ndarray:
        """Number of sharer bits set per region (int64)."""
        return popcount(self.sharer_bits).astype(np.int64)

    def sharers_of(self, region: int) -> np.ndarray:
        """Socket ids with their sharer bit set for ``region``."""
        bits = int(self.sharer_bits[region])
        return np.array(
            [socket for socket in range(self.n_sockets)
             if bits & (1 << socket)],
            dtype=np.int64,
        )

    def accesses(self) -> np.ndarray:
        """Per-region access counts (saturated; zeros under T_0)."""
        return self.counters.copy()

    def reset(self) -> None:
        """Per-phase reset performed by the metadata scan (Section III-D2)."""
        self.sharer_bits.fill(0)
        self.counters.fill(0)

    @classmethod
    def for_pages(cls, n_pages: int, n_sockets: int,
                  migration: MigrationConfig) -> "RegionTrackerArray":
        """Build a tracker array covering ``n_pages`` of physical memory."""
        pages_per_region = migration.pages_per_region
        n_regions = (n_pages + pages_per_region - 1) // pages_per_region
        return cls(n_regions, n_sockets, migration.tracker)
