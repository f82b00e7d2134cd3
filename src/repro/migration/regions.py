"""Grouping of pages into physically contiguous migration regions.

Physical frames are allocated on the first-touching socket, so a 512 KB
physical region contains pages first-touched by the same socket. We
reproduce that by grouping pages per initial home (in page-id order) into
``pages_per_region`` chunks. Region composition is then fixed for the run:
a region's pages migrate together, exactly as a physical region would.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.migration.records import page_ids
from repro.placement.pagemap import PageMap


class RegionTable:
    """Static page<->region mapping derived from the initial placement."""

    def __init__(self, initial_map: PageMap, pages_per_region: int):
        if pages_per_region < 1:
            raise ValueError(
                f"pages per region must be >= 1, got {pages_per_region}"
            )
        self.pages_per_region = pages_per_region
        self.n_pages = initial_map.n_pages

        region_pages: List[np.ndarray] = []
        page_to_region = np.empty(self.n_pages, dtype=np.int64)
        for socket in range(initial_map.n_sockets):
            pages = page_ids(initial_map.pages_at(socket))
            for start in range(0, pages.size, pages_per_region):
                chunk = pages[start:start + pages_per_region]
                page_to_region[chunk] = len(region_pages)
                region_pages.append(chunk)
        # Pool-resident pages at t=0 would be a modeling error (first touch
        # never targets the pool), so any leftover unassigned page is a bug.
        self._region_pages = region_pages
        self.page_to_region = page_to_region
        self.n_regions = len(region_pages)
        self._binned_index: Optional[object] = None
        self._entry_bins = np.empty(0, dtype=np.int64)

    def pages_of(self, region: int) -> np.ndarray:
        """Page ids belonging to ``region``."""
        if not 0 <= region < self.n_regions:
            raise ValueError(f"region {region} out of range")
        return self._region_pages[region]

    def region_of(self, page: int) -> int:
        if not 0 <= page < self.n_pages:
            raise ValueError(f"page {page} out of range")
        return int(self.page_to_region[page])

    def region_sizes(self) -> np.ndarray:
        return np.array([pages.size for pages in self._region_pages],
                        dtype=np.int64)

    def aggregate_page_counts(self, counts) -> np.ndarray:
        """Sum per-(socket, page) counts into per-(socket, region) counts.

        ``counts`` holds a phase's sparse counts (a
        :class:`repro.trace.PhaseTrace`). The result is an int64 array
        of shape ``(n_sockets, n_regions)``.
        """
        index = counts.index
        if index.n_pages != self.n_pages:
            raise ValueError(
                f"expected {self.n_pages} page columns, "
                f"got {index.n_pages}"
            )
        # Every phase of a run shares one index, so its entries' bins are
        # computed once and reused until a phase brings another index.
        if self._binned_index is not index:
            self._binned_index = index
            # ``sockets`` is narrow; upcast before the product.
            self._entry_bins = np.multiply(index.sockets, self.n_regions,
                                           dtype=np.int64)
            self._entry_bins += self.page_to_region[index.pages]
        # Float64 bins of integer counts are exact far past any phase.
        totals = np.bincount(self._entry_bins, weights=counts.values,
                             minlength=index.n_sockets * self.n_regions)
        return totals.astype(np.int64).reshape(index.n_sockets,
                                               self.n_regions)

    def region_locations(self, page_map: PageMap) -> np.ndarray:
        """Current location of every region (location of its first page).

        Pages of a region always move together, so any member page is
        representative.
        """
        firsts = np.array([pages[0] for pages in self._region_pages],
                          dtype=np.int64)
        return page_map.locations[firsts].astype(np.int64)
