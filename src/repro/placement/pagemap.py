"""The page-to-location map and first-touch initialization."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.topology.model import POOL_LOCATION


#: Locations are socket ids and the pool's -1; populations stop at 32
#: sockets, so int8 holds every map.
LOCATION_DTYPE = np.int8


class PageMap:
    """Location of every page: a socket id, or the pool.

    Backed by a compact int8 numpy array so the timing model can classify
    millions of accesses with vectorized arithmetic. The values are
    checked on the input, before the cast, so an out-of-range location
    raises rather than wrapping into range.
    """

    def __init__(self, locations: np.ndarray, n_sockets: int,
                 has_pool: bool):
        if n_sockets > np.iinfo(LOCATION_DTYPE).max + 1:
            raise ValueError(f"{n_sockets} sockets: page maps are int8")
        locations = np.asarray(locations)
        if locations.ndim != 1:
            raise ValueError("page map must be one-dimensional")
        self._check_values(locations, n_sockets, has_pool)
        self.locations = np.asarray(locations, dtype=LOCATION_DTYPE)
        self.n_sockets = n_sockets
        self.has_pool = has_pool

    @staticmethod
    def _check_values(locations: np.ndarray, n_sockets: int,
                      has_pool: bool) -> None:
        if locations.size == 0:
            return
        low, high = locations.min(), locations.max()
        if high >= n_sockets:
            raise ValueError(f"location {high} exceeds socket range")
        if low < POOL_LOCATION or (low == POOL_LOCATION and not has_pool):
            raise ValueError(f"invalid location {low} for this system")

    @property
    def n_pages(self) -> int:
        return int(self.locations.size)

    def location_of(self, page: int) -> int:
        return int(self.locations[page])

    def move(self, pages: np.ndarray, destination: int) -> None:
        """Relocate ``pages`` to ``destination`` (socket id or pool)."""
        if destination == POOL_LOCATION and not self.has_pool:
            raise ValueError("cannot place pages in a nonexistent pool")
        if destination != POOL_LOCATION and not 0 <= destination < self.n_sockets:
            raise ValueError(f"destination {destination} out of range")
        self.locations[pages] = destination

    def pages_at(self, location: int) -> np.ndarray:
        """Indices of pages currently homed at ``location``."""
        return np.flatnonzero(self.locations == location)

    def pool_page_count(self) -> int:
        if not self.has_pool:
            return 0
        return int(np.count_nonzero(self.locations == POOL_LOCATION))

    def occupancy(self) -> np.ndarray:
        """Pages per socket (index 0..n_sockets-1); pool excluded."""
        counts = np.zeros(self.n_sockets, dtype=np.int64)
        on_socket = self.locations >= 0
        np.add.at(counts, self.locations[on_socket].astype(np.int64), 1)
        return counts

    def copy(self) -> "PageMap":
        return PageMap(self.locations.copy(), self.n_sockets, self.has_pool)


def first_touch_placement(sharer_masks: np.ndarray, n_sockets: int,
                          has_pool: bool,
                          rng: Optional[np.random.Generator] = None) -> PageMap:
    """First-touch initial placement.

    The socket that first touches a page becomes its home. Under symmetric
    sharing the first toucher is a uniformly random member of the page's
    sharer set, which is how we realize it here (seeded for
    reproducibility). Pages are never first-touched into the pool.
    """
    rng = rng or np.random.default_rng(0)
    sharer_masks = np.asarray(sharer_masks, dtype=np.uint32)
    n_pages = sharer_masks.size
    locations = np.empty(n_pages, dtype=LOCATION_DTYPE)

    # Expand masks into a (n_pages, n_sockets) membership matrix, then pick
    # one set bit per row with probabilities uniform over members.
    membership = (
        (sharer_masks[:, None] >> np.arange(n_sockets, dtype=np.uint32)) & 1
    ).astype(np.float64)
    row_sums = membership.sum(axis=1)
    if np.any(row_sums == 0):
        raise ValueError("every page needs at least one sharer")
    probabilities = membership / row_sums[:, None]
    cumulative = probabilities.cumsum(axis=1)
    draws = rng.random(n_pages)
    locations[:] = (draws[:, None] < cumulative).argmax(axis=1)
    return PageMap(locations, n_sockets, has_pool)
