"""Oracular static initial placement (Fig. 9, Section V-B).

Given a-priori knowledge of each workload's whole-run access pattern, the
static placements eliminate runtime migration entirely:

* On the **baseline**, every page is homed at its dominant accessor.
* On **StarNUMA**, pages shared by ``pool_sharer_threshold``-or-more
  sockets go to the pool, hottest first, until the pool's usable capacity
  is exhausted; every other page is homed at its dominant accessor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.placement.capacity import PoolCapacityManager
from repro.placement.pagemap import LOCATION_DTYPE, PageMap
from repro.topology.model import POOL_LOCATION


#: Sockets whose access count is within this factor of the page's maximum
#: are near-ties the oracle may pick among for load balance.
TIE_TOLERANCE = 0.9


def _balanced_argmax(total_counts: np.ndarray) -> np.ndarray:
    """Dominant-accessor placement with load-balanced tie breaking.

    For vagabond pages the per-socket counts are near-uniform, so a naive
    argmax funnels them all onto whichever socket enjoys a small
    systematic sampling bias, creating a DRAM/link hotspot no real oracle
    would choose. Pages are therefore assigned hottest-first, and among
    sockets within :data:`TIE_TOLERANCE` of the page's maximum the one
    serving the least accumulated *remote* traffic wins -- the home's
    coherent links carry every fill it serves to other sockets, so that
    is the quantity an oracle balances.
    """
    n_sockets, n_pages = total_counts.shape
    totals = total_counts.sum(axis=0)
    order = np.argsort(totals)[::-1]
    remote_served = np.zeros(n_sockets, dtype=np.float64)
    locations = np.empty(n_pages, dtype=LOCATION_DTYPE)
    for page in order:
        counts = total_counts[:, page]
        threshold = counts.max() * TIE_TOLERANCE
        candidates = np.flatnonzero(counts >= threshold)
        chosen = candidates[np.argmin(remote_served[candidates])]
        locations[page] = chosen
        remote_served[chosen] += float(totals[page]) - float(counts[chosen])
    return locations


def oracular_static_placement(total_counts: np.ndarray,
                              sharer_counts: np.ndarray,
                              has_pool: bool,
                              capacity: Optional[PoolCapacityManager] = None,
                              pool_sharer_threshold: int = 8) -> PageMap:
    """Compute a static page map from whole-run access counts.

    Parameters
    ----------
    total_counts:
        Shape ``(n_sockets, n_pages)``: per-socket access counts over the
        entire run.
    sharer_counts:
        Shape ``(n_pages,)``: number of sockets that ever access each page.
    has_pool:
        Whether the target architecture has a memory pool.
    capacity:
        Pool capacity manager; required when ``has_pool``.
    pool_sharer_threshold:
        Sharing degree at which a page is considered a vagabond.
    """
    n_sockets, n_pages = total_counts.shape
    if sharer_counts.shape != (n_pages,):
        raise ValueError("sharer_counts must align with total_counts pages")
    if has_pool and capacity is None:
        raise ValueError("a pool placement needs a capacity manager")

    locations = _balanced_argmax(total_counts)

    if has_pool:
        totals = total_counts.sum(axis=0)
        vagabonds = np.flatnonzero(sharer_counts >= pool_sharer_threshold)
        # Hottest vagabonds claim the limited pool capacity first -- that
        # is what makes the placement oracular.
        vagabonds = vagabonds[np.argsort(totals[vagabonds])[::-1]]
        fit = min(vagabonds.size, capacity.free_pages)
        chosen = vagabonds[:fit]
        if chosen.size:
            capacity.allocate(int(chosen.size))
            locations[chosen] = POOL_LOCATION

    return PageMap(locations, n_sockets, has_pool)
