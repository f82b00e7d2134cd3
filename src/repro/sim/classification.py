"""Vectorized access classification for one phase.

Given a phase's sparse (socket, page) access counts and the current page
map, split every access into demand traffic by destination and coherence
block transfers by home type, producing the compact aggregates the timing
model charges to links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.placement.pagemap import PageMap
from repro.topology.model import POOL_LOCATION
from repro.trace.records import PhaseTrace
from repro.workloads.population import PagePopulation

if TYPE_CHECKING:
    from repro.replication import ReplicationPlan


@dataclass
class PhaseClassification:
    """Aggregated access counts of one phase.

    ``demand[s, l]`` counts demand (memory-serviced) accesses of socket
    ``s`` to location ``l``; column ``n_sockets`` is the pool.
    ``demand_writes`` is the expected store share of the same cells (the
    writeback traffic driver). ``bt_socket[s, h]`` counts block transfers
    whose home is socket ``h``; ``bt_pool[s]`` those homed at the pool,
    with ``bt_pool_owner[u]`` the expected owner-side CXL load.
    """

    demand: np.ndarray
    demand_writes: np.ndarray
    bt_socket: np.ndarray
    bt_pool: np.ndarray
    bt_pool_owner: np.ndarray
    total_accesses: float
    #: Writes to software-replicated pages (each pays the replication
    #: plan's coherence penalty on top of its local access).
    replicated_writes: float = 0.0

    @property
    def n_sockets(self) -> int:
        return int(self.demand.shape[0])

    @property
    def pool_column(self) -> int:
        return self.n_sockets

    def demand_to_pool(self) -> float:
        return float(self.demand[:, self.pool_column].sum())


def block_transfer_fractions(population: PagePopulation) -> np.ndarray:
    """Per-page probability that a miss is served cache-to-cache.

    Vectorized form of
    :meth:`repro.coherence.transfers.SharingModel.block_transfer_fraction`,
    cached on the population's index: its inputs (profile coupling,
    sharer counts, write fractions) are fixed once the population is
    built.
    """
    return population.index.bt_fraction


def classify_phase(trace: PhaseTrace, page_map: PageMap,
                   population: PagePopulation,
                   replication: Optional["ReplicationPlan"] = None
                   ) -> PhaseClassification:
    """Build the phase aggregates from a phase's sparse counts.

    With a ``replication`` plan, accesses to replicated pages are served
    by the local replica (demand at the requester's own socket, no block
    transfers -- software keeps replicas coherent instead), and their
    write volume is reported separately so the timing model can charge
    the software-coherence penalty.

    Every sum runs in the order the dense row-major computation would,
    skipping only zero cells, so the aggregates are bit-identical to it.
    """
    index = trace.index
    n_sockets, n_pages = index.shape
    if n_pages != page_map.n_pages:
        raise ValueError(
            f"trace covers {n_pages} pages, map has {page_map.n_pages}"
        )
    shared = population.index
    if index is shared:
        bt_fraction = shared.entry_bt_fraction
        writes = shared.entry_write_fraction
    else:
        bt_fraction = shared.bt_fraction[index.pages]
        writes = population.write_fraction[index.pages]
    counts = trace.values

    replica_local = None
    replicated_writes = 0.0
    if replication is not None:
        if replication.replicated.size != n_pages:
            raise ValueError("replication plan covers a different footprint")
        mask = replication.replicated
        if mask.any():
            replica_local, replicated_writes = _replica_sums(
                trace, mask, population.write_fraction)
            counts = np.where(mask[index.pages], 0, counts)

    locations = page_map.locations.astype(np.int64)
    location_index = np.where(locations == POOL_LOCATION, n_sockets,
                              locations)
    # Integer counts promote to float64 exactly, as the dense copy did.
    bt_counts = counts * bt_fraction
    demand_counts = counts - bt_counts

    # One scatter per aggregate over flattened (socket, location)
    # indices; bincount accumulates in entry order, row-major by
    # socket. Pool pages map to the last column, so the same flat index
    # serves both the demand aggregates and the block-transfer split
    # (its pool column IS bt_pool).
    n_locations = n_sockets + 1
    flat_index = np.take(location_index, index.pages)
    rows = index.row_bounds
    for socket in range(1, n_sockets):
        flat_index[rows[socket]:rows[socket + 1]] += socket * n_locations

    def scatter(weights: np.ndarray) -> np.ndarray:
        # An empty index makes bincount return integers; keep float64.
        return np.bincount(
            flat_index, weights=weights, minlength=n_sockets * n_locations,
        ).astype(np.float64, copy=False).reshape(n_sockets, n_locations)

    demand = scatter(demand_counts)
    bt_by_location = scatter(bt_counts)
    demand_writes = scatter(np.multiply(demand_counts, writes,
                                        out=demand_counts))
    bt_socket = bt_by_location[:, :n_sockets]
    bt_pool = bt_by_location[:, n_sockets]

    # Owner-side CXL load of pool-homed transfers: the owner is a uniform
    # random sharer of the page, so each sharer carries weight/k of the
    # page's transfer volume. The matmul stays dense: its BLAS summation
    # order is what fixes the last bits.
    pool_pages = locations == POOL_LOCATION
    if pool_pages.any():
        bt_pool_per_page = np.bincount(
            index.pages, weights=bt_counts, minlength=n_pages) * pool_pages
        per_sharer = bt_pool_per_page / population.sharer_count
        bt_pool_owner = shared.membership_f64 @ per_sharer
    else:
        bt_pool_owner = np.zeros(n_sockets)

    total_accesses = float(counts.sum(dtype=np.int64))
    if replica_local is not None:
        local_counts, local_writes = replica_local
        demand[np.arange(n_sockets), np.arange(n_sockets)] += local_counts
        demand_writes[np.arange(n_sockets),
                      np.arange(n_sockets)] += local_writes
        total_accesses += float(local_counts.sum())

    return PhaseClassification(
        demand=demand,
        demand_writes=demand_writes,
        bt_socket=bt_socket,
        bt_pool=bt_pool,
        bt_pool_owner=bt_pool_owner,
        total_accesses=total_accesses,
        replicated_writes=replicated_writes,
    )


def _replica_sums(trace: PhaseTrace, mask: np.ndarray,
                  write_fraction: np.ndarray):
    """Per-socket (accesses, writes) of replicated pages, and all writes.

    The write sums are pairwise row sums of non-integer floats, whose
    rounding depends on where zeros sit, so they run over the dense
    replicated columns exactly as the dense computation lays them out.
    """
    rep_counts = trace.columns(np.flatnonzero(mask)).astype(np.float64)
    rep_writes = rep_counts * write_fraction[None, mask]
    return ((rep_counts.sum(axis=1), rep_writes.sum(axis=1)),
            float(rep_writes.sum()))
