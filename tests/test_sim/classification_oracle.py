"""Dense reference of Step C's access classification, the oracle for COO.

The program classifies each phase over its sparse counts: values
aligned to the population's sharer cells. This module keeps the
original dense computation -- float copies of the whole
``(n_sockets, n_pages)`` matrix and three bincounts over every cell --
so the sparse path can be pinned to it with ``np.array_equal``, not
approx, and timed against it. It caches only the per-page block-transfer
fractions on the population; the float64 membership is built per call,
so the oracle pins no dense copy per population for the rest of a test
session.
"""

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.placement.pagemap import PageMap
from repro.sim.classification import PhaseClassification
from repro.topology.model import POOL_LOCATION
from repro.workloads.population import PagePopulation

if TYPE_CHECKING:
    from repro.replication import ReplicationPlan


def block_transfer_fractions(population: PagePopulation) -> np.ndarray:
    """Per-page probability that a miss is served cache-to-cache.

    Vectorized form of
    :meth:`repro.coherence.transfers.SharingModel.block_transfer_fraction`.
    Cached on the population: its inputs (profile coupling, sharer
    counts, write fractions) are fixed once the population is built, and
    every phase evaluation of every system variant re-reads them.
    """
    cached = getattr(population, "_bt_fractions", None)
    if cached is None:
        coupling = population.profile.coupling
        sharers = population.sharer_count.astype(np.float64)
        writes = population.write_fraction
        intensity = writes * (2.0 - writes)
        remote_writer = np.where(sharers > 1, (sharers - 1) / sharers, 0.0)
        cached = np.minimum(1.0, coupling * intensity * remote_writer)
        population._bt_fractions = cached
    return cached


def classify_phase(counts: np.ndarray, page_map: PageMap,
                   population: PagePopulation,
                   replication: Optional["ReplicationPlan"] = None
                   ) -> PhaseClassification:
    """Build the phase aggregates from raw per-page counts.

    With a ``replication`` plan, accesses to replicated pages are served
    by the local replica (demand at the requester's own socket, no block
    transfers -- software keeps replicas coherent instead), and their
    write volume is reported separately so the timing model can charge
    the software-coherence penalty.
    """
    n_sockets, n_pages = counts.shape
    if n_pages != page_map.n_pages:
        raise ValueError(
            f"trace covers {n_pages} pages, map has {page_map.n_pages}"
        )

    replicated_writes = 0.0
    replica_local = None
    if replication is not None:
        if replication.replicated.size != n_pages:
            raise ValueError("replication plan covers a different footprint")
        mask = replication.replicated
        if mask.any():
            rep_counts = counts[:, mask].astype(np.float64)
            rep_writes = rep_counts * population.write_fraction[None, mask]
            replica_local = (rep_counts.sum(axis=1),
                             rep_writes.sum(axis=1))
            replicated_writes = float(rep_writes.sum())
            counts = counts.copy()
            counts[:, mask] = 0

    locations = page_map.locations.astype(np.int64)
    location_index = np.where(locations == POOL_LOCATION, n_sockets,
                              locations)

    bt_fraction = block_transfer_fractions(population)
    counts = counts.astype(np.float64)
    bt_counts = counts * bt_fraction[None, :]
    demand_counts = counts - bt_counts

    n_locations = n_sockets + 1
    writes = population.write_fraction
    pool_pages = locations == POOL_LOCATION

    # One 2-D scatter over flattened (socket, location) indices instead
    # of a Python-level loop of per-socket np.add.at calls: bincount
    # accumulates in the same element order, row-major by socket. Pool
    # pages map to the last column, so the same flat index serves both
    # the demand aggregates and the block-transfer split (its pool
    # column IS bt_pool -- no boolean masking copies).
    socket_base = np.arange(n_sockets, dtype=np.int64)[:, None]
    flat_index = (socket_base * n_locations
                  + location_index[None, :]).ravel()
    n_bins = n_sockets * n_locations
    demand = np.bincount(
        flat_index, weights=demand_counts.ravel(), minlength=n_bins,
    ).reshape(n_sockets, n_locations)
    demand_writes = np.bincount(
        flat_index, weights=(demand_counts * writes).ravel(),
        minlength=n_bins,
    ).reshape(n_sockets, n_locations)
    bt_by_location = np.bincount(
        flat_index, weights=bt_counts.ravel(), minlength=n_bins,
    ).reshape(n_sockets, n_locations)
    bt_socket = bt_by_location[:, :n_sockets]
    bt_pool = bt_by_location[:, n_sockets]

    # Owner-side CXL load of pool-homed transfers: the owner is a uniform
    # random sharer of the page, so each sharer carries weight/k of the
    # page's transfer volume.
    bt_pool_per_page = bt_counts.sum(axis=0) * pool_pages
    per_sharer = bt_pool_per_page / population.sharer_count
    membership = population.membership().astype(np.float64)
    bt_pool_owner = membership @ per_sharer

    if replica_local is not None:
        local_counts, local_writes = replica_local
        demand[np.arange(n_sockets), np.arange(n_sockets)] += local_counts
        demand_writes[np.arange(n_sockets),
                      np.arange(n_sockets)] += local_writes

    return PhaseClassification(
        demand=demand,
        demand_writes=demand_writes,
        bt_socket=bt_socket,
        bt_pool=bt_pool,
        bt_pool_owner=bt_pool_owner,
        total_accesses=float(counts.sum())
        + (float(replica_local[0].sum()) if replica_local is not None
           else 0.0),
        replicated_writes=replicated_writes,
    )
