"""Per-link, per-direction traffic accounting over a simulation window.

Storage is a flat byte vector indexed by the topology's dense directed
:class:`~repro.topology.linkindex.LinkIndex` slots (one slot per
direction of every coherent link, one shared slot per DRAM channel
bundle). The timing kernel writes and reads whole vectors:
scatter-adds of precompiled route index arrays on the recording side,
and one element-wise M/D/1 expression per fixed-point iteration on the
evaluation side. The keyed reads -- ``delay_ns(hop, ...)`` and friends
-- serve the hottest-link diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config.parameters import CACHE_BLOCK_BYTES
from repro.interconnect.queueing import (
    DEFAULT_BURSTINESS,
    mdl_wait_ns,
    mdl_wait_ns_array,
    service_time_ns,
)
from repro.topology.model import DirectedLink, Topology

#: Bytes of header/CRC overhead accompanying each request or data message.
MESSAGE_HEADER_BYTES = 8.0


@dataclass(frozen=True)
class TrafficSample:
    """Utilization and waiting time of one link direction."""

    link_id: str
    forward: bool
    offered_gbps: float
    capacity_gbps: float
    wait_ns: float

    @property
    def utilization(self) -> float:
        return self.offered_gbps / self.capacity_gbps

    def as_attrs(self) -> dict:
        """Flat JSON-ready form, used by the obs utilization events."""
        return {
            "link": self.link_id,
            "forward": self.forward,
            "utilization": self.utilization,
            "offered_gbps": self.offered_gbps,
            "capacity_gbps": self.capacity_gbps,
            "wait_ns": self.wait_ns,
        }


class LinkLoads:
    """Accumulates traffic and evaluates queueing delay per link direction.

    Traffic is charged in bytes into :attr:`bytes_vector`;
    :meth:`delay_ns` and friends convert to offered bandwidth given the
    window duration decided by the caller (the timing model knows the
    phase's wall-clock span). DRAM "links" are not
    directional: both directions of a DRAM link id alias the same queue,
    which the slot assignment collapses onto a single shared slot.
    """

    def __init__(self, topology: Topology,
                 burstiness: float = DEFAULT_BURSTINESS):
        if burstiness <= 0:
            raise ValueError(f"burstiness must be positive, got {burstiness}")
        self.topology = topology
        self.burstiness = burstiness
        self.index = topology.link_index()
        self._vec = np.zeros(self.index.n_slots, dtype=np.float64)

    def reset(self) -> None:
        self._vec[:] = 0.0

    @property
    def bytes_vector(self) -> np.ndarray:
        """The per-slot charged bytes (a live view, not a copy)."""
        return self._vec

    # -- vector evaluation ---------------------------------------------------

    def utilization_vector(self, window_ns: float) -> np.ndarray:
        """Per-slot offered load over capacity for the window."""
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        return self._vec / (window_ns * self.index.capacity_gbps)

    def wait_ns_vector(self, window_ns: float) -> np.ndarray:
        """Per-slot M/D/1 waiting time of one block transfer, burst-scaled.

        Element ``s`` equals ``delay_ns(hop_of(s), window_ns)``; the whole
        vector costs a handful of array expressions rather than one
        Python-level queueing call per charged link direction.
        """
        return mdl_wait_ns_array(
            self.utilization_vector(window_ns),
            self.index.service_ns,
            burstiness=self.burstiness,
        )

    # -- keyed evaluation ----------------------------------------------------

    def offered_gbps(self, hop: DirectedLink, window_ns: float) -> float:
        """Offered bandwidth on one link direction over the window, GB/s."""
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        return float(self._vec[self.index.slot(hop)]) / window_ns

    def utilization(self, hop: DirectedLink, window_ns: float) -> float:
        return self.offered_gbps(hop, window_ns) / hop.link.capacity_gbps

    def delay_ns(self, hop: DirectedLink, window_ns: float,
                 block_bytes: float = CACHE_BLOCK_BYTES) -> float:
        """Queueing delay of one block transfer on ``hop`` under load."""
        service = service_time_ns(block_bytes + MESSAGE_HEADER_BYTES,
                                  hop.link.capacity_gbps)
        return mdl_wait_ns(self.utilization(hop, window_ns), service,
                           burstiness=self.burstiness)

    def sample(self, hop: DirectedLink, window_ns: float) -> TrafficSample:
        """Capture the utilization/wait state of one link direction."""
        return TrafficSample(
            link_id=hop.link.link_id,
            forward=hop.forward,
            offered_gbps=self.offered_gbps(hop, window_ns),
            capacity_gbps=hop.link.capacity_gbps,
            wait_ns=self.delay_ns(hop, window_ns),
        )

    def busiest(self, window_ns: float, top: int = 5) -> List[TrafficSample]:
        """Return the ``top`` most utilized link directions (diagnostics)."""
        charged = np.flatnonzero(self._vec)
        if charged.size == 0:
            return []
        utilization = self.utilization_vector(window_ns)[charged]
        order = charged[np.argsort(-utilization, kind="stable")[:top]]
        return [self.sample(self.index.hop_at(slot), window_ns)
                for slot in order]
