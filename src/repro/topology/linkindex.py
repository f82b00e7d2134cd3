"""Dense integer ids for directed links, and compiled route arrays.

The timing kernel (see :mod:`repro.sim.timing`) evaluates M/D/1 waiting
times for every charged link direction on every fixed-point iteration.
Keyed dict arithmetic made that the dominant cost of a full experiment
sweep, so each directed traversal of each link gets a dense integer
*slot* here, and routes are precompiled into flat index arrays:

* a non-DRAM link owns two slots (forward and reverse traversal);
* a DRAM channel bundle owns one slot -- both directions share the one
  memory-controller queue, mirroring the aliasing that
  :class:`~repro.interconnect.loads.LinkLoads` has always applied.

Per-slot capacity and service-time vectors let whole-vector queueing
expressions replace per-hop scalar calls, and
:class:`CompiledRoute` carries the scatter/gather indices of one route:
request-direction slots, fill-direction slots, and the (slot, weight)
pairs of the route's round-trip queueing delay with DRAM counted once.
Stacking the delay rows of many routes yields the route-by-link
incidence matrix the vector kernel multiplies against the per-slot
waiting-time vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config.parameters import CACHE_BLOCK_BYTES
from repro.topology.model import DirectedLink, LinkKind, Topology


@dataclass(frozen=True)
class CompiledRoute:
    """Flat index-array form of one route (requester -> memory order).

    ``forward_slots``/``reverse_slots`` hold one slot per hop (request
    and fill directions; DRAM hops alias the same slot in both). The
    ``delay_slots``/``delay_weights`` pair encodes the route's
    round-trip queueing delay as a sparse incidence row: non-DRAM hops
    contribute their forward and reverse slots, DRAM hops their single
    shared slot, duplicate slots merged with summed weights.
    """

    forward_slots: np.ndarray
    reverse_slots: np.ndarray
    delay_slots: np.ndarray
    delay_weights: np.ndarray


class LinkIndex:
    """Slot assignment and per-slot constant vectors of one topology."""

    def __init__(self, topology: Topology):
        self.topology = topology
        slot_of: Dict[Tuple[str, bool], int] = {}
        slot_hops: List[DirectedLink] = []
        capacities: List[float] = []
        # Insertion order of ``topology.links`` is the construction order
        # of the link inventory, which is deterministic per topology.
        for link in topology.links.values():
            if link.kind is LinkKind.DRAM:
                slot_of[(link.link_id, True)] = len(slot_hops)
                slot_of[(link.link_id, False)] = len(slot_hops)
                slot_hops.append(DirectedLink(link, True))
                capacities.append(link.capacity_gbps)
            else:
                for forward in (True, False):
                    slot_of[(link.link_id, forward)] = len(slot_hops)
                    slot_hops.append(DirectedLink(link, forward))
                    capacities.append(link.capacity_gbps)
        self._slot_of = slot_of
        self._slot_hops = slot_hops
        #: Per-slot link capacity, GB/s per direction.
        self.capacity_gbps = np.array(capacities, dtype=np.float64)
        #: Per-slot deterministic service time of one cache-block
        #: message (block + header), nanoseconds. 1 GB/s moves one byte
        #: per nanosecond, so this is simply bytes / GBps.
        from repro.interconnect.loads import MESSAGE_HEADER_BYTES

        self.service_ns = ((CACHE_BLOCK_BYTES + MESSAGE_HEADER_BYTES)
                           / self.capacity_gbps)

    @property
    def n_slots(self) -> int:
        return len(self._slot_hops)

    def slot(self, hop: DirectedLink) -> int:
        """Dense id of one directed traversal (DRAM directions alias)."""
        try:
            return self._slot_of[(hop.link.link_id, hop.forward)]
        except KeyError:
            raise KeyError(f"unknown link {hop.link.link_id!r}") from None

    def hop_at(self, slot: int) -> DirectedLink:
        """The canonical :class:`DirectedLink` of one slot."""
        return self._slot_hops[slot]

    # -- route compilation -------------------------------------------------

    def compile_route(self,
                      route: Sequence[DirectedLink]) -> CompiledRoute:
        """Precompute the slot arrays of one route."""
        forward = np.array([self.slot(hop) for hop in route],
                           dtype=np.intp)
        reverse = np.array([self.slot(hop.reversed()) for hop in route],
                           dtype=np.intp)
        weights: Dict[int, float] = {}
        for hop in route:
            weights[self.slot(hop)] = weights.get(self.slot(hop), 0.0) + 1.0
            if hop.link.kind is not LinkKind.DRAM:
                slot = self.slot(hop.reversed())
                weights[slot] = weights.get(slot, 0.0) + 1.0
        delay_slots = np.array(sorted(weights), dtype=np.intp)
        delay_weights = np.array([weights[slot] for slot in sorted(weights)],
                                 dtype=np.float64)
        return CompiledRoute(
            forward_slots=forward,
            reverse_slots=reverse,
            delay_slots=delay_slots,
            delay_weights=delay_weights,
        )

    def incidence_row(self, route: Sequence[DirectedLink],
                      weight: float = 1.0) -> np.ndarray:
        """Dense incidence row of one route's round-trip delay.

        ``row @ wait_ns_vector`` equals the per-hop
        request+fill queueing sum along the route (DRAM counted once),
        scaled by ``weight``.
        """
        row = np.zeros(self.n_slots, dtype=np.float64)
        compiled = self.compile_route(route)
        row[compiled.delay_slots] = compiled.delay_weights * weight
        return row
