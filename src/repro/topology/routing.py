"""Route construction over the hierarchical interconnect.

A route is the ordered list of :class:`DirectedLink` traversals a request
takes from the requesting socket to the memory that homes the target page
(requester -> memory order). The data fill travels the same links in the
opposite direction. Routes are precomputed for every (socket, location)
pair and cached, since route lookup is on the hot path of the timing model.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.topology.model import (
    POOL_LOCATION,
    AccessType,
    DirectedLink,
    LinkKind,
    Topology,
)

Route = Tuple[DirectedLink, ...]

#: Coherent-link hop count of each access class on the ideal fabric.
NOMINAL_HOPS = {
    AccessType.LOCAL: 0,
    AccessType.INTRA_CHASSIS: 1,
    AccessType.INTER_CHASSIS: 3,
    AccessType.POOL: 1,
}

#: Graph nodes of the coherent fabric: sockets, FLEX ASICs, the pool.
_Node = Tuple[str, int]


class RouteTable:
    """Precomputed request routes for every (requester, location) pair.

    On the ideal topology every route is hand-built from the hierarchy
    (fast, and byte-for-byte the historical construction). When links are
    missing -- a :class:`~repro.faults.FaultedTopology` -- construction
    falls back to a breadth-first search over the surviving link graph,
    so traffic reroutes around failures (a dead UPI peer link detours
    through the chassis ASIC, a dead NUMALink bundle through a third
    chassis, a dead CXL link through a neighbour socket's CXL port).
    Detoured routes remember the extra unloaded latency of their longer
    path; :meth:`detour_penalty_ns` reports it to the timing model. If no
    path survives, a structured
    :class:`~repro.faults.PartitionedTopologyError` is raised.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._routes: Dict[Tuple[int, int], Route] = {}
        self._detour_ns: Dict[Tuple[int, int], float] = {}
        self._graph: Optional[Dict[_Node, List[Tuple[_Node, DirectedLink]]]] = None
        self._fingerprint: Optional[str] = None
        self._migration_slots: Optional[np.ndarray] = None
        for requester in topology.sockets():
            for location in topology.locations():
                self._routes[(requester, location)] = self._build_route(
                    requester, location
                )

    def route(self, requester: int, location: int) -> Route:
        """Return the request route from ``requester`` to ``location``.

        The route excludes on-socket resources of the requester and ends at
        the DRAM channel bundle of the destination. A local access therefore
        consists of just the local DRAM hop.
        """
        try:
            return self._routes[(requester, location)]
        except KeyError:
            raise ValueError(
                f"no route from socket {requester} to location {location}"
            ) from None

    def detour_penalty_ns(self, requester: int, location: int) -> float:
        """Extra unloaded latency of a fault-detoured route (0 if direct)."""
        return self._detour_ns.get((requester, location), 0.0)

    def migration_slots(self) -> np.ndarray:
        """Slots a page copy charges, per (source, destination) pair.

        An ``(n + 1, n + 1, width)`` table over location columns (the
        pool is column ``n``), padded with -1 and memoized per table.
        A socket source's row lists its route's hops, then its own DRAM
        slot, where the page is read. A pool source's row lists the
        destination's pool route with every hop reversed, as the data
        flows pool -> destination. Pairs no move takes (pool to pool,
        any pool pair of a pool-less system) hold only padding.
        """
        if self._migration_slots is not None:
            return self._migration_slots
        topology = self.topology
        index = topology.link_index()
        n = topology.n_sockets
        columns = list(range(n)) + [POOL_LOCATION]
        rows: Dict[Tuple[int, int], List[int]] = {}
        for source_column, source in enumerate(columns):
            for destination_column, destination in enumerate(columns):
                if (source == destination == POOL_LOCATION
                        or (POOL_LOCATION in (source, destination)
                            and not topology.has_pool)):
                    continue
                if source == POOL_LOCATION:
                    hops = [hop.reversed() for hop in
                            self.route(destination, POOL_LOCATION)]
                else:
                    hops = [*self.route(source, destination),
                            self.route(source, source)[0]]
                rows[(source_column, destination_column)] = [
                    index.slot(hop) for hop in hops]
        width = max(len(row) for row in rows.values())
        table = np.full((n + 1, n + 1, width), -1, dtype=np.intp)
        for (source_column, destination_column), row in rows.items():
            table[source_column, destination_column, :len(row)] = row
        self._migration_slots = table
        return table

    def fingerprint(self) -> str:
        """Content hash of everything a compiled timing kernel depends on.

        Two route tables with equal fingerprints produce identical
        compiled incidence matrices and unloaded-latency geometry: the
        hash covers the link inventory in iteration order (which fixes
        the dense slot assignment), per-link kinds and capacities, the
        unloaded latency of every access class (including fault latency
        factors), every (requester, location) route hop by hop, and the
        detour penalties of rerouted paths. Fault states whose reroutes
        collapse to the same surviving geometry therefore share one
        fingerprint, which the timing layer uses to dedupe kernel
        compilation across fault states.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        topology = self.topology
        parts: List[str] = [
            "route-table-v1",
            f"n_sockets={topology.n_sockets}",
            f"has_pool={topology.has_pool}",
        ]
        for link_id, link in topology.links.items():
            parts.append(
                f"link:{link_id}:{link.kind.value}:{link.capacity_gbps!r}"
            )
        for access_type in AccessType:
            parts.append(
                f"lat:{access_type.value}:"
                f"{topology.unloaded_latency_ns(access_type)!r}"
            )
        for (requester, location), route in sorted(self._routes.items()):
            hops = ",".join(
                f"{hop.link.link_id}:{int(hop.forward)}" for hop in route
            )
            detour = self._detour_ns.get((requester, location), 0.0)
            kind = topology.classify(requester, location)
            parts.append(
                f"route:{requester}:{location}:{kind.value}:"
                f"{hops}:{detour!r}"
            )
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        self._fingerprint = digest
        return digest

    def block_transfer_route(self, requester: int, owner: int,
                             home: int) -> Route:
        """Route of the data-carrying hop of a coherence block transfer.

        For a socket-homed block the 3-hop optimization sends the data
        directly owner -> requester; for a pool-homed block the data flows
        owner -> pool -> requester over the two CXL links (Fig. 4). The
        returned route is expressed in data-source -> requester order, with
        each traversal's ``forward`` flag already oriented for the data
        movement, so callers charge it directly (no reversal).
        """
        topology = self.topology
        if home == POOL_LOCATION:
            if not topology.has_pool:
                raise ValueError("pool block transfer on a pool-less system")
            # Built from the cached (possibly fault-detoured) pool routes:
            # owner -> pool as-is, then pool -> requester by reversing the
            # requester's route. On the ideal fabric this reduces to the
            # two direct CXL hops of Fig. 4.
            owner_leg = tuple(
                hop for hop in self.route(owner, POOL_LOCATION)
                if hop.link.kind is not LinkKind.DRAM
            )
            requester_hops = [
                hop for hop in self.route(requester, POOL_LOCATION)
                if hop.link.kind is not LinkKind.DRAM
            ]
            requester_leg = tuple(
                hop.reversed() for hop in reversed(requester_hops)
            )
            return owner_leg + requester_leg
        # Socket home: data hop is the owner -> requester leg of the 3-hop
        # transfer. Reuse the inter-socket route, dropping the DRAM hop
        # since the block is sourced from the owner's cache.
        if owner == requester:
            return ()
        return self.route(owner, requester)[:-1]

    def interconnect_hops(self, requester: int, location: int) -> int:
        """Number of coherent-link traversals on the route (0 for local)."""
        return sum(
            1 for hop in self.route(requester, location)
            if hop.link.kind is not LinkKind.DRAM
        )

    # -- construction ------------------------------------------------------

    def _build_route(self, requester: int, location: int) -> Route:
        try:
            return self._direct_route(requester, location)
        except KeyError:
            # A link of the hierarchical route is gone: search the
            # surviving fabric instead.
            route = self._search_route(requester, location)
            self._detour_ns[(requester, location)] = self._detour_penalty(
                requester, location, route
            )
            return route

    def _direct_route(self, requester: int, location: int) -> Route:
        topology = self.topology
        hops: List[DirectedLink] = []
        if location == POOL_LOCATION:
            hops.append(DirectedLink(
                topology.link(topology.cxl_link_id(requester)), forward=True
            ))
        elif location != requester:
            hops.extend(self._socket_to_socket_links(requester, location))
        hops.append(DirectedLink(
            topology.link(topology.dram_link_id(location)), forward=True
        ))
        return tuple(hops)

    # -- fault rerouting ---------------------------------------------------

    def _search_route(self, requester: int, location: int) -> Route:
        """Shortest surviving path, then the destination's DRAM hop."""
        from repro.faults.errors import PartitionedTopologyError

        topology = self.topology
        source: _Node = ("s", requester)
        target: _Node = (("p", 0) if location == POOL_LOCATION
                         else ("s", location))
        path = self._shortest_path(source, target)
        if path is None:
            raise PartitionedTopologyError(
                requester, location,
                getattr(topology, "removed_links", frozenset()),
            )
        return tuple(path) + (DirectedLink(
            topology.link(topology.dram_link_id(location)), forward=True
        ),)

    def _shortest_path(self, source: _Node,
                       target: _Node) -> Optional[List[DirectedLink]]:
        if source == target:
            return []
        graph = self._surviving_graph()
        pool_node: _Node = ("p", 0)
        parents: Dict[_Node, Tuple[_Node, DirectedLink]] = {}
        visited = {source}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            if node == pool_node:
                continue  # the pool is a memory device, not a router
            for neighbor, hop in graph.get(node, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                parents[neighbor] = (node, hop)
                if neighbor == target:
                    hops: List[DirectedLink] = []
                    cursor = target
                    while cursor != source:
                        cursor, edge = parents[cursor]
                        hops.append(edge)
                    hops.reverse()
                    return hops
                frontier.append(neighbor)
        return None

    def _surviving_graph(self) -> Dict[_Node, List[Tuple[_Node, DirectedLink]]]:
        """Adjacency over surviving coherent links (built once, on demand)."""
        if self._graph is not None:
            return self._graph
        topology = self.topology
        graph: Dict[_Node, List[Tuple[_Node, DirectedLink]]] = {}

        def connect(a: _Node, b: _Node, link_id: str) -> None:
            # ``a`` is the canonical source of the link: traversing a -> b
            # is the forward direction.
            link = topology.links.get(link_id)
            if link is None:
                return
            graph.setdefault(a, []).append((b, DirectedLink(link, True)))
            graph.setdefault(b, []).append((a, DirectedLink(link, False)))

        for chassis in range(topology.n_chassis):
            members = topology.sockets_in_chassis(chassis)
            for i, a in enumerate(members):
                connect(("s", a), ("a", chassis),
                        topology.upi_asic_link_id(a))
                for b in members[i + 1:]:
                    connect(("s", a), ("s", b),
                            topology.upi_peer_link_id(a, b))
        for a in range(topology.n_chassis):
            for b in range(a + 1, topology.n_chassis):
                connect(("a", a), ("a", b), topology.numalink_id(a, b))
        if topology.has_pool:
            for socket in range(topology.n_sockets):
                connect(("s", socket), ("p", 0),
                        topology.cxl_link_id(socket))
        self._graph = graph
        return graph

    def _detour_penalty(self, requester: int, location: int,
                        route: Route) -> float:
        """Unloaded-latency surcharge of a detoured route over the nominal.

        Each coherent hop carries a one-way latency share consistent with
        the hierarchy's calibrated penalties: a UPI traversal costs half
        the intra-chassis round-trip penalty, a NUMALink traversal the
        inter-chassis remainder. The surcharge is the actual route's hop
        latency minus the nominal route's, never negative.
        """
        latency = self.topology.config.latency
        upi_ns = latency.intra_chassis_penalty_ns / 2.0
        numa_ns = max(0.0, latency.inter_chassis_penalty_ns / 2.0
                      - latency.intra_chassis_penalty_ns)
        per_hop = {LinkKind.UPI: upi_ns, LinkKind.NUMALINK: numa_ns,
                   LinkKind.CXL: 0.0, LinkKind.DRAM: 0.0}
        actual = sum(per_hop[hop.link.kind] for hop in route)
        kind = self.topology.classify(requester, location)
        nominal = {
            AccessType.LOCAL: 0.0,
            AccessType.INTRA_CHASSIS: upi_ns,
            AccessType.INTER_CHASSIS: 2.0 * upi_ns + numa_ns,
            AccessType.POOL: 0.0,
        }[kind]
        return max(0.0, actual - nominal)

    def _socket_to_socket_links(self, src: int, dst: int) -> List[DirectedLink]:
        """Coherent-link traversals from socket ``src`` to socket ``dst``."""
        topology = self.topology
        if src == dst:
            return []
        if topology.same_chassis(src, dst):
            link = topology.link(topology.upi_peer_link_id(src, dst))
            # Forward orientation of a peer link is low-id -> high-id.
            return [DirectedLink(link, forward=src < dst)]
        chassis_src = topology.chassis_of(src)
        chassis_dst = topology.chassis_of(dst)
        numalink = topology.link(topology.numalink_id(chassis_src, chassis_dst))
        return [
            DirectedLink(topology.link(topology.upi_asic_link_id(src)),
                         forward=True),
            DirectedLink(numalink, forward=chassis_src < chassis_dst),
            DirectedLink(topology.link(topology.upi_asic_link_id(dst)),
                         forward=False),
        ]


def average_block_transfer_latency_ns(topology: Topology) -> float:
    """Average unloaded 3-hop transfer network latency over R/H/O combos.

    Section III-C derives 333 ns for the 16-socket system by averaging the
    cumulative latency of the three traversed legs (requester -> home ->
    owner -> requester) over all possible socket placements with a remote
    owner. Each leg is a *one-way* traversal, i.e. half of the round-trip
    penalty: 25 ns within a chassis and 140 ns across chassis. On the
    default 16-socket layout this evaluates to ~329 ns, matching the
    paper's 333 ns anchor to within about 1%.
    """
    latency = topology.config.latency

    def leg_one_way_ns(a: int, b: int) -> float:
        if a == b:
            return 0.0
        if topology.same_chassis(a, b):
            return latency.intra_chassis_penalty_ns / 2.0
        return latency.inter_chassis_penalty_ns / 2.0

    total = 0.0
    count = 0
    n = topology.n_sockets
    for requester in range(n):
        for home in range(n):
            for owner in range(n):
                if owner == requester:
                    continue
                total += (leg_one_way_ns(requester, home)
                          + leg_one_way_ns(home, owner)
                          + leg_one_way_ns(owner, requester))
                count += 1
    if count == 0:
        return 0.0
    return total / count
