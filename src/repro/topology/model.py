"""Sockets, chassis, links, and access-type classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

from repro.config import SystemConfig

if TYPE_CHECKING:
    from repro.topology.linkindex import LinkIndex

#: Sentinel page location denoting the shared memory pool (as opposed to a
#: socket id in ``range(n_sockets)``).
POOL_LOCATION = -1


class AccessType(enum.Enum):
    """Classification of an LLC-missing memory access (Fig. 8c's categories)."""

    LOCAL = "local"
    INTRA_CHASSIS = "1-hop"
    INTER_CHASSIS = "2-hop"
    POOL = "pool"
    BLOCK_TRANSFER_SOCKET = "bt-socket"
    BLOCK_TRANSFER_POOL = "bt-pool"

    @property
    def is_block_transfer(self) -> bool:
        return self in (AccessType.BLOCK_TRANSFER_SOCKET,
                        AccessType.BLOCK_TRANSFER_POOL)


#: Every access type in declaration order: the code of a type in
#: :meth:`Topology.access_kinds` is its position here.
ACCESS_TYPES: Tuple[AccessType, ...] = tuple(AccessType)


class LinkKind(enum.Enum):
    """Physical link families of the system."""

    UPI = "upi"              # intra-chassis socket<->socket, socket<->ASIC
    NUMALINK = "numalink"    # inter-chassis ASIC<->ASIC bundles
    CXL = "cxl"              # socket<->pool
    DRAM = "dram"            # memory channels (socket-local or pool)


@dataclass(frozen=True)
class Link:
    """One (full-duplex) link or link bundle, identified by a stable string id.

    ``capacity_gbps`` is per direction. DRAM "links" model the aggregate
    channel bandwidth behind one memory controller and are not directional.
    """

    link_id: str
    kind: LinkKind
    capacity_gbps: float

    def __post_init__(self) -> None:
        if self.capacity_gbps <= 0:
            raise ValueError(
                f"link {self.link_id} needs positive capacity, "
                f"got {self.capacity_gbps}"
            )


@dataclass(frozen=True)
class DirectedLink:
    """A traversal of ``link`` in the forward (True) or reverse direction.

    Paths are expressed in requester -> memory order; the data fill flows
    in the opposite direction of each hop.
    """

    link: Link
    forward: bool

    @property
    def direction_key(self) -> Tuple[str, bool]:
        return (self.link.link_id, self.forward)

    def reversed(self) -> "DirectedLink":
        return DirectedLink(self.link, not self.forward)


class Topology:
    """The socket/chassis/pool layout of a :class:`SystemConfig`.

    Provides chassis lookup, access classification, and the link
    inventory. Route construction lives in :class:`~repro.topology.routing.
    RouteTable`, which consumes this object.
    """

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        self.n_chassis = config.n_chassis
        self.sockets_per_chassis = config.sockets_per_chassis
        self.n_sockets = config.n_sockets
        self.has_pool = config.pool.enabled
        self._links = self._build_links()

    # -- structure ---------------------------------------------------------

    def chassis_of(self, socket: int) -> int:
        """Return the chassis index housing ``socket``."""
        self._check_socket(socket)
        return socket // self.sockets_per_chassis

    def sockets_in_chassis(self, chassis: int) -> List[int]:
        """Return the socket ids housed in ``chassis``."""
        if not 0 <= chassis < self.n_chassis:
            raise ValueError(f"chassis {chassis} out of range")
        base = chassis * self.sockets_per_chassis
        return list(range(base, base + self.sockets_per_chassis))

    def same_chassis(self, a: int, b: int) -> bool:
        return self.chassis_of(a) == self.chassis_of(b)

    def sockets(self) -> Iterator[int]:
        return iter(range(self.n_sockets))

    def locations(self) -> Iterator[int]:
        """All valid page locations: every socket, plus the pool if present."""
        yield from range(self.n_sockets)
        if self.has_pool:
            yield POOL_LOCATION

    def is_valid_location(self, location: int) -> bool:
        if location == POOL_LOCATION:
            return self.has_pool
        return 0 <= location < self.n_sockets

    @property
    def pool_usable(self) -> bool:
        """Whether new pages may be placed on the pool.

        Always matches :attr:`has_pool` on the ideal topology; a faulted
        view (see :mod:`repro.faults`) reports False once the pool device
        has failed, even though pool pages still exist and must drain.
        """
        return self.has_pool

    # -- classification ----------------------------------------------------

    def classify(self, requester: int, location: int) -> AccessType:
        """Classify an access by ``requester`` socket to a page at ``location``."""
        self._check_socket(requester)
        if location == POOL_LOCATION:
            if not self.has_pool:
                raise ValueError("system has no memory pool")
            return AccessType.POOL
        self._check_socket(location)
        if requester == location:
            return AccessType.LOCAL
        if self.same_chassis(requester, location):
            return AccessType.INTRA_CHASSIS
        return AccessType.INTER_CHASSIS

    def access_kinds(self) -> np.ndarray:
        """Access-type codes of every (socket, location column) pair.

        An ``(n_sockets, n_sockets + 1)`` int8 table, memoized like
        :meth:`link_index`: entry ``[s, c]`` is the position in
        :data:`ACCESS_TYPES` of ``classify(s, c)``, the last column
        standing for the pool. A pool-less system holds -1 there.
        """
        kinds = getattr(self, "_access_kinds", None)
        if kinds is None:
            n = self.n_sockets
            kinds = np.full((n, n + 1), -1, dtype=np.int8)
            for socket in range(n):
                for column in range(n + 1):
                    if column == n and not self.has_pool:
                        continue
                    location = POOL_LOCATION if column == n else column
                    kinds[socket, column] = ACCESS_TYPES.index(
                        self.classify(socket, location))
            self._access_kinds = kinds
        return kinds

    def unloaded_latency_ns(self, access_type: AccessType) -> float:
        """Unloaded end-to-end latency of one access of ``access_type``."""
        latency = self.config.latency
        return {
            AccessType.LOCAL: latency.local_ns,
            AccessType.INTRA_CHASSIS: latency.intra_chassis_ns,
            AccessType.INTER_CHASSIS: latency.inter_chassis_ns,
            AccessType.POOL: latency.pool_ns,
            AccessType.BLOCK_TRANSFER_SOCKET: latency.block_transfer_socket_ns,
            AccessType.BLOCK_TRANSFER_POOL: latency.block_transfer_pool_ns,
        }[access_type]

    # -- link inventory ----------------------------------------------------

    @property
    def links(self) -> Dict[str, Link]:
        """All links of the system, keyed by link id."""
        return self._links

    def link_index(self) -> "LinkIndex":
        """The dense directed-link index of this topology (memoized).

        Uses ``getattr`` rather than an ``__init__``-assigned field so
        subclasses that bypass ``Topology.__init__`` (the faulted views)
        still get a correctly scoped cache over their own link table.
        """
        index = getattr(self, "_link_index", None)
        if index is None:
            from repro.topology.linkindex import LinkIndex

            index = LinkIndex(self)
            self._link_index = index
        return index

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise KeyError(f"unknown link {link_id!r}") from None

    def upi_peer_link_id(self, a: int, b: int) -> str:
        """Id of the direct UPI link between two same-chassis sockets."""
        if a == b or not self.same_chassis(a, b):
            raise ValueError(f"sockets {a} and {b} share no direct UPI link")
        lo, hi = sorted((a, b))
        return f"upi:s{lo}-s{hi}"

    def upi_asic_link_id(self, socket: int) -> str:
        """Id of the UPI link between ``socket`` and its chassis' FLEX ASIC."""
        self._check_socket(socket)
        return f"upi:s{socket}-flex{self.chassis_of(socket)}"

    def numalink_id(self, chassis_a: int, chassis_b: int) -> str:
        """Id of the NUMALink bundle between two distinct chassis."""
        if chassis_a == chassis_b:
            raise ValueError("NUMALinks connect distinct chassis")
        lo, hi = sorted((chassis_a, chassis_b))
        return f"numa:c{lo}-c{hi}"

    def cxl_link_id(self, socket: int) -> str:
        """Id of the CXL link between ``socket`` and the pool."""
        if not self.has_pool:
            raise ValueError("system has no memory pool")
        self._check_socket(socket)
        return f"cxl:s{socket}"

    def dram_link_id(self, location: int) -> str:
        """Id of the DRAM channel bundle at a socket or the pool."""
        if location == POOL_LOCATION:
            if not self.has_pool:
                raise ValueError("system has no memory pool")
            return "dram:pool"
        self._check_socket(location)
        return f"dram:s{location}"

    # -- construction ------------------------------------------------------

    def _build_links(self) -> Dict[str, Link]:
        bandwidth = self.config.bandwidth
        links: Dict[str, Link] = {}

        def add(link_id: str, kind: LinkKind, capacity: float) -> None:
            links[link_id] = Link(link_id, kind, capacity)

        # Socket-pair UPI links (all-to-all within each chassis) and the
        # socket-to-FLEX-ASIC UPI link of each socket. Coherent-link
        # capacities are goodput (raw x protocol efficiency).
        upi_gbps = bandwidth.upi_effective_gbps
        for chassis in range(self.n_chassis):
            members = self.sockets_in_chassis(chassis)
            for i, a in enumerate(members):
                add(f"upi:s{a}-flex{chassis}", LinkKind.UPI, upi_gbps)
                for b in members[i + 1:]:
                    add(f"upi:s{a}-s{b}", LinkKind.UPI, upi_gbps)

        # NUMALink bundles between chassis pairs. The per-chassis NUMALink
        # budget is spread over its peers, so each chassis pair gets
        # numalinks_per_chassis / (n_chassis - 1) physical links.
        if self.n_chassis > 1:
            per_pair = max(1, bandwidth.numalinks_per_chassis
                           // (self.n_chassis - 1))
            pair_capacity = bandwidth.numalink_effective_gbps * per_pair
            for a in range(self.n_chassis):
                for b in range(a + 1, self.n_chassis):
                    add(f"numa:c{a}-c{b}", LinkKind.NUMALINK, pair_capacity)

        # Per-socket DRAM channel bundles.
        for socket in range(self.n_sockets):
            add(f"dram:s{socket}", LinkKind.DRAM, bandwidth.local_memory_gbps)

        # The pool: one CXL link per socket plus the pool's DRAM channels.
        if self.has_pool:
            for socket in range(self.n_sockets):
                add(f"cxl:s{socket}", LinkKind.CXL,
                    bandwidth.cxl_per_socket_gbps)
            add("dram:pool", LinkKind.DRAM, bandwidth.pool_memory_gbps)

        return links

    def _check_socket(self, socket: int) -> None:
        if not 0 <= socket < self.n_sockets:
            raise ValueError(
                f"socket {socket} out of range [0, {self.n_sockets})"
            )
