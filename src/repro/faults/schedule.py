"""Fault events, schedules, and the folded per-phase fault state.

A :class:`FaultEvent` fires at one phase boundary and stays in effect for
the rest of the run (faults here model hardware going bad, not blips; a
repaired device would be a second schedule). Folding all events with
``phase <= p`` yields the :class:`FaultState` governing phase ``p``,
which is hashable so downstream consumers (route tables, timing models)
can cache per distinct state rather than per phase.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.faults.errors import FaultModelError

if TYPE_CHECKING:
    from repro.topology import Topology


class FaultKind(enum.Enum):
    """The injectable fault families."""

    #: One link's per-direction capacity multiplied by ``capacity_factor``.
    LINK_DEGRADE = "link-degrade"
    #: One coherent link removed from the fabric entirely.
    LINK_FAIL = "link-fail"
    #: A chassis' FLEX ASIC dies, taking every socket<->ASIC UPI link of
    #: that chassis -- and with them all of its inter-chassis ports.
    ASIC_FAIL = "asic-fail"
    #: The CXL path slows down: pool access latency multiplied by
    #: ``latency_factor``, CXL/pool-DRAM capacity by ``capacity_factor``.
    POOL_DEGRADE = "pool-degrade"
    #: The pool device goes offline: no new pool placements, resident
    #: pages must be evacuated, in-flight accesses pay a failover penalty.
    POOL_FAIL = "pool-fail"


@dataclass(frozen=True)
class FaultEvent:
    """One fault injected at the boundary into phase ``phase``."""

    kind: FaultKind
    phase: int = 0
    #: Target link id for LINK_DEGRADE / LINK_FAIL.
    link_id: Optional[str] = None
    #: Target chassis for ASIC_FAIL.
    chassis: Optional[int] = None
    #: Capacity multiplier for LINK_DEGRADE / POOL_DEGRADE, in (0, 1].
    capacity_factor: float = 1.0
    #: Unloaded-latency multiplier for POOL_DEGRADE, >= 1.
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.phase < 0:
            raise FaultModelError(f"fault phase must be >= 0, got {self.phase}")
        if self.kind in (FaultKind.LINK_DEGRADE, FaultKind.LINK_FAIL):
            if not self.link_id:
                raise FaultModelError(f"{self.kind.value} needs a link_id")
            if self.link_id.startswith("dram:") and self.kind is FaultKind.LINK_FAIL:
                raise FaultModelError(
                    "DRAM channel failure would lose memory contents; "
                    "model it as LINK_DEGRADE instead"
                )
        if self.kind is FaultKind.ASIC_FAIL and self.chassis is None:
            raise FaultModelError("asic-fail needs a chassis index")
        if self.kind in (FaultKind.LINK_DEGRADE, FaultKind.POOL_DEGRADE):
            if not 0.0 < self.capacity_factor <= 1.0:
                raise FaultModelError(
                    f"capacity_factor must be in (0, 1], got "
                    f"{self.capacity_factor}"
                )
        if self.latency_factor < 1.0:
            raise FaultModelError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind.value, "phase": self.phase}
        if self.link_id is not None:
            out["link_id"] = self.link_id
        if self.chassis is not None:
            out["chassis"] = self.chassis
        if self.capacity_factor != 1.0:
            out["capacity_factor"] = self.capacity_factor
        if self.latency_factor != 1.0:
            out["latency_factor"] = self.latency_factor
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        try:
            kind = FaultKind(data["kind"])
        except (KeyError, ValueError) as exc:
            raise FaultModelError(f"bad fault event {data!r}: {exc}") from None
        return cls(
            kind=kind,
            phase=int(data.get("phase", 0)),
            link_id=data.get("link_id"),  # type: ignore[arg-type]
            chassis=(int(data["chassis"]) if "chassis" in data else None),
            capacity_factor=float(data.get("capacity_factor", 1.0)),
            latency_factor=float(data.get("latency_factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultState:
    """Cumulative effect of every fault in force during one phase.

    Hashable: two phases governed by the same set of events share one
    state object's hash, letting simulators cache one faulted topology /
    route table / timing model per distinct state.
    """

    failed_links: FrozenSet[str] = frozenset()
    failed_asics: FrozenSet[int] = frozenset()
    #: Combined (multiplicative) capacity factors, sorted by link id.
    capacity_factors: Tuple[Tuple[str, float], ...] = ()
    pool_latency_factor: float = 1.0
    pool_failed: bool = False

    @property
    def is_clean(self) -> bool:
        """True when this state changes nothing about the ideal system."""
        return (not self.failed_links and not self.failed_asics
                and not self.capacity_factors
                and self.pool_latency_factor == 1.0
                and not self.pool_failed)

    def capacity_factor(self, link_id: str) -> float:
        for candidate, factor in self.capacity_factors:
            if candidate == link_id:
                return factor
        return 1.0


class FaultSchedule:
    """An ordered set of fault events over a run's phases."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda event: (event.phase, event.kind.value,
                                       event.link_id or "",
                                       -1 if event.chassis is None
                                       else event.chassis)
        )
        self._state_cache: Dict[int, FaultState] = {}

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> "Iterator[FaultEvent]":
        return iter(self.events)

    def first_fault_phase(self) -> Optional[int]:
        return self.events[0].phase if self.events else None

    def pool_failure_phase(self) -> Optional[int]:
        """Earliest phase at which the pool device fails, if ever."""
        phases = [event.phase for event in self.events
                  if event.kind is FaultKind.POOL_FAIL]
        return min(phases) if phases else None

    def at_phase_zero(self) -> "FaultSchedule":
        """The worst-case variant: every event moved to phase 0.

        A fault can only hurt for the phases it is in force, so folding
        the whole schedule onto phase 0 maximizes exposure -- the
        degradation floor any staggered variant of the same events
        should stay above.
        """
        import dataclasses

        return FaultSchedule([dataclasses.replace(event, phase=0)
                              for event in self.events])

    def state_at(self, phase: int) -> FaultState:
        """Fold every event with ``event.phase <= phase`` into one state."""
        if phase < 0:
            raise FaultModelError(f"phase must be >= 0, got {phase}")
        if phase in self._state_cache:
            return self._state_cache[phase]

        failed_links = set()
        failed_asics = set()
        factors: Dict[str, float] = {}
        pool_latency = 1.0
        pool_failed = False
        for event in self.events:
            if event.phase > phase:
                break
            if event.kind is FaultKind.LINK_FAIL:
                failed_links.add(event.link_id)
            elif event.kind is FaultKind.LINK_DEGRADE:
                factors[event.link_id] = (factors.get(event.link_id, 1.0)
                                          * event.capacity_factor)
            elif event.kind is FaultKind.ASIC_FAIL:
                failed_asics.add(event.chassis)
            elif event.kind is FaultKind.POOL_DEGRADE:
                pool_latency *= event.latency_factor
                if event.capacity_factor != 1.0:
                    for target in ("cxl:*", "dram:pool"):
                        factors[target] = (factors.get(target, 1.0)
                                           * event.capacity_factor)
            elif event.kind is FaultKind.POOL_FAIL:
                pool_failed = True
        state = FaultState(
            failed_links=frozenset(failed_links),
            failed_asics=frozenset(failed_asics),
            capacity_factors=tuple(sorted(factors.items())),
            pool_latency_factor=pool_latency,
            pool_failed=pool_failed,
        )
        self._state_cache[phase] = state
        return state

    def validate(self, topology: "Topology") -> None:
        """Check every event targets something that exists in ``topology``."""
        for event in self.events:
            if event.link_id is not None and event.link_id not in topology.links:
                raise FaultModelError(
                    f"fault targets unknown link {event.link_id!r}"
                )
            if event.chassis is not None and not (
                    0 <= event.chassis < topology.n_chassis):
                raise FaultModelError(
                    f"fault targets unknown chassis {event.chassis}"
                )
            if event.kind in (FaultKind.POOL_DEGRADE, FaultKind.POOL_FAIL) \
                    and not topology.has_pool:
                raise FaultModelError(
                    f"{event.kind.value} on a system without a pool"
                )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        events = data.get("events", [])
        if not isinstance(events, list):
            raise FaultModelError("fault schedule 'events' must be a list")
        return cls([FaultEvent.from_dict(event) for event in events])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultModelError(f"bad fault schedule JSON: {exc}") from None
        return cls.from_dict(data)
