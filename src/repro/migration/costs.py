"""Migration overhead model (Sections III-D3 and IV-C).

Three costs are charged for every migrated page:

1. **Shootdown work on the initiating core** -- with DiDi-style hardware
   TLB shootdowns, victim cores pay nothing, but the initiating core
   spends ~3k cycles per page orchestrating the shootdown and waiting for
   completion.
2. **Page-copy traffic** -- 4 KB moves from the source to the destination
   over the interconnect, charged to the links by the timing model.
3. **In-flight stalls** -- accesses to a page whose migration is in flight
   stall until it completes; the expected stall depends on how long a
   page is in flight and how hot it is.

The dedicated OS core that scans the metadata region is accounted as a
fixed core-count overhead (0.2% of a 448-core system), reported but not
charged to AMAT.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, units
from repro.config.parameters import PAGE_SIZE_BYTES
from repro.migration.records import MigrationBatch


@dataclass(frozen=True)
class MigrationCosts:
    """Aggregate overheads of one phase's migrations."""

    pages_migrated: int
    shootdown_cycles: float
    copy_bytes: float
    #: Expected total stall time imposed on accesses that hit in-flight
    #: pages this phase, nanoseconds (summed over all stalled accesses).
    stall_ns_total: float


class MigrationCostModel:
    """Computes per-phase migration overheads for the timing model."""

    def __init__(self, system: SystemConfig):
        self.system = system
        self.migration = system.migration

    def per_page_in_flight_ns(self) -> float:
        """Time one page migration keeps its page inaccessible.

        The copy of a 4 KB page is bottlenecked by the slowest leg of its
        path; we bound it with the NUMALink bandwidth (the slowest coherent
        link) and add the initiating core's shootdown latency.
        """
        copy_ns = units.transfer_time_ns(
            PAGE_SIZE_BYTES, self.system.bandwidth.numalink_gbps
        )
        shootdown_ns = self.system.core.cycles_to_ns(
            self.migration.shootdown_cycles_per_page
        )
        return copy_ns + shootdown_ns

    def costs_for(self, batch: MigrationBatch, counts,
                  phase_duration_ns: float) -> MigrationCosts:
        """Total overheads of ``batch`` given this phase's access counts.

        ``counts`` holds the phase's sparse per-(socket, page) counts (a
        :class:`repro.trace.PhaseTrace`); only the moved pages' entries
        are read, and summed as integers once per batch and trace
        (:meth:`MigrationBatch.accesses_in`). Accesses to a migrating
        page arriving inside its in-flight window stall for half the
        window on average.
        """
        if phase_duration_ns <= 0:
            raise ValueError("phase duration must be positive")
        n_pages = batch.n_pages
        if n_pages == 0:
            return MigrationCosts(0, 0.0, 0.0, 0.0)

        in_flight_ns = self.per_page_in_flight_ns()
        accesses_to_moved = float(batch.accesses_in(counts))
        # Fraction of the phase during which each moved page is in flight,
        # times its accesses, gives the expected number of stalled
        # accesses; each waits in_flight/2 on average.
        in_flight_fraction = min(1.0, in_flight_ns / phase_duration_ns)
        stalled_accesses = accesses_to_moved * in_flight_fraction
        stall_ns_total = stalled_accesses * (in_flight_ns / 2.0)

        return MigrationCosts(
            pages_migrated=n_pages,
            shootdown_cycles=float(
                n_pages * self.migration.shootdown_cycles_per_page
            ),
            copy_bytes=float(n_pages * PAGE_SIZE_BYTES),
            stall_ns_total=stall_ns_total,
        )

    def scan_core_overhead(self) -> float:
        """Fraction of the system's cores dedicated to metadata scanning."""
        return 1.0 / self.system.n_cores
