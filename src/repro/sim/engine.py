"""Simulation engine: orchestrates trace synthesis, migration, and timing.

Scaling: the simulated footprint (tens of thousands of pages) stands in
for the real multi-gigabyte one, so per-phase access volumes are scaled by
the footprint ratio. This keeps per-region access densities -- and hence
tracker-threshold dynamics -- identical to the full-scale system's, while
offered bandwidths are unchanged (both accesses and wall-clock window
scale together). It is the same commensurate-scaling idea the paper
applies to cores, channels, and link bandwidths (Table II).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig, units
from repro.config.parameters import PAGE_SIZE_BYTES
from repro.faults import FaultSchedule, FaultState, faulted_topology
from repro.faults.degraded import PoolEvacuator
from repro.metrics.calibration import CalibratedCpi, calibrate_cpi
from repro.migration import (
    BaselinePolicy,
    MigrationBatch,
    RegionTable,
    StarNumaPolicy,
    oracular_static_placement,
)
from repro.obs import OBS
from repro.placement import PoolCapacityManager, first_touch_placement
from repro.placement.pagemap import PageMap
from repro.sim.classification import PhaseClassification
from repro.sim.results import PhaseTiming, SimulationResult
from repro.sim.timing import (
    FixedPointSettings,
    PhaseTimingModel,
    shared_geometry,
    system_geometry,
)
from repro.topology import RouteTable
from repro.trace import PhaseTrace, TraceSynthesizer
from repro.workloads import PagePopulation, WorkloadProfile, build_population

if TYPE_CHECKING:
    from repro.replication import ReplicationPlan

#: Floor on the simulated per-phase instruction count after footprint
#: scaling, so tiny simulated footprints still execute meaningful phases.
MIN_PHASE_INSTRUCTIONS = 1_000_000

#: Minimum effective per-phase migration budget, in regions, after
#: footprint scaling. The paper picks the best-performing limit per
#: workload/system from a 0..256K-page sweep; scaling the budget exactly
#: with the footprint would starve small simulated instances, so a floor
#: keeps the policy inside its productive operating range.
MIN_MIGRATION_REGIONS = 32


@dataclass
class Checkpoint:
    """Step B output for one phase: memory state plus in-flight migrations.

    ``classifications`` memoizes this phase's access classification
    under ``page_map``, keyed by replication plan (see
    :meth:`~repro.sim.timing.PhaseTimingModel.classify`): every run
    that reads the checkpoint -- other systems sharing its Step B, the
    calibration run, bottleneck analysis -- classifies it once. Step B
    takes the dict from :meth:`SimulationSetup.classification_memo`, so
    checkpoints of one phase with equal maps share it, across Step B
    lists too (a fault rung that falls back to the baseline policy, or
    a run before its pool fails).
    """

    phase: int
    page_map: PageMap
    batch: Optional[MigrationBatch]
    classifications: Dict[Optional[str], PhaseClassification] = field(
        default_factory=dict, repr=False, compare=False)


@dataclass
class SimulationSetup:
    """Shared, config-independent inputs of one workload instance.

    Population and traces depend only on the workload, the socket count,
    the per-socket thread count, and the seed -- never on which system
    variant is being timed -- so one setup is reused across every
    configuration of an experiment for a like-for-like comparison.

    The setup also holds the Step B outputs computed from it, keyed by
    everything else Step B reads (:meth:`Simulator.step_b_key`): the
    mode and static map, ``has_pool``, the migration config, and -- with
    a pool -- its capacity fraction and failure phase. Systems that
    differ only in latency, bandwidth or link faults therefore share
    one list of checkpoints, and a pool dead from the start shares the
    pool-less list. Classification memos are kept by content,
    one per phase and page map (:meth:`classification_memo`), so lists
    whose maps agree at a phase classify it once. It also keeps the
    first-touch page locations (:meth:`Simulator.initial_page_map`),
    which depend only on the seed and the population. These caches
    live and die with the setup; a copy made with
    ``dataclasses.replace`` starts with none of them.
    """

    profile: WorkloadProfile
    population: PagePopulation
    traces: List[PhaseTrace]
    seed: int
    _checkpoints: Dict[Tuple, List[Checkpoint]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _classifications: Dict[
        Tuple[int, bytes], Dict[Optional[str], PhaseClassification]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)
    _first_touch: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(cls, profile: WorkloadProfile, system: SystemConfig,
               n_phases: int = 8, seed: int = 0,
               layout: str = "clustered",
               phase_multiplier: int = 1) -> "SimulationSetup":
        """Build the population and synthesize ``n_phases`` phases.

        ``phase_multiplier`` lengthens every phase (see
        :meth:`scaled_phase_instructions`); the population is the same.
        """
        population = build_population(
            profile,
            n_sockets=system.n_sockets,
            sockets_per_chassis=system.sockets_per_chassis,
            seed=seed,
            layout=layout,
        )
        instructions = cls.scaled_phase_instructions(profile, system,
                                                     phase_multiplier)
        synthesizer = TraceSynthesizer(
            population,
            threads_per_socket=system.cores_per_socket,
            instructions_per_thread=instructions,
            seed=seed,
        )
        return cls(
            profile=profile,
            population=population,
            traces=synthesizer.synthesize(n_phases),
            seed=seed,
        )

    @staticmethod
    def footprint_scale(profile: WorkloadProfile) -> float:
        """Simulated-to-real footprint ratio."""
        real_bytes = units.gb_to_bytes(profile.footprint_gb)
        sim_bytes = profile.n_pages_sim * PAGE_SIZE_BYTES
        return sim_bytes / real_bytes

    @staticmethod
    def scaled_phase_instructions(profile: WorkloadProfile,
                                  system: SystemConfig,
                                  multiplier: int = 1) -> int:
        """Per-thread instructions of one simulated phase.

        The nominal phase length comes from the system configuration
        (``migration.phase_instructions``), scaled by the footprint ratio
        and floored so small simulated instances still run meaningful
        phases. ``multiplier`` lengthens phases (the SC2 configuration of
        Fig. 14 runs 3x-longer phases).
        """
        nominal = system.migration.phase_instructions
        scale = SimulationSetup.footprint_scale(profile)
        return max(MIN_PHASE_INSTRUCTIONS, int(nominal * scale * multiplier))

    def classification_memo(self, phase: int, page_map: PageMap
                            ) -> Dict[Optional[str], PhaseClassification]:
        """The classification memo of ``phase`` under ``page_map``.

        Classification reads the phase's trace, the population and the
        map's locations (plus a replication plan, which keys the entries
        inside), so the memo is keyed by the phase and a hash of the
        locations: every checkpoint of that phase with an equal map gets
        the same dict.
        """
        digest = hashlib.blake2b(page_map.locations.tobytes(),
                                 digest_size=16).digest()
        return self._classifications.setdefault((phase, digest), {})

    def total_counts(self) -> np.ndarray:
        """Whole-run (socket, page) access counts -- the oracle's input.

        Built on demand as a dense int64 matrix and never kept: an
        exact integer scatter-add of every phase's values.
        """
        first = self.traces[0].index
        total = np.zeros(first.n_sockets * first.n_pages, dtype=np.int64)
        for trace in self.traces:
            # Flat cells are unique within a phase, so += cannot collide.
            total[trace.index.flat] += trace.values
        return total.reshape(first.shape)


class Simulator:
    """Runs Steps B and C for one (workload, system) pair."""

    def __init__(self, system: SystemConfig, setup: SimulationSetup,
                 settings: Optional[FixedPointSettings] = None,
                 replication: Optional["ReplicationPlan"] = None,
                 faults: Optional[FaultSchedule] = None):
        system.validate()
        if setup.population.n_sockets != system.n_sockets:
            raise ValueError(
                "setup was built for a different socket count; create a "
                "new SimulationSetup for this system"
            )
        self.system = system
        self.setup = setup
        self.topology, self.routes = system_geometry(system)
        self.faults = faults if faults is not None else FaultSchedule()
        self.faults.validate(self.topology)
        self._settings = settings
        self._replication = replication
        self.timing = PhaseTimingModel(
            system, self.topology, self.routes, setup.population, settings,
            replication=replication,
        )
        self._fault_timing: Dict[FaultState, PhaseTimingModel] = {}

    def _phase_timing_model(self, phase: int) -> PhaseTimingModel:
        """The timing model for one phase's fault state.

        Clean phases (and fault-free runs) reuse the single ideal model,
        so an empty schedule is exactly the historical code path. Each
        distinct faulted state gets one model per simulator, on the
        ``(Topology, RouteTable)`` every simulator of this system shares
        for that state (:func:`~repro.sim.timing.shared_geometry`). May
        raise :class:`~repro.faults.PartitionedTopologyError` while
        computing routes if the state severs part of the fabric; such a
        state is never cached, so every call raises.
        """
        if self.faults.is_empty:
            return self.timing
        state = self.faults.state_at(phase)
        if state.is_clean:
            return self.timing
        if state not in self._fault_timing:
            topology, routes = shared_geometry(
                (self.system, state),
                lambda: faulted_topology(self.topology, state))
            self._fault_timing[state] = PhaseTimingModel(
                self.system, topology, routes,
                self.setup.population, self._settings,
                replication=self._replication,
            )
            if OBS.enabled:
                OBS.counter("faults.states_compiled")
                OBS.event(
                    "faults.transition", phase=phase,
                    n_removed_links=len(
                        getattr(topology, "removed_links", ())
                    ),
                    pool_failed=bool(getattr(state, "pool_failed",
                                             False)),
                    reroutes=self._count_reroutes(routes),
                )
        return self._fault_timing[state]

    def _count_reroutes(self, routes: RouteTable) -> int:
        """(requester, location) pairs forced onto a detour path."""
        n = self.topology.n_sockets
        locations = list(range(n))
        if self.topology.has_pool:
            from repro.topology.model import POOL_LOCATION

            locations.append(POOL_LOCATION)
        return sum(
            1
            for socket in range(n)
            for location in locations
            if socket != location
            and routes.detour_penalty_ns(socket, location) > 0.0
        )

    # -- Step B --------------------------------------------------------------

    @property
    def effective_migration_limit(self) -> int:
        """Per-phase migration budget after footprint scaling, pages."""
        migration = self.system.migration
        if migration.migration_limit_override_pages is not None:
            return migration.migration_limit_override_pages
        scaled = int(migration.migration_limit_pages
                     * SimulationSetup.footprint_scale(self.setup.profile))
        floor = MIN_MIGRATION_REGIONS * migration.pages_per_region
        return max(floor, scaled)

    def initial_page_map(self) -> PageMap:
        """The first-touch map, on a copy of the setup's locations.

        The draw reads only the seed, the sharer masks and the socket
        count, all fixed by the setup, so it runs once per setup;
        ``has_pool`` only sets the map's flag.
        """
        setup = self.setup
        if setup._first_touch is None:
            rng = np.random.default_rng((setup.seed, 0xf157))
            setup._first_touch = first_touch_placement(
                setup.population.sharer_mask, self.system.n_sockets,
                has_pool=False, rng=rng,
            ).locations
        return PageMap(setup._first_touch.copy(), self.system.n_sockets,
                       self.topology.has_pool)

    def static_oracle_map(self) -> PageMap:
        """The Fig. 9 oracular static placement for this architecture."""
        totals = self.setup.total_counts()
        capacity = None
        if self.topology.has_pool:
            capacity = PoolCapacityManager(
                self.setup.population.n_pages,
                self.system.pool.capacity_fraction,
            )
        return oracular_static_placement(
            totals,
            self.setup.population.sharer_count.astype(np.int64),
            has_pool=self.topology.has_pool,
            capacity=capacity,
            pool_sharer_threshold=self.system.migration.pool_sharer_threshold,
        )

    def _decides_as_baseline(self) -> bool:
        """True when dynamic Step B makes exactly the baseline's decisions.

        That is without a pool, and with a pool that fails before the
        first batch executes: degraded mode then engages at the first
        decision, finds nothing to evacuate from a first-touch map, and
        hands every phase to the baseline policy.
        """
        if not self.topology.has_pool:
            return True
        fail_phase = self.faults.pool_failure_phase()
        return (fail_phase is not None
                and fail_phase <= self.setup.traces[0].phase + 1)

    def step_b_key(self, mode: str = "dynamic",
                   static_map: Optional[PageMap] = None) -> Tuple:
        """The sharing key of :meth:`checkpoints`.

        It holds everything Step B reads beyond the setup's traces,
        seed and population: the mode, the static map, ``has_pool``,
        the migration config, and -- only with a pool -- its capacity
        fraction and failure phase. Latencies, bandwidths and link
        faults are absent because Step B never reads them. A dynamic
        run that decides as the baseline (:meth:`_decides_as_baseline`)
        is keyed by what :class:`BaselinePolicy` reads, its page budget,
        so a pool dead from the start shares the pool-less list. Step C
        never reads the maps' ``has_pool`` flag, which such lists do not
        agree on.

        An explicit ``static_map`` is keyed by its content, never by
        identity, so a new map that reuses a collected one's ``id``
        cannot pick up the old map's checkpoints.
        """
        map_key = None
        if static_map is not None:
            map_key = (static_map.n_sockets, static_map.has_pool,
                       hashlib.blake2b(static_map.locations.tobytes())
                       .hexdigest())
        if mode == "dynamic" and self._decides_as_baseline():
            return ("baseline-policy", mode, map_key,
                    self.effective_migration_limit)
        has_pool = self.topology.has_pool
        pool = None
        if has_pool:
            pool = (self.system.pool.capacity_fraction,
                    self.faults.pool_failure_phase())
        return (mode, map_key, has_pool, self.system.migration, pool)

    def checkpoints(self, mode: str = "dynamic",
                    static_map: Optional[PageMap] = None) -> List[Checkpoint]:
        """Run Step B once per distinct input (decisions ignore timing).

        ``mode``:

        * ``"dynamic"`` -- first-touch start, then the architecture's
          policy each phase (Algorithm 1 with the pool, the
          perfect-knowledge policy without);
        * ``"static"`` -- fixed ``static_map`` (or the oracle), no
          migrations;
        * ``"none"`` -- first-touch only, no migrations.

        The result is cached on the setup under :meth:`step_b_key`, so
        every simulator of that setup whose system agrees on the key
        gets the same list. Callers must treat it as read-only.
        """
        key = self.step_b_key(mode, static_map)
        cache = self.setup._checkpoints
        if key not in cache:
            with OBS.span("sim.step_b", mode=mode,
                          workload=self.setup.profile.name,
                          config=self.system.name):
                cache[key] = self._run_step_b(mode, static_map)
        return cache[key]

    def _run_step_b(self, mode: str,
                    static_map: Optional[PageMap]) -> List[Checkpoint]:
        if mode not in ("dynamic", "static", "none"):
            raise ValueError(f"unknown mode {mode!r}")
        traces = self.setup.traces

        if mode == "static":
            page_map = static_map or self.static_oracle_map()
            return [self._checkpoint(trace.phase, page_map.copy(), None)
                    for trace in traces]
        if mode == "none":
            page_map = self.initial_page_map()
            return [self._checkpoint(trace.phase, page_map.copy(), None)
                    for trace in traces]

        page_map = self.initial_page_map()
        checkpoints: List[Checkpoint] = []
        pending: Optional[MigrationBatch] = None
        decide = self._make_policy(page_map)
        for trace in traces:
            # The map already reflects all prior decisions; the batch
            # decided at the previous phase's end executes (and is
            # charged) during this phase.
            checkpoints.append(
                self._checkpoint(trace.phase, page_map.copy(), pending)
            )
            pending = decide(trace, page_map)
        return checkpoints

    def _checkpoint(self, phase: int, page_map: PageMap,
                    batch: Optional[MigrationBatch]) -> Checkpoint:
        """A checkpoint holding the setup's memo for its phase and map."""
        return Checkpoint(phase, page_map, batch,
                          self.setup.classification_memo(phase, page_map))

    def _make_policy(self, initial_map: PageMap):
        """Build this architecture's per-phase decision function."""
        migration = self.system.migration
        import dataclasses

        scaled = dataclasses.replace(
            migration, migration_limit_pages=self.effective_migration_limit
        )
        if not self._decides_as_baseline():
            rng = np.random.default_rng((self.setup.seed, 0x9019))
            regions = RegionTable(initial_map, migration.pages_per_region)
            capacity = PoolCapacityManager(
                self.setup.population.n_pages,
                self.system.pool.capacity_fraction,
            )
            from repro.tracking import RegionTrackerArray

            tracker = RegionTrackerArray(
                regions.n_regions, self.system.n_sockets, migration.tracker
            )
            policy = StarNumaPolicy(scaled, regions, capacity, rng)
            fail_phase = self.faults.pool_failure_phase()
            evacuator = PoolEvacuator(
                regions, capacity, self.setup.population.sharer_mask,
                self.system.n_sockets,
            )
            fallback = BaselinePolicy(scaled)

            def decide(trace: PhaseTrace, page_map: PageMap) -> MigrationBatch:
                region_counts = regions.aggregate_page_counts(trace)
                tracker.update(region_counts)
                locations = regions.region_locations(page_map)
                # The batch decided here executes during the *next* phase,
                # so degraded mode engages as soon as that phase sees the
                # pool failed: no pool-bound moves, drain residents under
                # the budget, then behave like the baseline policy.
                if fail_phase is not None and trace.phase + 1 >= fail_phase:
                    if not evacuator.drained(locations):
                        batch = MigrationBatch(phase=trace.phase + 1)
                        evacuator.evacuate_phase(
                            region_counts, locations, page_map,
                            scaled.migration_limit_pages, batch,
                        )
                    else:
                        batch = fallback.decide(trace, page_map)
                    tracker.reset()
                    return batch
                batch = policy.decide(tracker, locations, page_map)
                tracker.reset()
                return batch

            return decide

        policy = BaselinePolicy(scaled)

        def decide(trace: PhaseTrace, page_map: PageMap) -> MigrationBatch:
            return policy.decide(trace, page_map)

        return decide

    # -- Step C --------------------------------------------------------------

    def run(self, calibration: Optional[CalibratedCpi] = None,
            mode: str = "dynamic",
            static_map: Optional[PageMap] = None,
            fixed_ipc: Optional[float] = None,
            warmup_phases: int = 2) -> SimulationResult:
        """Run Step C over every checkpoint and aggregate.

        ``fixed_ipc`` runs open-loop at that IPC (the calibration pass);
        otherwise ``calibration`` must be provided for the closed loop.
        Each phase starts its fixed point from the previous phase's IPC.
        The first ``warmup_phases`` phases are simulated (they evolve the
        page map) but excluded from aggregates, standing in for the longer
        pre-steady-state execution of the real runs.
        """
        if fixed_ipc is None and calibration is None:
            raise ValueError("closed-loop timing needs a calibration")
        traces = self.setup.traces
        if warmup_phases >= len(traces):
            raise ValueError(
                f"warmup ({warmup_phases}) must leave at least one "
                f"measured phase of {len(traces)}"
            )
        timings: List[PhaseTiming] = []
        previous: Optional[float] = None
        with OBS.span("sim.run", workload=self.setup.profile.name,
                      config=self.system.name, mode=mode,
                      phases=len(traces)):
            checkpoints = self.checkpoints(mode, static_map)
            for trace, checkpoint in zip(traces, checkpoints):
                timing = self._phase_timing_model(trace.phase)._run_phase(
                    trace, checkpoint.page_map, calibration,
                    batch=checkpoint.batch, fixed_ipc=fixed_ipc,
                    initial_ipc=previous,
                    classifications=checkpoint.classifications,
                )
                previous = timing.ipc
                timings.append(timing)
        demand_pages, pool_pages = _migration_totals(checkpoints)
        return SimulationResult(
            workload=self.setup.profile.name,
            config_name=self.system.name,
            phases=timings[warmup_phases:],
            pages_migrated=demand_pages,
            pages_migrated_to_pool=pool_pages,
        )

    # -- calibration -----------------------------------------------------------

    def calibrate(self, mode: str = "dynamic") -> CalibratedCpi:
        """Fit the CPI model from an open-loop pass at the published IPC.

        Only meaningful on the baseline architecture: the anchors of Table
        III were measured there.
        """
        open_loop = self.run(fixed_ipc=self.setup.profile.ipc_16, mode=mode)
        return calibrate_cpi(
            self.setup.profile,
            open_loop.amat_ns,
            self.system.core,
            self.system.latency.local_ns,
        )


def _migration_totals(checkpoints: List[Checkpoint]) -> Tuple[int, int]:
    """(demand pages, pool pages) migrated over a run's checkpoints.

    Victim evictions out of the pool are not demand migrations. Each
    batch counted its totals as its moves were added.
    """
    demand_pages = 0
    pool_pages = 0
    for checkpoint in checkpoints:
        if checkpoint.batch is not None:
            demand_pages += checkpoint.batch.demand_pages
            pool_pages += checkpoint.batch.demand_pages_to_pool
    return demand_pages, pool_pages
