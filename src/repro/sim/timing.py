"""Step C: phase-level timing via link loading and an AMAT<->IPC fixed point.

For one phase the model:

1. classifies every access (demand by destination, block transfers by
   home type) from the page map;
2. charges request/fill/writeback bytes to every link each access class
   traverses, plus migration page copies and tracker-update traffic;
3. iterates the closed loop: a guessed IPC fixes the phase's wall-clock
   window, hence every link's offered bandwidth, hence M/D/1 waiting
   times, hence the loaded AMAT, hence -- through the calibrated CPI
   model -- a new IPC. Damped iteration converges because waiting time
   is monotone in IPC.

The per-access latency of each class is its unloaded latency plus the
queueing delay accumulated along its route (request and fill directions;
DRAM queues are shared between directions and counted once).

Every phase -- from :meth:`PhaseTimingModel.evaluate` or from
:meth:`repro.sim.engine.Simulator.run` -- is solved by one fixed point,
:meth:`PhaseTimingModel._fixed_point`, over that phase's
:class:`PhaseInputs`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List, Optional,
                    Tuple)

import numpy as np

from repro.config import SystemConfig
from repro.config.parameters import CACHE_BLOCK_BYTES, PAGE_SIZE_BYTES
from repro.interconnect.loads import MESSAGE_HEADER_BYTES, LinkLoads
from repro.interconnect.queueing import mdl_wait_ns_array
from repro.metrics.breakdown import AccessBreakdown
from repro.metrics.calibration import CalibratedCpi
from repro.migration.costs import MigrationCostModel
from repro.obs import OBS
from repro.migration.records import MigrationBatch
from repro.sim.classification import PhaseClassification, classify_phase
from repro.sim.results import PhaseTiming
from repro.placement.pagemap import PageMap
from repro.topology.model import (
    ACCESS_TYPES,
    POOL_LOCATION,
    AccessType,
    Topology,
)
from repro.topology.routing import RouteTable
from repro.trace.records import PhaseTrace
from repro.workloads.population import PagePopulation

if TYPE_CHECKING:
    from repro.replication import ReplicationPlan

#: Per-access bytes of tracker-update traffic (annex flushes by the PTW
#: into the metadata region); a small constant charge on local DRAM.
TRACKER_BYTES_PER_ACCESS = 0.8

#: Contention multiplier of pool-homed block transfers relative to one
#: pool round trip: the 4-hop path crosses the CXL fabric twice.
BT_POOL_CONTENTION_FACTOR = 1.5


@dataclass
class FixedPointSettings:
    """Convergence controls of the IPC<->AMAT iteration."""

    max_iterations: int = 60
    tolerance: float = 1e-3
    damping: float = 0.5
    #: Arrival-burstiness multiplier fed to the queueing model (defaults
    #: to :data:`repro.interconnect.queueing.DEFAULT_BURSTINESS`).
    burstiness: Optional[float] = None

    def __post_init__(self) -> None:
        if self.burstiness is None:
            from repro.interconnect.queueing import DEFAULT_BURSTINESS

            self.burstiness = DEFAULT_BURSTINESS


class _VectorKernel:
    """Precompiled array form of one model's route/latency geometry.

    Routes and unloaded latencies are fixed per (topology, route table)
    pair. Kernels are deduped across models through a module cache keyed
    by :meth:`RouteTable.fingerprint`, so fault states whose reroutes
    collapse to identical surviving geometry share one compiled
    incidence (see :func:`_compiled_kernel`). Rows are the access
    families of the per-route formulation:

    * ``demand`` rows, one per (socket, location column) pair;
    * ``bt-socket`` rows, one per (requester, home) pair (the data leg
      of the 3-hop transfer, zero incidence on the diagonal);
    * ``bt-pool`` rows, one per socket, pre-scaled by the pool
      contention factor.

    ``incidence[r] @ wait_ns_vector`` reproduces the per-route
    request+fill queueing sum of family ``r``'s route; the per-phase
    contraction ``counts @ incidence`` collapses all families into one
    charge vector, making each fixed-point iteration a single
    utilization -> waiting-time -> dot-product pipeline.
    """

    def __init__(self, model: "PhaseTimingModel"):
        topology = model.topology
        routes = model.routes
        index = topology.link_index()
        n = topology.n_sockets
        n_locations = n + 1
        self.has_pool = topology.has_pool
        self.n_demand_rows = n * n_locations
        self.n_bt_rows = n * n
        rows = self.n_demand_rows + self.n_bt_rows + n
        incidence = np.zeros((rows, index.n_slots), dtype=np.float64)
        unloaded = np.zeros(rows, dtype=np.float64)
        #: Byte-charge matrices: row r scattered onto the slots its
        #: request (route direction) and fill (reverse direction)
        #: messages traverse; block-transfer rows carry the data block
        #: forward and the header-sized ack backward.
        request_inc = np.zeros_like(incidence)
        fill_inc = np.zeros_like(incidence)

        def scatter(matrix: np.ndarray, row: int,
                    slots: np.ndarray) -> None:
            np.add.at(matrix[row], slots, 1.0)

        for socket in range(n):
            for column in range(n_locations):
                location = POOL_LOCATION if column == n else column
                if location == POOL_LOCATION and not topology.has_pool:
                    continue  # row stays zero; counts there must be zero
                row = socket * n_locations + column
                kind = topology.classify(socket, location)
                unloaded[row] = (
                    topology.unloaded_latency_ns(kind)
                    + routes.detour_penalty_ns(socket, location)
                )
                compiled = index.compile_route(routes.route(socket, location))
                incidence[row, compiled.delay_slots] = compiled.delay_weights
                scatter(request_inc, row, compiled.forward_slots)
                scatter(fill_inc, row, compiled.reverse_slots)

        bt_socket_ns = topology.unloaded_latency_ns(
            AccessType.BLOCK_TRANSFER_SOCKET
        )
        for socket in range(n):
            for home in range(n):
                row = self.n_demand_rows + socket * n + home
                unloaded[row] = bt_socket_ns
                if home != socket:
                    leg = index.compile_route(routes.route(socket, home)[:-1])
                    incidence[row, leg.delay_slots] = leg.delay_weights
                    scatter(request_inc, row, leg.forward_slots)
                    scatter(fill_inc, row, leg.reverse_slots)

        if topology.has_pool:
            bt_pool_ns = topology.unloaded_latency_ns(
                AccessType.BLOCK_TRANSFER_POOL
            )
            #: First hop of each socket's pool route (the CXL link on the
            #: ideal fabric, possibly a detour under faults): pool-homed
            #: transfer data flows to the requester on its reverse, the
            #: owner's supply on its forward.
            self.pool_fwd_slots = np.empty(n, dtype=np.intp)
            self.pool_rev_slots = np.empty(n, dtype=np.intp)
            self.dram_slots = np.empty(n, dtype=np.intp)
            for socket in range(n):
                row = self.n_demand_rows + self.n_bt_rows + socket
                unloaded[row] = bt_pool_ns
                incidence[row] = index.incidence_row(
                    routes.route(socket, POOL_LOCATION),
                    weight=BT_POOL_CONTENTION_FACTOR,
                )
                first_hop = routes.route(socket, POOL_LOCATION)[0]
                self.pool_fwd_slots[socket] = index.slot(first_hop)
                self.pool_rev_slots[socket] = index.slot(
                    first_hop.reversed()
                )
                self.dram_slots[socket] = index.slot(
                    routes.route(socket, socket)[0]
                )

        self.incidence = incidence
        self.unloaded = unloaded
        self.request_inc = request_inc
        self.fill_inc = fill_inc

    def charge(self, classification: PhaseClassification,
               loads: LinkLoads) -> None:
        """Charge one phase's access traffic onto ``loads``.

        Charges demand, socket-homed block transfers, pool-homed
        transfer legs, and tracker traffic as a handful of
        matrix-vector contractions against the per-slot byte vector --
        the array equivalent of charging each access class route by
        route, hop by hop.
        """
        if not self.has_pool and classification.demand_to_pool() > 0:
            raise ValueError("pool accesses on a pool-less system")
        header = MESSAGE_HEADER_BYTES
        block = CACHE_BLOCK_BYTES + MESSAGE_HEADER_BYTES
        demand = classification.demand.ravel()
        writes = classification.demand_writes.ravel()
        bt = classification.bt_socket.ravel()
        n_demand, n_bt = self.n_demand_rows, self.n_bt_rows
        row_request = np.zeros(self.unloaded.size, dtype=np.float64)
        row_fill = np.zeros(self.unloaded.size, dtype=np.float64)
        # Demand: per-access request header (+ writeback block share)
        # forward, one data fill backward.
        row_request[:n_demand] = demand * header + writes * block
        row_fill[:n_demand] = demand * block
        # Socket-homed block transfers: data block forward, header ack
        # backward, along the DRAM-less data leg.
        row_request[n_demand:n_demand + n_bt] = bt * block
        row_fill[n_demand:n_demand + n_bt] = bt * header
        vec = loads.bytes_vector
        vec += row_request @ self.request_inc
        vec += row_fill @ self.fill_inc

        if self.has_pool:
            # Pool-homed transfers: data to the requester flows pool ->
            # socket (reverse of the request route's first hop); the
            # owner's supply flows socket -> pool (forward).
            down = classification.bt_pool * (64 + MESSAGE_HEADER_BYTES)
            up = classification.bt_pool_owner * (64 + MESSAGE_HEADER_BYTES)
            np.add.at(vec, self.pool_rev_slots, down)
            np.add.at(vec, self.pool_fwd_slots, up)
            # Tracker-update traffic (StarNUMA's monitoring hardware).
            issued = (classification.demand.sum(axis=1)
                      + classification.bt_socket.sum(axis=1)
                      + classification.bt_pool)
            np.add.at(vec, self.dram_slots,
                      issued * TRACKER_BYTES_PER_ACCESS)

    def phase_weights(self, classification: PhaseClassification
                      ) -> tuple:
        """Contract one phase's counts against the precompiled geometry.

        Returns ``(charge, weighted_unloaded)``: the per-slot charge
        vector whose dot product with the waiting-time vector is the
        phase's total queueing-weighted delay, and the IPC-independent
        unloaded-latency sum.
        """
        counts = np.concatenate((
            classification.demand.ravel(),
            classification.bt_socket.ravel(),
            classification.bt_pool,
        ))
        charge = counts @ self.incidence
        weighted_unloaded = float(counts @ self.unloaded)
        return charge, weighted_unloaded


#: Compiled-kernel dedup cache, keyed by route-table fingerprint. A
#: kernel is immutable after construction and reads nothing per-phase,
#: so models whose route tables hash identically (e.g. consecutive
#: fault states that reroute to the same surviving geometry, or the
#: many simulators of one config) can share one instance. Bounded
#: LRU: a 16-socket kernel's matrices run to a few MB.
_KERNEL_CACHE: "OrderedDict[str, _VectorKernel]" = OrderedDict()
_KERNEL_CACHE_LIMIT = 16


def _compiled_kernel(model: "PhaseTimingModel") -> _VectorKernel:
    """Fetch or build the compiled kernel for ``model``'s route table."""
    key = model.routes.fingerprint()
    cached = _KERNEL_CACHE.get(key)
    if cached is not None:
        _KERNEL_CACHE.move_to_end(key)
        OBS.counter("sim.kernel.compile_cache_hit")
        return cached
    kernel = _VectorKernel(model)
    OBS.counter("sim.kernel.compiled")
    _KERNEL_CACHE[key] = kernel
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_LIMIT:
        _KERNEL_CACHE.popitem(last=False)
    return kernel


#: Topology and route table of each fabric a run times, keyed by what
#: the pair is built from: the frozen :class:`SystemConfig` for an
#: ideal fabric, ``(SystemConfig, FaultState)`` for a faulted one. Every
#: simulator of one system -- the many workloads of a figure -- shares
#: one ideal pair, and every simulator reaching one fault state shares
#: one faulted pair, with the table's memoized fingerprint and
#: migration slots. A state that partitions the fabric raises while its
#: table is built, so it is never stored. Bounded LRU over both kinds.
_GEOMETRY_CACHE: "OrderedDict[Hashable, Tuple[Topology, RouteTable]]" = (
    OrderedDict())
_GEOMETRY_CACHE_LIMIT = 8


def shared_geometry(key: Hashable, build: Callable[[], Topology]
                    ) -> Tuple[Topology, RouteTable]:
    """The cached ``(Topology, RouteTable)`` under ``key``.

    On a miss, ``build()`` makes the topology and its route table is
    built from it; nothing is stored if either raises.
    """
    cached = _GEOMETRY_CACHE.get(key)
    if cached is not None:
        _GEOMETRY_CACHE.move_to_end(key)
        return cached
    topology = build()
    geometry = (topology, RouteTable(topology))
    _GEOMETRY_CACHE[key] = geometry
    while len(_GEOMETRY_CACHE) > _GEOMETRY_CACHE_LIMIT:
        _GEOMETRY_CACHE.popitem(last=False)
    return geometry


def system_geometry(system: SystemConfig) -> Tuple[Topology, RouteTable]:
    """The shared ``(Topology, RouteTable)`` of ``system``'s ideal fabric."""
    return shared_geometry(system, lambda: Topology(system))


class PhaseTimingModel:
    """Evaluates the loaded AMAT and IPC of one phase."""

    def __init__(self, system: SystemConfig, topology: Topology,
                 routes: RouteTable, population: PagePopulation,
                 settings: Optional[FixedPointSettings] = None,
                 replication: Optional["ReplicationPlan"] = None):
        self.system = system
        self.topology = topology
        self.routes = routes
        self.population = population
        self.settings = settings or FixedPointSettings()
        self.cost_model = MigrationCostModel(system)
        #: Optional :class:`~repro.replication.ReplicationPlan`; accesses
        #: to replicated pages are served locally, writes pay the plan's
        #: software-coherence penalty.
        self.replication = replication
        #: This model's key in a checkpoint's classification memo (see
        #: :meth:`classify`): the replication mask's content, if any.
        self._classification_key: Optional[str] = None
        if replication is not None:
            self._classification_key = hashlib.blake2b(
                replication.replicated.tobytes()).hexdigest()
        self._pool_index = topology.n_sockets
        self._kernel: Optional[_VectorKernel] = None

    def _vector_kernel(self) -> _VectorKernel:
        """The compiled array kernel of this model (built on first use).

        Resolved through the fingerprint-keyed module cache, so models
        with identical route geometry (repeated fault states, simulators
        of one config) share one compiled kernel.
        """
        if self._kernel is None:
            self._kernel = _compiled_kernel(self)
        return self._kernel

    # -- public ------------------------------------------------------------

    def evaluate(self, trace: PhaseTrace, page_map: PageMap,
                 calibration: CalibratedCpi,
                 batch: Optional[MigrationBatch] = None,
                 fixed_ipc: Optional[float] = None,
                 initial_ipc: Optional[float] = None) -> PhaseTiming:
        """Run Step C for one phase.

        ``batch`` holds the migrations performed during this phase (their
        copies and stalls are charged here). With ``fixed_ipc`` the closed
        loop is bypassed -- used for the calibration pass, where the
        baseline runs at its published IPC.
        """
        return self._run_phase(trace, page_map, calibration, batch=batch,
                               fixed_ipc=fixed_ipc, initial_ipc=initial_ipc)

    def _run_phase(self, trace: PhaseTrace, page_map: PageMap,
                   calibration: Optional[CalibratedCpi],
                   batch: Optional[MigrationBatch] = None,
                   fixed_ipc: Optional[float] = None,
                   initial_ipc: Optional[float] = None,
                   classifications: Optional[
                       Dict[Optional[str], PhaseClassification]] = None
                   ) -> PhaseTiming:
        """Step C for one phase: the one path into the fixed point.

        Shared by :meth:`evaluate` and
        :meth:`repro.sim.engine.Simulator.run`: one ``sim.phase`` span
        around :meth:`phase_inputs`, :meth:`_fixed_point` and
        :meth:`finish_phase`. ``classifications`` is the checkpoint's
        classification memo (see :meth:`classify`).
        """
        with OBS.span("sim.phase", phase=trace.phase,
                      loop="open" if fixed_ipc is not None else "closed"
                      ) as span:
            inputs = self.phase_inputs(trace, page_map, batch,
                                       classifications)
            solution = self._fixed_point(
                inputs, calibration,
                initial_ipc or self.population.profile.ipc_16, fixed_ipc)
            timing = self.finish_phase(inputs, *solution)
            span.set(ipc=timing.ipc,
                     iterations=timing.fixed_point_iterations,
                     converged=timing.converged)
        return timing

    # -- the phase pipeline ------------------------------------------------

    def classify(self, trace: PhaseTrace, page_map: PageMap,
                 memo: Optional[
                     Dict[Optional[str], PhaseClassification]] = None
                 ) -> PhaseClassification:
        """Classify one phase's accesses under ``page_map``.

        ``memo`` is the checkpoint's classification cache
        (:attr:`repro.sim.engine.Checkpoint.classifications`). Beyond
        the trace, the map and the population it belongs with,
        classification reads only the replication plan's mask, so
        entries are keyed by that mask's content and shared by every
        model -- any topology, fault state or system -- that reads the
        same checkpoint.
        """
        key = self._classification_key
        if memo is not None and key in memo:
            return memo[key]
        classification = classify_phase(trace, page_map,
                                        self.population, self.replication)
        if memo is not None:
            memo[key] = classification
        return classification

    def phase_inputs(self, trace: PhaseTrace, page_map: PageMap,
                     batch: Optional[MigrationBatch] = None,
                     classifications: Optional[
                         Dict[Optional[str], PhaseClassification]] = None
                     ) -> "PhaseInputs":
        """Collect one phase's IPC-independent state for the solve.

        Performs classification (memoized in ``classifications``, see
        :meth:`classify`), link charging, and the per-phase
        contractions -- everything except the fixed point itself.
        Pairs with :meth:`_fixed_point` and :meth:`finish_phase`.
        """
        classification = self.classify(trace, page_map, classifications)
        with OBS.span("sim.charge", phase=trace.phase):
            loads = self._build_loads(classification, batch)
        stall_total_ns, extra_cpi = self._migration_overheads(trace, batch)
        stall_per_access = (
            stall_total_ns / classification.total_accesses
            if classification.total_accesses else 0.0
        )
        charge, weighted_unloaded = self._vector_kernel().phase_weights(
            classification
        )
        penalty = 0.0
        if (self.replication is not None
                and classification.replicated_writes
                and classification.total_accesses):
            # Software coherence for replicas: every write to a
            # replicated page pays the invalidation broadcast.
            penalty = (classification.replicated_writes
                       * self.replication.write_penalty_ns
                       ) / classification.total_accesses
        return PhaseInputs(
            trace=trace,
            classification=classification,
            loads=loads,
            batch=batch,
            charge=charge,
            weighted_unloaded=weighted_unloaded,
            stall_per_access=stall_per_access,
            extra_cpi=extra_cpi,
            replication_penalty_ns=penalty,
        )

    def _fixed_point(self, inputs: "PhaseInputs",
                     calibration: Optional[CalibratedCpi],
                     initial_ipc: float,
                     fixed_ipc: Optional[float] = None
                     ) -> Tuple[float, float, float, int, bool]:
        """The damped AMAT<->IPC loop of one phase.

        Returns ``(ipc, amat_ns, unloaded_ns, iterations, converged)``.
        Per iteration the IPC guess fixes the window, hence every slot's
        utilization and M/D/1 wait (into buffers allocated once per
        phase), hence the loaded AMAT; the calibrated CPI model then
        gives the next IPC. The scalar tail inlines the
        ``CalibratedCpi.ipc`` / ``CoreConfig`` call chains as Python
        floats with the identical expressions (``ns * f``, ``c / f``,
        ``1 / (cpi_core + k * amat**alpha + extra)``). With
        ``fixed_ipc`` (open loop) the first AMAT is the answer.

        With obs armed, a closed loop's relative-step trajectory is
        emitted as a detail-level ``sim.fixed_point`` record; the
        iteration itself is byte-identical either way.
        """
        settings = self.settings
        index = self.topology.link_index()
        capacity, service = index.capacity_gbps, index.service_ns
        bytes_vec, charge = inputs.loads.bytes_vector, inputs.charge
        freq = self.system.core.frequency_ghz
        instructions = inputs.trace.instructions_per_thread
        total = float(inputs.classification.total_accesses)
        weighted_unloaded = inputs.weighted_unloaded
        stall = inputs.stall_per_access
        replication = inputs.replication_penalty_ns
        # The unloaded AMAT never depends on the IPC guess.
        if total == 0:
            unloaded_ns = self.system.latency.local_ns
        else:
            unloaded_ns = weighted_unloaded / total
            if replication:
                unloaded_ns += replication
        wincap = np.empty_like(capacity)
        util = np.empty_like(capacity)
        wait = np.empty_like(capacity)
        scratch = np.empty_like(capacity)
        mask = np.empty(capacity.shape, dtype=np.bool_)
        damping = settings.damping
        undamped = 1.0 - settings.damping
        residuals: Optional[List[float]] = [] if OBS.enabled else None
        ipc = fixed_ipc if fixed_ipc is not None else initial_ipc
        amat_ns = 0.0
        for iteration in range(1, settings.max_iterations + 1):
            if total == 0:
                amat_ns = unloaded_ns  # the local latency
            else:
                window = (instructions / ipc) / freq
                np.multiply(window, capacity, out=wincap)
                np.divide(bytes_vec, wincap, out=util)
                mdl_wait_ns_array(util, service,
                                  burstiness=settings.burstiness,
                                  out=wait, scratch=scratch, mask=mask)
                queueing_ns = float(np.dot(charge, wait))
                amat_ns = (weighted_unloaded + queueing_ns) / total + stall
                if replication:
                    amat_ns += replication
            if fixed_ipc is not None:
                return ipc, amat_ns, unloaded_ns, 0, True
            assert calibration is not None  # checked by Simulator.run
            target = 1.0 / (
                calibration.cpi_core
                + calibration.k_mem * (amat_ns * freq) ** calibration.alpha
                + inputs.extra_cpi
            )
            new_ipc = damping * target + undamped * ipc
            if residuals is not None:
                residuals.append(abs(new_ipc - ipc) / ipc)
            if abs(new_ipc - ipc) <= settings.tolerance * ipc:
                self._emit_residuals(inputs, iteration, True, residuals)
                return new_ipc, amat_ns, unloaded_ns, iteration, True
            ipc = new_ipc
        self._emit_residuals(inputs, settings.max_iterations, False,
                             residuals)
        return ipc, amat_ns, unloaded_ns, settings.max_iterations, False

    @staticmethod
    def _emit_residuals(inputs: "PhaseInputs", iterations: int,
                        converged: bool,
                        residuals: Optional[List[float]]) -> None:
        """Detail-level provenance of one closed-loop solve."""
        if residuals is not None:
            OBS.detail("sim.fixed_point", phase=inputs.trace.phase,
                       iterations=iterations, converged=converged,
                       residuals=residuals)

    def finish_phase(self, inputs: "PhaseInputs", ipc: float,
                     amat_ns: float, unloaded_ns: float,
                     iterations: int, converged: bool) -> PhaseTiming:
        """Assemble the :class:`PhaseTiming` of a solved phase.

        Adds the breakdown, duration, and hottest links, and emits the
        phase's ``sim.timing`` and ``interconnect.utilization`` events.
        """
        trace = inputs.trace
        classification = inputs.classification
        batch = inputs.batch
        breakdown = self._breakdown(classification)
        duration = self._duration_ns(ipc, trace)
        busiest = inputs.loads.busiest(duration, top=3)
        hottest = {
            sample.link_id: sample.utilization
            for sample in busiest
        }
        if OBS.enabled:
            OBS.counter("sim.phases")
            OBS.counter("sim.fixed_point.iterations", iterations)
            OBS.observe("sim.fixed_point.iterations_per_phase",
                        iterations)
            OBS.event(
                "sim.timing", phase=trace.phase, ipc=ipc, amat_ns=amat_ns,
                unloaded_amat_ns=unloaded_ns, duration_ns=duration,
                iterations=iterations, converged=converged,
                total_accesses=classification.total_accesses,
                migrated_pages=batch.n_pages if batch else 0,
            )
            if busiest:
                OBS.event(
                    "interconnect.utilization", phase=trace.phase,
                    top=[sample.as_attrs() for sample in busiest],
                )
        return PhaseTiming(
            phase=trace.phase,
            ipc=ipc,
            duration_ns=duration,
            amat_ns=amat_ns,
            unloaded_amat_ns=unloaded_ns,
            breakdown=breakdown,
            total_accesses=classification.total_accesses,
            migrated_pages=batch.n_pages if batch else 0,
            migrated_pages_to_pool=batch.pages_to_pool if batch else 0,
            migration_stall_ns_per_access=inputs.stall_per_access,
            fixed_point_iterations=iterations,
            converged=converged,
            hottest_links=hottest,
        )

    # -- loading -------------------------------------------------------------

    def _duration_ns(self, ipc: float, trace: PhaseTrace) -> float:
        cycles = trace.instructions_per_thread / ipc
        return self.system.core.cycles_to_ns(cycles)

    def _build_loads(self, classification: PhaseClassification,
                     batch: Optional[MigrationBatch]) -> LinkLoads:
        loads = LinkLoads(self.topology, burstiness=self.settings.burstiness)
        self._vector_kernel().charge(classification, loads)
        if batch is not None:
            self._charge_migrations(loads, batch)
        return loads

    def _charge_migrations(self, loads: LinkLoads,
                           batch: MigrationBatch) -> None:
        """Charge every move's page copies to the links they cross.

        Each move adds its copy bytes to the slots
        :meth:`RouteTable.migration_slots` lists for its (source,
        destination) pair. One ``np.add.at`` adds them in move order,
        then hop order, one addition at a time, so every slot sums the
        same terms in the same order as a per-hop loop.
        """
        moves = batch.moves
        if not moves:
            return
        n = self._pool_index
        sources = np.array([move.source for move in moves], dtype=np.intp)
        destinations = np.array([move.destination for move in moves],
                                dtype=np.intp)
        pages = np.array([move.n_pages for move in moves], dtype=np.int64)
        copy_bytes = pages * PAGE_SIZE_BYTES * (
            1.0 + MESSAGE_HEADER_BYTES / 64.0
        )
        slots = self.routes.migration_slots()[
            np.where(sources == POOL_LOCATION, n, sources),
            np.where(destinations == POOL_LOCATION, n, destinations)]
        charged = slots >= 0
        np.add.at(loads.bytes_vector, slots[charged],
                  np.broadcast_to(copy_bytes[:, None], slots.shape)[charged])

    # -- overheads -----------------------------------------------------------

    def _migration_overheads(self, trace: PhaseTrace,
                             batch: Optional[MigrationBatch]) -> tuple:
        """(total stall ns, amortized extra CPI) of this phase's batch."""
        if batch is None or batch.n_pages == 0:
            return 0.0, 0.0
        # Phase duration for the stall estimate uses the anchor IPC; the
        # second-order error of not re-evaluating it inside the fixed
        # point is negligible (stalls are a small AMAT term).
        duration = self._duration_ns(self.population.profile.ipc_16, trace)
        costs = self.cost_model.costs_for(batch, trace, duration)
        threads = self.system.cores_per_socket * self.topology.n_sockets
        extra_cpi = costs.shootdown_cycles / (
            trace.instructions_per_thread * threads
        )
        return costs.stall_ns_total, extra_cpi

    def _breakdown(self, classification: PhaseClassification
                   ) -> AccessBreakdown:
        """Fig. 8c's access counts of one phase, by type.

        Demand cells are binned by :meth:`Topology.access_kinds` with one
        ``np.bincount`` over the cells with demand, in row-major order:
        each bin adds its counts from zero in that order, as per-cell
        :meth:`AccessBreakdown.add` calls do. Kinds enter the dict in
        order of first occurrence, which is the order
        :attr:`AccessBreakdown.total` sums them in.
        """
        demand = classification.demand
        cells = demand > 0
        codes = self.topology.access_kinds()[cells]
        if codes.size and codes.min() < 0:
            raise ValueError("system has no memory pool")
        sums = np.bincount(codes, weights=demand[cells],
                           minlength=len(ACCESS_TYPES))
        _, first = np.unique(codes, return_index=True)
        breakdown = AccessBreakdown()
        for code in codes[np.sort(first)]:
            breakdown.counts[ACCESS_TYPES[code]] = sums[code]
        bt_socket_total = float(classification.bt_socket.sum())
        bt_pool_total = float(classification.bt_pool.sum())
        if bt_socket_total:
            breakdown.add(AccessType.BLOCK_TRANSFER_SOCKET, bt_socket_total)
        if bt_pool_total:
            breakdown.add(AccessType.BLOCK_TRANSFER_POOL, bt_pool_total)
        return breakdown


@dataclass
class PhaseInputs:
    """IPC-independent pieces of one phase's Step-C evaluation.

    Produced by :meth:`PhaseTimingModel.phase_inputs` before the solve;
    consumed by :meth:`PhaseTimingModel.finish_phase` after it.
    """

    trace: PhaseTrace
    classification: PhaseClassification
    loads: LinkLoads
    batch: Optional[MigrationBatch]
    charge: np.ndarray
    weighted_unloaded: float
    stall_per_access: float
    extra_cpi: float
    replication_penalty_ns: float
