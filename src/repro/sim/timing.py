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

There is one fixed-point solver, :class:`_BatchedKernel`, which iterates
a stack of lanes (sweep points) at once; a single phase of a single
simulation is a one-lane stack (see :func:`evaluate_phases`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.config import CoreConfig, SystemConfig
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
from repro.topology.model import POOL_LOCATION, AccessType, Topology
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
                incidence[row] = index.incidence_row(
                    routes.route(socket, location)
                )
                compiled = routes.compiled(socket, location)
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
                    leg = routes.route(socket, home)[:-1]
                    incidence[row] = index.incidence_row(leg)
                    compiled = index.compile_route(leg)
                    scatter(request_inc, row, compiled.forward_slots)
                    scatter(fill_inc, row, compiled.reverse_slots)

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
        the array equivalent of per-route
        ``add_access_traffic``/``add_transfer_traffic`` loops.
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
#: many sweep lanes sharing one config) can share one instance. Bounded
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
        with identical route geometry (repeated fault states, sweep
        lanes of one config) share one compiled kernel.
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
        (timing,) = evaluate_phases([PhaseRequest(
            self, trace, page_map, calibration, batch=batch,
            fixed_ipc=fixed_ipc, initial_ipc=initial_ipc,
        )])
        return timing

    # -- the stacked-solve seam ------------------------------------------------

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
        """Collect one phase's IPC-independent state for a stacked solve.

        Performs classification (memoized in ``classifications``, see
        :meth:`classify`), link charging, and the per-phase
        contractions -- everything except the fixed point itself.
        Pairs with :meth:`batched_lane` and :meth:`finish_phase`.
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

    def batched_lane(self, inputs: "PhaseInputs",
                     calibration: Optional[CalibratedCpi],
                     initial_ipc: Optional[float] = None,
                     fixed_ipc: Optional[float] = None) -> "BatchedLane":
        """Package :meth:`phase_inputs` output as one stacked-solver lane."""
        index = self.topology.link_index()
        return BatchedLane(
            phase=inputs.trace.phase,
            n_slots=index.n_slots,
            weighted_unloaded=inputs.weighted_unloaded,
            total=float(inputs.classification.total_accesses),
            stall_per_access=inputs.stall_per_access,
            replication_penalty_ns=inputs.replication_penalty_ns,
            extra_cpi=inputs.extra_cpi,
            local_ns=self.system.latency.local_ns,
            instructions_per_thread=inputs.trace.instructions_per_thread,
            core=self.system.core,
            calibration=calibration,
            initial_ipc=initial_ipc or self.population.profile.ipc_16,
            fixed_ipc=fixed_ipc,
            charge=inputs.charge,
            bytes_vec=inputs.loads.bytes_vector,
            capacity=index.capacity_gbps,
            service=index.service_ns,
        )

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

    def _location_of_column(self, column: int) -> int:
        return POOL_LOCATION if column == self._pool_index else column

    def _build_loads(self, classification: PhaseClassification,
                     batch: Optional[MigrationBatch]) -> LinkLoads:
        loads = LinkLoads(self.topology, burstiness=self.settings.burstiness)
        self._vector_kernel().charge(classification, loads)
        if batch is not None:
            self._charge_migrations(loads, batch)
        return loads

    def _charge_migrations(self, loads: LinkLoads,
                           batch: MigrationBatch) -> None:
        for move in batch.moves:
            copy_bytes = move.n_pages * PAGE_SIZE_BYTES * (
                1.0 + MESSAGE_HEADER_BYTES / 64.0
            )
            if move.source == POOL_LOCATION:
                # Data flows pool -> destination: reverse of the
                # destination's pool route.
                route = self.routes.route(move.destination, POOL_LOCATION)
                for hop in route:
                    loads.add(hop.reversed(), copy_bytes)
            else:
                route = self.routes.route(move.source, move.destination)
                for hop in route:
                    loads.add(hop, copy_bytes)
                # Source DRAM read of the page being copied.
                source_dram = self.routes.route(move.source, move.source)[0]
                loads.add(source_dram, copy_bytes)

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
        breakdown = AccessBreakdown()
        n_sockets = classification.n_sockets
        for socket in range(n_sockets):
            for column in range(n_sockets + 1):
                count = classification.demand[socket, column]
                if count <= 0:
                    continue
                kind = self.topology.classify(
                    socket, self._location_of_column(column)
                )
                breakdown.add(kind, count)
        bt_socket_total = float(classification.bt_socket.sum())
        bt_pool_total = float(classification.bt_pool.sum())
        if bt_socket_total:
            breakdown.add(AccessType.BLOCK_TRANSFER_SOCKET, bt_socket_total)
        if bt_pool_total:
            breakdown.add(AccessType.BLOCK_TRANSFER_POOL, bt_pool_total)
        return breakdown


# -- the stacked solve ---------------------------------------------------------


@dataclass
class PhaseRequest:
    """One lane's phase for :func:`evaluate_phases`.

    The arguments of :meth:`PhaseTimingModel.evaluate`, plus the model.
    """

    model: PhaseTimingModel
    trace: PhaseTrace
    page_map: PageMap
    calibration: Optional[CalibratedCpi]
    batch: Optional[MigrationBatch] = None
    fixed_ipc: Optional[float] = None
    initial_ipc: Optional[float] = None
    #: The checkpoint's classification memo (see
    #: :meth:`PhaseTimingModel.classify`); None classifies afresh.
    classifications: Optional[Dict[Optional[str], PhaseClassification]] = None


def evaluate_phases(requests: Sequence[PhaseRequest]) -> List[PhaseTiming]:
    """Run Step C for one phase of every lane in a group, in order.

    Each lane is charged (:meth:`PhaseTimingModel.phase_inputs`), all
    lanes are solved by one stacked fixed point, and each is finished
    (:meth:`PhaseTimingModel.finish_phase`). The group's loop shape comes
    from the first lane's settings; lanes must agree on it (see
    :func:`repro.sim.batch.lane_signature`).

    Every lane gets exactly one ``sim.phase`` span. The spans of a group
    nest: lane ``k``'s opens just before its own charge, and all of them
    close after the shared solve and every lane's finish. Each lane's
    span therefore contains the whole shared solve; for a one-lane group
    the span is exactly the phase's Step C.
    """
    settings = requests[0].model.settings
    with ExitStack() as stack:
        spans, inputs, lanes = [], [], []
        for request in requests:
            spans.append(stack.enter_context(OBS.span(
                "sim.phase", phase=request.trace.phase,
                loop="open" if request.fixed_ipc is not None else "closed",
            )))
            phase_inputs = request.model.phase_inputs(
                request.trace, request.page_map, request.batch,
                request.classifications,
            )
            inputs.append(phase_inputs)
            lanes.append(request.model.batched_lane(
                phase_inputs, request.calibration,
                initial_ipc=request.initial_ipc,
                fixed_ipc=request.fixed_ipc,
            ))
        solutions = _BatchedKernel(lanes, settings).solve()
        timings = []
        for request, phase_inputs, span, solution in zip(
                requests, inputs, spans, solutions):
            timing = request.model.finish_phase(phase_inputs, *solution)
            span.set(ipc=timing.ipc,
                     iterations=timing.fixed_point_iterations,
                     converged=timing.converged)
            timings.append(timing)
    return timings


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


@dataclass
class BatchedLane:
    """One lane (sweep point) of a stacked fixed point, for one phase.

    Array fields hold the lane's *unpadded* per-slot vectors (length
    ``n_slots``); the solver pads to the group width with exact-zero
    contributions (bytes/charge 0, capacity/service 1, so utilization
    and wait are 0 on padded slots). ``fixed_ipc`` marks an open-loop
    (calibration) lane.
    """

    phase: int
    n_slots: int
    weighted_unloaded: float
    total: float
    stall_per_access: float
    replication_penalty_ns: float
    extra_cpi: float
    local_ns: float
    instructions_per_thread: float
    core: "CoreConfig"
    calibration: Optional[CalibratedCpi]
    initial_ipc: float
    fixed_ipc: Optional[float]
    charge: np.ndarray
    bytes_vec: np.ndarray
    capacity: np.ndarray
    service: np.ndarray


class _BatchedKernel:
    """Masked, stacked fixed point across the lanes of one phase.

    Stacks every lane's per-slot byte/capacity/service/charge vectors
    into ``(lanes, width)`` matrices (padded as described on
    :class:`BatchedLane`) and iterates the damped AMAT<->IPC loop over
    all lanes at once: per iteration, one gathered elementwise
    utilization -> waiting-time evaluation over the still-active rows,
    then a per-lane scalar tail. Converged lanes are masked out of the
    next iteration's gather instead of exiting the loop.

    The matrix stage is elementwise (each row sees exactly the
    arithmetic it would see alone) and the reduction is one batched
    ``(lanes, 1, width) @ (lanes, width, 1)`` matmul whose per-row BLAS
    kernel is the same ddot a one-lane stack runs (per-lane sliced dots
    when lane widths differ). Every lane's result is therefore
    bit-identical whatever other lanes share the stack -- which keeps
    sweep checkpoints and exports byte-identical across lane groupings.
    """

    def __init__(self, lanes: Sequence[BatchedLane],
                 settings: FixedPointSettings):
        if not lanes:
            raise ValueError("batched kernel needs at least one lane")
        self.lanes = list(lanes)
        self.settings = settings
        n = len(self.lanes)
        self.width = max(lane.n_slots for lane in self.lanes)
        shape = (n, self.width)
        self.bytes = np.zeros(shape, dtype=np.float64)
        self.capacity = np.ones(shape, dtype=np.float64)
        self.service = np.ones(shape, dtype=np.float64)
        self.charge = np.zeros(shape, dtype=np.float64)
        for row, lane in enumerate(self.lanes):
            s = lane.n_slots
            self.bytes[row, :s] = lane.bytes_vec
            self.capacity[row, :s] = lane.capacity
            self.service[row, :s] = lane.service
            self.charge[row, :s] = lane.charge
        # Iteration scratch, allocated once per solver and reused by
        # every iteration's gather/evaluate.
        self._gather_bytes = np.empty(shape, dtype=np.float64)
        self._gather_cap = np.empty(shape, dtype=np.float64)
        self._gather_service = np.empty(shape, dtype=np.float64)
        self._util = np.empty(shape, dtype=np.float64)
        self._wait = np.empty(shape, dtype=np.float64)
        self._tmp = np.empty(shape, dtype=np.float64)
        self._mask = np.empty(shape, dtype=np.bool_)
        self._windows = np.empty(n, dtype=np.float64)
        self._wincap = np.empty(shape, dtype=np.float64)
        self._gather_charge = np.empty(shape, dtype=np.float64)
        self._dots = np.empty(n, dtype=np.float64)
        self._last_active: Optional[tuple] = None
        self._uniform = all(lane.n_slots == self.width
                            for lane in self.lanes)

    def solve(self) -> List[tuple]:
        """Per-lane ``(ipc, amat_ns, unloaded_ns, iterations, converged)``.

        With obs armed, each closed-loop lane's relative-step trajectory
        is recorded and emitted as a detail-level ``sim.fixed_point``
        record when the lane retires; the iteration itself is
        byte-identical either way.
        """
        lanes = self.lanes
        settings = self.settings
        n = len(lanes)
        results: List[Optional[tuple]] = [None] * n
        ipc = [lane.fixed_ipc if lane.fixed_ipc is not None
               else lane.initial_ipc for lane in lanes]
        last = [(0.0, 0.0)] * n
        # Hoisted per-lane constants: the tail below inlines the
        # ``CalibratedCpi.ipc`` / ``CoreConfig`` call chains with the
        # identical float expressions (``ns * f``, ``c / f``,
        # ``1 / (cpi_core + k * amat**alpha + extra)``), keeping every
        # result bit-identical while dropping five Python calls per lane
        # per iteration; dataclass attribute lookups move out of the
        # loop the same way.
        freq = [lane.core.frequency_ghz for lane in lanes]
        instr = [lane.instructions_per_thread for lane in lanes]
        total = [lane.total for lane in lanes]
        slots = [lane.n_slots for lane in lanes]
        wunl = [lane.weighted_unloaded for lane in lanes]
        stall = [lane.stall_per_access for lane in lanes]
        repl = [lane.replication_penalty_ns for lane in lanes]
        local = [lane.local_ns for lane in lanes]
        extra = [lane.extra_cpi for lane in lanes]
        fixed = [lane.fixed_ipc for lane in lanes]
        cal_core = [lane.calibration.cpi_core if lane.calibration else 0.0
                    for lane in lanes]
        cal_k = [lane.calibration.k_mem if lane.calibration else 0.0
                 for lane in lanes]
        cal_alpha = [lane.calibration.alpha if lane.calibration else 1.0
                     for lane in lanes]
        # The unloaded AMAT never depends on the IPC guess, so its two
        # float ops hoist out of the iteration entirely.
        unloaded = []
        for i in range(n):
            if total[i] == 0:
                unloaded.append(local[i])
            else:
                u = wunl[i] / total[i]
                if repl[i]:
                    u += repl[i]
                unloaded.append(u)
        damping = settings.damping
        undamped = 1.0 - settings.damping
        tolerance = settings.tolerance
        charge = self.charge
        wait = self._wait
        dot = np.dot
        dots = self._dots
        # When every lane fills the full stack width there is no padding
        # to keep out of the reductions, so all the row dot products
        # collapse into one batched matmul. BLAS evaluates each
        # (1, width) @ (width, 1) slice with the same ddot kernel as a
        # one-lane ``charge @ wait``, so the results are bit-identical
        # (mixed-width groups fall back to per-lane sliced dots, which
        # exclude the padding by construction).
        uniform = self._uniform
        matmul = np.matmul
        #: Per-lane relative-step trajectories, recorded only when obs
        #: is armed.
        residuals: Optional[List[list]] = (
            [[] for _ in lanes] if OBS.enabled else None
        )
        active = list(range(n))
        iteration = 0
        while active:
            iteration += 1
            if iteration > settings.max_iterations:
                for i in active:
                    amat_ns, unloaded_ns = last[i]
                    results[i] = (ipc[i], amat_ns, unloaded_ns,
                                  settings.max_iterations, False)
                    self._emit_residuals(i, settings.max_iterations,
                                           False, residuals)
                break
            k = len(active)
            windows = self._windows[:k]
            for row, i in enumerate(active):
                windows[row] = (instr[i] / ipc[i]) / freq[i]
            charge_rows = self._eval_wait(active, windows, k)
            if uniform:
                matmul(charge_rows[:, None, :], wait[:k, :, None],
                       out=dots[:k, None, None])
            still_active = []
            for row, i in enumerate(active):
                unloaded_ns = unloaded[i]
                if total[i] == 0:
                    amat_ns = local[i]
                else:
                    if uniform:
                        queueing_ns = float(dots[row])
                    else:
                        s = slots[i]
                        queueing_ns = float(dot(charge[i, :s],
                                               wait[row, :s]))
                    weighted_loaded = wunl[i] + queueing_ns
                    amat_ns = weighted_loaded / total[i] + stall[i]
                    if repl[i]:
                        amat_ns += repl[i]
                last[i] = (amat_ns, unloaded_ns)
                if fixed[i] is not None:
                    results[i] = (ipc[i], amat_ns, unloaded_ns, 0, True)
                    continue
                target = 1.0 / (
                    cal_core[i]
                    + cal_k[i] * (amat_ns * freq[i]) ** cal_alpha[i]
                    + extra[i]
                )
                new_ipc = damping * target + undamped * ipc[i]
                if residuals is not None:
                    residuals[i].append(abs(new_ipc - ipc[i]) / ipc[i])
                if abs(new_ipc - ipc[i]) <= tolerance * ipc[i]:
                    results[i] = (new_ipc, amat_ns, unloaded_ns,
                                  iteration, True)
                    self._emit_residuals(i, iteration, True, residuals)
                else:
                    ipc[i] = new_ipc
                    still_active.append(i)
            active = still_active
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _emit_residuals(self, lane: int, iterations: int,
                          converged: bool,
                          residuals: Optional[List[list]]) -> None:
        """Detail-level provenance of one lane's closed-loop solve."""
        if residuals is None:
            return
        OBS.detail("sim.fixed_point", phase=self.lanes[lane].phase,
                   iterations=iterations, converged=converged,
                   residuals=residuals[lane])

    def _eval_wait(self, active: List[int], windows: np.ndarray,
                   k: int) -> np.ndarray:
        """Utilization -> wait over the active rows, into scratch.

        Row ``r`` of the ``_wait`` scratch holds lane ``active[r]``'s
        per-slot waiting times; every operation is elementwise (window *
        capacity, bytes over that, then the M/D/1 array expression), so
        a row's values do not depend on the other rows. Returns the charge rows
        in the same order for the caller's batched contraction.
        """
        if k == len(self.lanes):
            # All lanes still active: active is the identity permutation,
            # so skip the gathers and read the stacks directly.
            bytes_rows, cap_rows, service_rows, charge_rows = (
                self.bytes, self.capacity, self.service, self.charge
            )
        else:
            key = tuple(active)
            if key != self._last_active:
                # The active set only changes when a lane converges, so
                # most iterations reuse the previous gather verbatim.
                rows = np.asarray(active, dtype=np.intp)
                self.bytes.take(rows, axis=0,
                                out=self._gather_bytes[:k])
                self.capacity.take(rows, axis=0,
                                   out=self._gather_cap[:k])
                self.service.take(rows, axis=0,
                                  out=self._gather_service[:k])
                self.charge.take(rows, axis=0,
                                 out=self._gather_charge[:k])
                self._last_active = key
            bytes_rows = self._gather_bytes[:k]
            cap_rows = self._gather_cap[:k]
            service_rows = self._gather_service[:k]
            charge_rows = self._gather_charge[:k]
        np.multiply(windows[:, None], cap_rows, out=self._wincap[:k])
        np.divide(bytes_rows, self._wincap[:k], out=self._util[:k])
        mdl_wait_ns_array(
            self._util[:k], service_rows,
            burstiness=self.settings.burstiness,
            out=self._wait[:k], scratch=self._tmp[:k],
            mask=self._mask[:k],
        )
        return charge_rows
