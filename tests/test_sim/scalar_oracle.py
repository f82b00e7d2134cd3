"""Scalar per-route reference of Step C, the oracle for the array solver.

The program evaluates every phase on array kernels: route-incidence
matrices for charging and delay, and one stacked fixed point. This
module is the independent reference they are pinned to (within 1e-9
rel): per-route Python loops that charge each access class hop by hop,
sum the M/D/1 delay along each route, and drive a plain damped fixed
point per phase. It shares the model's inputs (classification,
migration costs, checkpoints, fault-state models) but none of its
kernels.

It also keeps the per-phase bookkeeping as plain loops: the access
breakdown one cell at a time (:func:`breakdown`) and the migration
copies one hop at a time (:func:`charge_migrations`), over the per-hop
recording functions (:func:`add` and friends) that charge a
:class:`LinkLoads` byte vector one link direction at a time. The array
passes of ``PhaseTimingModel`` are pinned to these bit for bit.
"""

from repro.config.parameters import CACHE_BLOCK_BYTES, PAGE_SIZE_BYTES
from repro.interconnect.loads import MESSAGE_HEADER_BYTES, LinkLoads
from repro.metrics.breakdown import AccessBreakdown
from repro.metrics.calibration import calibrate_cpi
from repro.sim.engine import _migration_totals
from repro.sim.classification import classify_phase
from repro.sim.results import PhaseTiming, SimulationResult
from repro.sim.timing import (
    BT_POOL_CONTENTION_FACTOR,
    TRACKER_BYTES_PER_ACCESS,
)
from repro.topology.model import POOL_LOCATION, AccessType, LinkKind


def _location(column, n_sockets):
    return POOL_LOCATION if column == n_sockets else column


# -- per-hop recording --------------------------------------------------------


def add(loads, hop, n_bytes):
    """Charge ``n_bytes`` of traffic to one direction of a link."""
    if n_bytes < 0:
        raise ValueError(f"traffic bytes must be >= 0, got {n_bytes}")
    loads.bytes_vector[loads.index.slot(hop)] += n_bytes


def add_access_traffic(loads, route, accesses, writeback_fraction,
                       block_bytes=CACHE_BLOCK_BYTES):
    """Charge the traffic of ``accesses`` LLC misses along ``route``.

    Every miss sends a small request in the route direction and pulls a
    data fill in the reverse direction; a ``writeback_fraction`` of
    misses additionally push a dirty block in the route direction.
    """
    if accesses < 0:
        raise ValueError(f"access count must be >= 0, got {accesses}")
    if not 0.0 <= writeback_fraction <= 1.0:
        raise ValueError(
            f"writeback fraction must be in [0, 1], got {writeback_fraction}"
        )
    request_bytes = accesses * (
        MESSAGE_HEADER_BYTES
        + writeback_fraction * (block_bytes + MESSAGE_HEADER_BYTES)
    )
    fill_bytes = accesses * (block_bytes + MESSAGE_HEADER_BYTES)
    for hop in route:
        add(loads, hop, request_bytes)
        add(loads, hop.reversed(), fill_bytes)


def add_transfer_traffic(loads, route, transfers,
                         block_bytes=CACHE_BLOCK_BYTES):
    """Charge coherence block-transfer data movement along ``route``.

    Block-transfer routes are already oriented in the data direction
    (see :meth:`RouteTable.block_transfer_route`), so the data block is
    charged forward and only a header-sized ack flows back.
    """
    if transfers < 0:
        raise ValueError(f"transfer count must be >= 0, got {transfers}")
    data_bytes = transfers * (block_bytes + MESSAGE_HEADER_BYTES)
    ack_bytes = transfers * MESSAGE_HEADER_BYTES
    for hop in route:
        add(loads, hop, data_bytes)
        add(loads, hop.reversed(), ack_bytes)


def fill_delay_ns(loads, route, window_ns):
    """Total queueing delay along the data-fill direction of a route.

    The fill traverses each hop of the requester->memory route in
    reverse; this is the delay component that inflates the latency of a
    demand load, so it is what AMAT contention accounts.
    """
    return sum(loads.delay_ns(hop.reversed(), window_ns) for hop in route)


def transfer_delay_ns(loads, route, window_ns):
    """Queueing delay along an already data-oriented transfer route."""
    return sum(loads.delay_ns(hop, window_ns) for hop in route)


# -- per-phase bookkeeping ----------------------------------------------------


def charge_migrations(model, loads, batch):
    """Charge every move's page copies, move by move and hop by hop."""
    for move in batch.moves:
        copy_bytes = move.n_pages * PAGE_SIZE_BYTES * (
            1.0 + MESSAGE_HEADER_BYTES / 64.0
        )
        if move.source == POOL_LOCATION:
            # Data flows pool -> destination: reverse of the
            # destination's pool route.
            route = model.routes.route(move.destination, POOL_LOCATION)
            for hop in route:
                add(loads, hop.reversed(), copy_bytes)
        else:
            route = model.routes.route(move.source, move.destination)
            for hop in route:
                add(loads, hop, copy_bytes)
            # Source DRAM read of the page being copied.
            source_dram = model.routes.route(move.source, move.source)[0]
            add(loads, source_dram, copy_bytes)


def breakdown(model, classification):
    """Fig. 8c's access counts of one phase, one demand cell at a time."""
    result = AccessBreakdown()
    n_sockets = classification.n_sockets
    for socket in range(n_sockets):
        for column in range(n_sockets + 1):
            count = classification.demand[socket, column]
            if count <= 0:
                continue
            kind = model.topology.classify(
                socket, _location(column, n_sockets)
            )
            result.add(kind, count)
    bt_socket_total = float(classification.bt_socket.sum())
    bt_pool_total = float(classification.bt_pool.sum())
    if bt_socket_total:
        result.add(AccessType.BLOCK_TRANSFER_SOCKET, bt_socket_total)
    if bt_pool_total:
        result.add(AccessType.BLOCK_TRANSFER_POOL, bt_pool_total)
    return result


# -- the charge and the solve -------------------------------------------------


def build_loads(model, classification, batch=None):
    """Charge one phase route by route, plus its migration copies."""
    topology, routes = model.topology, model.routes
    loads = LinkLoads(topology, burstiness=model.settings.burstiness)
    n_sockets = classification.n_sockets
    for socket in range(n_sockets):
        for column in range(n_sockets + 1):
            count = classification.demand[socket, column]
            if count <= 0:
                continue
            location = _location(column, n_sockets)
            if location == POOL_LOCATION and not topology.has_pool:
                raise ValueError("pool accesses on a pool-less system")
            writes = classification.demand_writes[socket, column]
            add_access_traffic(loads, routes.route(socket, location),
                               accesses=count,
                               writeback_fraction=writes / count)
        # Socket-homed block transfers: the dominant data hop runs
        # owner -> requester; it is charged along the requester<->home
        # route (minus its DRAM hop) as a proxy for the three-leg path.
        for home in range(n_sockets):
            count = classification.bt_socket[socket, home]
            if count <= 0 or home == socket:
                continue
            add_transfer_traffic(loads, routes.route(socket, home)[:-1],
                                 transfers=count)
    if topology.has_pool:
        for socket in range(n_sockets):
            down = classification.bt_pool[socket]
            up = classification.bt_pool_owner[socket]
            if down <= 0 and up <= 0:
                continue
            cxl = routes.route(socket, POOL_LOCATION)[0]
            # Data to the requester flows pool -> socket; the owner's
            # supply flows socket -> pool.
            add(loads, cxl.reversed(), down * (64 + MESSAGE_HEADER_BYTES))
            add(loads, cxl, up * (64 + MESSAGE_HEADER_BYTES))
        # Tracker-update traffic (StarNUMA's monitoring hardware).
        for socket in range(n_sockets):
            issued = float(classification.demand[socket].sum()
                           + classification.bt_socket[socket].sum()
                           + classification.bt_pool[socket])
            dram = routes.route(socket, socket)[0]
            add(loads, dram, issued * TRACKER_BYTES_PER_ACCESS)
    if batch is not None:
        charge_migrations(model, loads, batch)
    return loads


def route_delay_ns(route, loads, window_ns):
    """Request+fill queueing along a route; DRAM queues counted once."""
    total = 0.0
    for hop in route:
        total += loads.delay_ns(hop, window_ns)
        if hop.link.kind is not LinkKind.DRAM:
            total += loads.delay_ns(hop.reversed(), window_ns)
    return total


def amat_at(model, ipc, trace, classification, loads, stall_per_access):
    """(loaded, unloaded) AMAT of one phase at one IPC guess."""
    topology, routes = model.topology, model.routes
    window = model._duration_ns(ipc, trace)
    n_sockets = classification.n_sockets
    weighted_loaded = 0.0
    weighted_unloaded = 0.0
    for socket in range(n_sockets):
        for column in range(n_sockets + 1):
            count = classification.demand[socket, column]
            if count <= 0:
                continue
            location = _location(column, n_sockets)
            unloaded = (
                topology.unloaded_latency_ns(
                    topology.classify(socket, location))
                + routes.detour_penalty_ns(socket, location)
            )
            delay = route_delay_ns(routes.route(socket, location), loads,
                                   window)
            weighted_loaded += count * (unloaded + delay)
            weighted_unloaded += count * unloaded
        for home in range(n_sockets):
            count = classification.bt_socket[socket, home]
            if count <= 0:
                continue
            unloaded = topology.unloaded_latency_ns(
                AccessType.BLOCK_TRANSFER_SOCKET)
            contention = 0.0 if home == socket else route_delay_ns(
                routes.route(socket, home)[:-1], loads, window)
            weighted_loaded += count * (unloaded + contention)
            weighted_unloaded += count * unloaded
        count = classification.bt_pool[socket]
        if count > 0:
            unloaded = topology.unloaded_latency_ns(
                AccessType.BLOCK_TRANSFER_POOL)
            contention = BT_POOL_CONTENTION_FACTOR * route_delay_ns(
                routes.route(socket, POOL_LOCATION), loads, window)
            weighted_loaded += count * (unloaded + contention)
            weighted_unloaded += count * unloaded

    total = classification.total_accesses
    if total == 0:
        local = model.system.latency.local_ns
        return local, local
    amat = weighted_loaded / total + stall_per_access
    unloaded_amat = weighted_unloaded / total
    if model.replication is not None and classification.replicated_writes:
        penalty = (classification.replicated_writes
                   * model.replication.write_penalty_ns) / total
        amat += penalty
        unloaded_amat += penalty
    return amat, unloaded_amat


def evaluate(model, trace, page_map, calibration, batch=None,
             fixed_ipc=None, initial_ipc=None):
    """One phase of Step C: charge, then a damped per-phase fixed point."""
    classification = classify_phase(trace, page_map,
                                    model.population, model.replication)
    loads = build_loads(model, classification, batch)
    stall_total_ns, extra_cpi = model._migration_overheads(trace, batch)
    total = classification.total_accesses
    stall_per_access = stall_total_ns / total if total else 0.0

    def amat(ipc):
        return amat_at(model, ipc, trace, classification, loads,
                       stall_per_access)

    if fixed_ipc is not None:
        ipc = fixed_ipc
        amat_ns, unloaded_ns = amat(ipc)
        iterations, converged = 0, True
    else:
        settings = model.settings
        ipc = initial_ipc or model.population.profile.ipc_16
        iterations, converged = settings.max_iterations, False
        for iteration in range(1, settings.max_iterations + 1):
            amat_ns, unloaded_ns = amat(ipc)
            target = calibration.ipc(
                model.system.core.ns_to_cycles(amat_ns), extra_cpi)
            new_ipc = (settings.damping * target
                       + (1.0 - settings.damping) * ipc)
            if abs(new_ipc - ipc) <= settings.tolerance * ipc:
                ipc, iterations, converged = new_ipc, iteration, True
                break
            ipc = new_ipc
    return PhaseTiming(
        phase=trace.phase,
        ipc=ipc,
        duration_ns=model._duration_ns(ipc, trace),
        amat_ns=amat_ns,
        unloaded_amat_ns=unloaded_ns,
        breakdown=breakdown(model, classification),
        total_accesses=total,
        migration_stall_ns_per_access=stall_per_access,
        fixed_point_iterations=iterations,
        converged=converged,
    )


def run(simulator, calibration=None, mode="dynamic", fixed_ipc=None,
        warmup_phases=2):
    """The reference counterpart of :meth:`Simulator.run`."""
    checkpoints = simulator.checkpoints(mode)
    timings = []
    previous = None
    for checkpoint, trace in zip(checkpoints, simulator.setup.traces):
        timing = evaluate(simulator._phase_timing_model(trace.phase), trace,
                          checkpoint.page_map, calibration,
                          batch=checkpoint.batch, fixed_ipc=fixed_ipc,
                          initial_ipc=previous)
        previous = timing.ipc
        timings.append(timing)
    demand_pages, pool_pages = _migration_totals(checkpoints)
    return SimulationResult(
        workload=simulator.setup.profile.name,
        config_name=simulator.system.name,
        phases=timings[warmup_phases:],
        pages_migrated=demand_pages,
        pages_migrated_to_pool=pool_pages,
    )


def calibrate(simulator):
    """The reference counterpart of :meth:`Simulator.calibrate`."""
    profile = simulator.setup.profile
    open_loop = run(simulator, fixed_ipc=profile.ipc_16)
    system = simulator.system
    return calibrate_cpi(profile, open_loop.amat_ns, system.core,
                         system.latency.local_ns)
