"""Scalar per-route reference of Step C, the oracle for the array solver.

The program evaluates every phase on array kernels: route-incidence
matrices for charging and delay, and one stacked fixed point. This
module is the independent reference they are pinned to (within 1e-9
rel): per-route Python loops that charge each access class hop by hop,
sum the M/D/1 delay along each route, and drive a plain damped fixed
point per phase. It shares the model's inputs (classification,
migration costs, checkpoints, fault-state models) but none of its
kernels.
"""

from repro.interconnect.loads import MESSAGE_HEADER_BYTES, LinkLoads
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
            loads.add_access_traffic(routes.route(socket, location),
                                     accesses=count,
                                     writeback_fraction=writes / count)
        # Socket-homed block transfers: the dominant data hop runs
        # owner -> requester; it is charged along the requester<->home
        # route (minus its DRAM hop) as a proxy for the three-leg path.
        for home in range(n_sockets):
            count = classification.bt_socket[socket, home]
            if count <= 0 or home == socket:
                continue
            loads.add_transfer_traffic(routes.route(socket, home)[:-1],
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
            loads.add(cxl.reversed(), down * (64 + MESSAGE_HEADER_BYTES))
            loads.add(cxl, up * (64 + MESSAGE_HEADER_BYTES))
        # Tracker-update traffic (StarNUMA's monitoring hardware).
        for socket in range(n_sockets):
            issued = float(classification.demand[socket].sum()
                           + classification.bt_socket[socket].sum()
                           + classification.bt_pool[socket])
            dram = routes.route(socket, socket)[0]
            loads.add(dram, issued * TRACKER_BYTES_PER_ACCESS)
    if batch is not None:
        model._charge_migrations(loads, batch)
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
        breakdown=model._breakdown(classification),
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
