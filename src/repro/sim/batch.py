"""Lane groups: many simulations, one fixed point per phase.

A *lane* is one sweep point -- a (system, workload, mode) simulation.
:func:`run_lanes` runs Step B for every lane of a group, then evaluates
the group phase by phase: each phase is one stacked fixed point
(:func:`repro.sim.timing.evaluate_phases`) across all lanes. A single
:meth:`repro.sim.engine.Simulator.run` is a one-lane group.

Compatibility: lanes batch together when they share the phase count and
the fixed-point loop shape (``max_iterations``, ``tolerance``,
``damping``, ``burstiness`` -- see :func:`lane_signature`). Different
topologies (baseline vs StarNUMA, faulted vs clean) stack fine: each
lane's slot vectors are padded to the group width with exact-zero
contributions, so padding never changes a result. Open-loop
(calibration) and closed-loop lanes may share a group.

Every lane's numbers are bit-identical whatever other lanes share its
group -- the stacked matrix stage is elementwise and the reduction is
per row -- which is what keeps sweep checkpoints and exports
byte-identical across ``--batch-lanes`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.metrics.calibration import CalibratedCpi
from repro.obs import OBS
from repro.placement.pagemap import PageMap
from repro.sim.results import PhaseTiming, SimulationResult
from repro.sim.timing import PhaseRequest, evaluate_phases

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


@dataclass
class LaneSpec:
    """One sweep point: a simulator plus how to drive it.

    Mirrors the arguments of :meth:`repro.sim.engine.Simulator.run`;
    ``fixed_ipc`` marks an open-loop (calibration) lane.
    """

    simulator: "Simulator"
    mode: str = "dynamic"
    static_map: Optional[PageMap] = None
    calibration: Optional[CalibratedCpi] = None
    fixed_ipc: Optional[float] = None
    warmup_phases: int = 2


def lane_signature(spec: LaneSpec) -> Tuple:
    """Batching-compatibility key: lanes batch iff signatures match.

    Covers the shared fixed-point loop shape (one masked loop drives
    the whole group) and the phase count (phases advance in lockstep).
    Topology, workload, mode, and open- vs closed-loop may all differ
    within one group.
    """
    settings = spec.simulator.timing.settings
    return (
        len(spec.simulator.setup.traces),
        settings.max_iterations,
        settings.tolerance,
        settings.damping,
        settings.burstiness,
    )


def plan_groups(specs: Sequence[LaneSpec],
                batch_lanes: int) -> List[List[int]]:
    """Partition lane indices into compatible groups of ``batch_lanes``.

    Lanes with matching :func:`lane_signature` batch together (chunked
    to the requested group size); incompatible lanes land in their own
    groups.
    """
    if batch_lanes < 1:
        raise ValueError(f"batch_lanes must be >= 1, got {batch_lanes}")
    by_signature: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    for i, spec in enumerate(specs):
        signature = lane_signature(spec)
        if signature not in by_signature:
            by_signature[signature] = []
            order.append(signature)
        by_signature[signature].append(i)
    groups: List[List[int]] = []
    for signature in order:
        members = by_signature[signature]
        for start in range(0, len(members), batch_lanes):
            groups.append(members[start:start + batch_lanes])
    return groups


def _validate_group(specs: Sequence[LaneSpec]) -> None:
    if not specs:
        raise ValueError("batched run needs at least one lane")
    signature = lane_signature(specs[0])
    for spec in specs[1:]:
        if lane_signature(spec) != signature:
            raise ValueError(
                "lanes are not batch-compatible; group them with "
                "plan_groups() first"
            )
    for spec in specs:
        if spec.fixed_ipc is None and spec.calibration is None:
            raise ValueError("closed-loop timing needs a calibration")
        n_phases = len(spec.simulator.setup.traces)
        if spec.warmup_phases >= n_phases:
            raise ValueError(
                f"warmup ({spec.warmup_phases}) must leave at least one "
                f"measured phase of {n_phases}"
            )


def run_lanes(specs: Sequence[LaneSpec]) -> List[SimulationResult]:
    """Evaluate a compatible lane group, one stacked solve per phase.

    Returns one :class:`SimulationResult` per lane, in order. Each lane
    chains its own IPC from phase to phase; the first ``warmup_phases``
    phases are simulated (they evolve the page map) but excluded from
    aggregates.
    """
    _validate_group(specs)
    checkpoints = [spec.simulator.checkpoints(spec.mode, spec.static_map)
                   for spec in specs]
    n_phases = len(specs[0].simulator.setup.traces)
    previous: List[Optional[float]] = [None] * len(specs)
    timings: List[List[PhaseTiming]] = [[] for _ in specs]
    with OBS.span("sim.batch.run", lanes=len(specs), phases=n_phases):
        for p in range(n_phases):
            requests = []
            for i, spec in enumerate(specs):
                simulator = spec.simulator
                trace = simulator.setup.traces[p]
                checkpoint = checkpoints[i][p]
                requests.append(PhaseRequest(
                    simulator._phase_timing_model(trace.phase), trace,
                    checkpoint.page_map, spec.calibration,
                    batch=checkpoint.batch, fixed_ipc=spec.fixed_ipc,
                    initial_ipc=previous[i],
                    classifications=checkpoint.classifications,
                ))
            for i, timing in enumerate(evaluate_phases(requests)):
                previous[i] = timing.ipc
                timings[i].append(timing)

    return [
        _assemble_result(spec, checkpoints[i], timings[i])
        for i, spec in enumerate(specs)
    ]


def _migration_totals(checkpoints) -> Tuple[int, int]:
    """(demand pages, pool pages) migrated over a run's checkpoints."""
    demand_pages = 0
    pool_pages = 0
    for checkpoint in checkpoints:
        if checkpoint.batch is None:
            continue
        for move in checkpoint.batch.moves:
            if move.from_pool:
                continue  # victim evictions are not demand migrations
            demand_pages += move.n_pages
            if move.to_pool:
                pool_pages += move.n_pages
    return demand_pages, pool_pages


def _assemble_result(spec: LaneSpec, checkpoints,
                     timings: List[PhaseTiming]) -> SimulationResult:
    demand_pages, pool_pages = _migration_totals(checkpoints)
    setup = spec.simulator.setup
    return SimulationResult(
        workload=setup.profile.name,
        config_name=spec.simulator.system.name,
        phases=timings[spec.warmup_phases:],
        pages_migrated=demand_pages,
        pages_migrated_to_pool=pool_pages,
    )
