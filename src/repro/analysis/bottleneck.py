"""Per-link bottleneck analysis of one simulated phase.

Answers "where do the cycles actually go?" for a given (system, workload,
phase): per-link-direction utilization and waiting time, grouped by link
family, plus the critical resources. Used by the bottleneck example and
by diagnostics in the experiment notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.interconnect.loads import TrafficSample
from repro.sim.engine import Simulator
from repro.topology.model import LinkKind


@dataclass
class BottleneckReport:
    """Link-level view of one phase under a given IPC."""

    phase: int
    ipc: float
    samples: List[TrafficSample]
    by_kind: Dict[LinkKind, float]

    def critical(self, top: int = 5) -> List[TrafficSample]:
        ranked = sorted(self.samples, key=lambda s: s.utilization,
                        reverse=True)
        return ranked[:top]

    def peak_utilization(self, kind: Optional[LinkKind] = None) -> float:
        samples = self.samples
        if kind is not None:
            samples = [s for s in samples
                       if s.link_id.startswith(kind.value)
                       or (kind is LinkKind.NUMALINK
                           and s.link_id.startswith("numa"))]
        if not samples:
            return 0.0
        return max(sample.utilization for sample in samples)


def analyze_phase(simulator: Simulator, phase_index: int, ipc: float,
                  mode: str = "dynamic") -> BottleneckReport:
    """Build the link report of one checkpointed phase at a given IPC."""
    checkpoints = simulator.checkpoints(mode)
    if not 0 <= phase_index < len(checkpoints):
        raise ValueError(
            f"phase {phase_index} out of range [0, {len(checkpoints)})"
        )
    if ipc <= 0:
        raise ValueError(f"ipc must be positive, got {ipc}")
    checkpoint = checkpoints[phase_index]
    trace = simulator.setup.traces[phase_index]

    classification = simulator.timing.classify(
        trace, checkpoint.page_map, checkpoint.classifications
    )
    loads = simulator.timing._build_loads(classification, checkpoint.batch)
    window = simulator.timing._duration_ns(ipc, trace)

    samples: List[TrafficSample] = []
    for link in simulator.topology.links.values():
        from repro.topology.model import DirectedLink

        for forward in (True, False):
            hop = DirectedLink(link, forward)
            sample = loads.sample(hop, window)
            if sample.offered_gbps > 0:
                samples.append(sample)
            if link.kind is LinkKind.DRAM:
                break  # DRAM queues are direction-less

    by_kind: Dict[LinkKind, float] = {}
    for link in simulator.topology.links.values():
        kind_samples = [s for s in samples
                        if simulator.topology.link(s.link_id).kind
                        is link.kind]
        if kind_samples:
            by_kind[link.kind] = max(s.utilization for s in kind_samples)

    return BottleneckReport(phase=checkpoint.phase, ipc=ipc,
                            samples=samples, by_kind=by_kind)
