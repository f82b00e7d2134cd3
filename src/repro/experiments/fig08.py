"""Fig. 8: the main results.

Three views over the same pair of runs per workload:

* **8a** -- StarNUMA speedup over the baseline, for the T_16 and T_0
  region monitoring mechanisms (paper: 1.54x and 1.35x on average, up to
  2.17x; POA at 1.0x).
* **8b** -- AMAT decomposed into unloaded latency and contention delay
  (paper: 48% average AMAT reduction).
* **8c** -- memory access breakdown by type (local / 1-hop / 2-hop /
  pool / block transfers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import TrackerKind
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.topology.model import AccessType


@dataclass
class Fig8Results:
    """The three sub-figures, each as an ExperimentResult."""

    speedup: ExperimentResult
    amat: ExperimentResult
    breakdown: ExperimentResult

    @property
    def table(self) -> str:
        return "\n\n".join(result.table for result in
                           (self.speedup, self.amat, self.breakdown))


def run(context: Optional[ExperimentContext] = None) -> Fig8Results:
    context = context or ExperimentContext()
    t16 = context.starnuma_system(tracker=TrackerKind.T16)
    t0 = context.starnuma_system(tracker=TrackerKind.T0)

    speedup_rows: List[tuple] = []
    amat_rows: List[tuple] = []
    breakdown_rows: List[tuple] = []
    speedups_t16: List[float] = []
    speedups_t0: List[float] = []
    reductions: List[float] = []

    kinds = (AccessType.LOCAL, AccessType.INTRA_CHASSIS,
             AccessType.INTER_CHASSIS, AccessType.POOL,
             AccessType.BLOCK_TRANSFER_SOCKET,
             AccessType.BLOCK_TRANSFER_POOL)

    for name in context.workload_names:
        baseline = context.baseline_result(name)
        star = context.run(t16, name)
        star_t0 = context.run(t0, name)

        speedup_t16 = star.speedup_over(baseline)
        speedup_t0 = star_t0.speedup_over(baseline)
        speedups_t16.append(speedup_t16)
        speedups_t0.append(speedup_t0)
        speedup_rows.append((name, speedup_t16, speedup_t0))

        reduction = star.amat_reduction_over(baseline)
        reductions.append(reduction)
        amat_rows.append((
            name,
            baseline.unloaded_amat_ns, baseline.contention_ns,
            baseline.amat_ns,
            star.unloaded_amat_ns, star.contention_ns, star.amat_ns,
            reduction,
        ))

        for label, result in (("baseline", baseline), ("starnuma", star)):
            fractions = result.access_fractions()
            breakdown_rows.append(
                (name, label)
                + tuple(float(fractions.get(kind, 0.0)) for kind in kinds)
            )

    mean_t16 = sum(speedups_t16) / len(speedups_t16)
    mean_t0 = sum(speedups_t0) / len(speedups_t0)
    mean_reduction = sum(reductions) / len(reductions)

    speedup = ExperimentResult(
        experiment="fig8a",
        headers=("workload", "speedup_t16", "speedup_t0"),
        rows=speedup_rows,
        notes=(f"mean T16 {mean_t16:.2f}x (paper 1.54x), "
               f"T0 {mean_t0:.2f}x (paper 1.35x), "
               f"max {max(speedups_t16):.2f}x (paper 2.17x)"),
    )
    amat = ExperimentResult(
        experiment="fig8b",
        headers=("workload", "base_unloaded_ns", "base_contention_ns",
                 "base_amat_ns", "star_unloaded_ns", "star_contention_ns",
                 "star_amat_ns", "amat_reduction"),
        rows=amat_rows,
        notes=f"mean AMAT reduction {mean_reduction:.0%} (paper 48%)",
    )
    breakdown = ExperimentResult(
        experiment="fig8c",
        headers=("workload", "system") + tuple(kind.value for kind in kinds),
        rows=breakdown_rows,
        notes="fractions of all LLC-missing accesses",
    )
    return Fig8Results(speedup=speedup, amat=amat, breakdown=breakdown)
