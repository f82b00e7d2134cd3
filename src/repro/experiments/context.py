"""Shared experiment state: setups, calibrations, cached runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, baseline_config, starnuma_config
from repro.metrics.calibration import CalibratedCpi
from repro.metrics.report import format_table
from repro.sim import SimulationResult, SimulationSetup, Simulator
from repro.workloads import WorkloadProfile, all_workloads, get_workload

#: Default evaluation horizon: enough phases for Algorithm 1's adaptive
#: thresholds to converge, with the pre-steady-state prefix excluded.
DEFAULT_PHASES = 12
DEFAULT_WARMUP = 4


@dataclass
class ExperimentResult:
    """Uniform output of every experiment runner."""

    experiment: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""

    @property
    def table(self) -> str:
        title = f"[{self.experiment}]"
        if self.notes:
            title = f"{title} {self.notes}"
        return format_table(self.headers, self.rows, title=title)

    def row_map(self, key_column: int = 0) -> Dict[object, Sequence[object]]:
        """Index rows by one column (usually the workload name)."""
        return {row[key_column]: row for row in self.rows}


class ExperimentContext:
    """Caches workload setups, calibrations and simulation runs.

    One context underlies a whole reproduction session: the baseline is
    simulated once per workload, its AMAT calibrates the CPI model, and
    every system variant is then evaluated against the same traces.
    """

    def __init__(self, seed: int = 1, n_phases: int = DEFAULT_PHASES,
                 warmup_phases: int = DEFAULT_WARMUP,
                 workloads: Optional[Sequence[str]] = None):
        if warmup_phases >= n_phases:
            raise ValueError("warmup must leave measured phases")
        self.seed = seed
        self.n_phases = n_phases
        self.warmup_phases = warmup_phases
        self._workload_names = list(workloads) if workloads else [
            profile.name for profile in all_workloads()
        ]
        # Keyed by (workload, scale, phase_multiplier), with the system
        # itself -- never its name -- ahead of it for simulators and runs.
        self._setups: Dict[Tuple[str, int, int], SimulationSetup] = {}
        self._simulators: Dict[
            Tuple[SystemConfig, str, int, int], Simulator] = {}
        self._calibrations: Dict[Tuple[str, int, int], CalibratedCpi] = {}
        self._runs: Dict[
            Tuple[SystemConfig, str, str, int, int], SimulationResult] = {}

    # -- accessors -----------------------------------------------------------

    @property
    def workload_names(self) -> List[str]:
        return list(self._workload_names)

    def profile(self, workload: str) -> WorkloadProfile:
        return get_workload(workload)

    def baseline_system(self, scale: int = 1) -> SystemConfig:
        return baseline_config(scale=scale)

    def starnuma_system(self, scale: int = 1, **kwargs) -> SystemConfig:
        return starnuma_config(scale=scale, **kwargs)

    def setup(self, workload: str, scale: int = 1,
              phase_multiplier: int = 1) -> SimulationSetup:
        """Shared traces of one workload (per system scale).

        ``phase_multiplier`` lengthens each phase (the SC2 configuration
        of Fig. 14 simulates 3x more instructions per phase).
        """
        key = (workload, scale, phase_multiplier)
        if key not in self._setups:
            self._setups[key] = SimulationSetup.create(
                self.profile(workload), self.baseline_system(scale),
                n_phases=self.n_phases, seed=self.seed,
                phase_multiplier=phase_multiplier,
            )
        return self._setups[key]

    def simulator(self, system: SystemConfig, workload: str,
                  scale: int = 1,
                  phase_multiplier: int = 1) -> Simulator:
        key = (system, workload, scale, phase_multiplier)
        if key not in self._simulators:
            self._simulators[key] = Simulator(
                system, self.setup(workload, scale, phase_multiplier)
            )
        return self._simulators[key]

    def calibration(self, workload: str, scale: int = 1,
                    phase_multiplier: int = 1) -> CalibratedCpi:
        """Fit (cached) from the baseline at this scale."""
        key = (workload, scale, phase_multiplier)
        if key not in self._calibrations:
            simulator = self.simulator(self.baseline_system(scale), workload,
                                       scale, phase_multiplier)
            self._calibrations[key] = simulator.calibrate()
        return self._calibrations[key]

    def run(self, system: SystemConfig, workload: str,
            mode: str = "dynamic", scale: int = 1,
            phase_multiplier: int = 1) -> SimulationResult:
        """Closed-loop run of one (system, workload) pair, cached."""
        key = (system, workload, mode, scale, phase_multiplier)
        if key not in self._runs:
            simulator = self.simulator(system, workload, scale,
                                       phase_multiplier)
            self._runs[key] = simulator.run(
                calibration=self.calibration(workload, scale,
                                             phase_multiplier),
                mode=mode,
                warmup_phases=self.warmup_phases,
            )
        return self._runs[key]

    def baseline_result(self, workload: str, scale: int = 1,
                        phase_multiplier: int = 1) -> SimulationResult:
        return self.run(self.baseline_system(scale), workload,
                        scale=scale, phase_multiplier=phase_multiplier)

    def speedup(self, system: SystemConfig, workload: str,
                mode: str = "dynamic", scale: int = 1,
                phase_multiplier: int = 1) -> float:
        result = self.run(system, workload, mode, scale, phase_multiplier)
        baseline = self.baseline_result(workload, scale, phase_multiplier)
        return result.speedup_over(baseline)
