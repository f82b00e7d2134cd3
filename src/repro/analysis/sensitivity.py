"""Sensitivity of the headline speedup to the model's free constants."""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

from repro.config import baseline_config, starnuma_config
from repro.sim import SimulationSetup, Simulator
from repro.sim.timing import FixedPointSettings
from repro.workloads import get_workload


def burstiness_sensitivity(workload: str,
                           burstiness_values: Sequence[float] = (1, 3, 6, 12),
                           seed: int = 1, n_phases: int = 8,
                           warmup_phases: int = 2) -> Dict[float, float]:
    """Speedup as a function of the arrival-burstiness multiplier.

    Burstiness scales every queueing delay; since both systems are priced
    with the same constant and the baseline is re-calibrated at each
    value, the *speedup* should move far less than the constant itself.
    """
    if not burstiness_values:
        raise ValueError("need at least one burstiness value")
    base_system = baseline_config()
    star_system = starnuma_config()
    setup = SimulationSetup.create(get_workload(workload), base_system,
                                   n_phases=n_phases, seed=seed)
    results: Dict[float, float] = {}
    for burstiness in burstiness_values:
        settings = FixedPointSettings(burstiness=float(burstiness))
        base_sim = Simulator(base_system, setup, settings=settings)
        calibration = base_sim.calibrate()
        base = base_sim.run(calibration=calibration,
                            warmup_phases=warmup_phases)
        star = Simulator(star_system, setup, settings=settings).run(
            calibration=calibration, warmup_phases=warmup_phases
        )
        results[float(burstiness)] = star.speedup_over(base)
    return results


def coupling_sensitivity(workload: str,
                         coupling_values: Sequence[float] = (0.1, 0.2, 0.3),
                         seed: int = 1, n_phases: int = 8,
                         warmup_phases: int = 2) -> Dict[float, float]:
    """Speedup as a function of the coherence coupling factor.

    Coupling controls how many misses become block transfers; it is the
    one fitted constant of the coherence model, so the headline should be
    robust to plausible perturbations of it.
    """
    if not coupling_values:
        raise ValueError("need at least one coupling value")
    base_system = baseline_config()
    star_system = starnuma_config()
    profile = get_workload(workload)
    results: Dict[float, float] = {}
    for coupling in coupling_values:
        varied = dataclasses.replace(profile, coupling=float(coupling))
        setup = SimulationSetup.create(varied, base_system,
                                       n_phases=n_phases, seed=seed)
        base_sim = Simulator(base_system, setup)
        calibration = base_sim.calibrate()
        base = base_sim.run(calibration=calibration,
                            warmup_phases=warmup_phases)
        star = Simulator(star_system, setup).run(
            calibration=calibration, warmup_phases=warmup_phases
        )
        results[float(coupling)] = star.speedup_over(base)
    return results
