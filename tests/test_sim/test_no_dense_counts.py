"""No dense count matrix outlives its use.

Phases are stored sparse, aligned to the population's sharer cells; a
dense ``(n_sockets, n_pages)`` count matrix may exist only transiently
(a trace file, ``total_counts`` for the static oracle). This walks
everything a set-up keeps after Steps B and C -- traces, population,
checkpoints, memoized classifications -- and fails on any integer
array with one element per (socket, page) cell.
"""

import dataclasses
import types

import numpy as np

from repro.config import baseline_config, starnuma_config
from repro.sim import SimulationSetup, Simulator
from tests.conftest import make_profile

OPAQUE = (type, types.ModuleType, types.FunctionType,
          types.BuiltinFunctionType, types.MethodType)


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through containers and attrs."""
    return (obj for obj in reachable(root) if isinstance(obj, np.ndarray))


def reachable(root):
    """Every object reachable from ``root`` through containers and attrs."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, np.ndarray):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))


def test_setup_and_checkpoints_keep_no_dense_counts():
    profile = make_profile(n_pages=2048)
    setup = SimulationSetup.create(profile, baseline_config(), n_phases=4,
                                   seed=5)
    for system in (baseline_config(), starnuma_config()):
        simulator = Simulator(system, setup)
        calibration = Simulator(baseline_config(), setup).calibrate()
        simulator.run(calibration, warmup_phases=1)
        simulator.run(calibration, mode="static", warmup_phases=1)
    assert len(setup._checkpoints) >= 4
    assert all(checkpoint.classifications
               for checkpoints in setup._checkpoints.values()
               for checkpoint in checkpoints)

    cells = setup.population.n_sockets * setup.population.n_pages
    arrays = list(reachable_arrays(setup))
    # The walk reaches the phase values and the population's index.
    assert any(array is setup.traces[0].values for array in arrays)
    assert any(array is setup.population.index.pages for array in arrays)
    dense = [(array.dtype, array.shape) for array in arrays
             if array.dtype.kind in "iu" and array.size == cells]
    assert dense == []


def test_walk_catches_a_kept_dense_matrix():
    profile = make_profile(n_pages=2048)
    setup = SimulationSetup.create(profile, baseline_config(), n_phases=2,
                                   seed=5)
    kept = dataclasses.replace(setup)
    kept.traces = [setup.traces[0], {"dense": setup.traces[0].dense()}]
    cells = setup.population.n_sockets * setup.population.n_pages
    assert any(array.size == cells and array.dtype.kind == "i"
               for array in reachable_arrays(kept))
