"""The fault-study ladder of one workload, and the work it repeats.

Runs what ``fault-study`` runs for one workload (tc, seed 3, 12 phases,
4 of them warm-up): the baseline's calibration and closed-loop run,
then StarNUMA under each of the six rungs of the severity ladder. Each
round starts from a copy of the set-up with empty caches and from an
empty geometry cache, so it pays every classification and every route
table once.

Two of the rungs repeat work: ``pool-dead`` falls back to the baseline
policy from phase 0, so it makes the baseline's decisions, and
``pool-dies-midrun`` matches the healthy run until its pool fails.
``pool-dead`` shares the baseline's Step B list, classifications are
kept per phase and map content, and faulted route tables per fault
state, so the counting test asserts one ``BaselinePolicy.decide`` call
per baseline phase, one ``classify_phase`` call per distinct (phase,
map) and one ``RouteTable`` build per distinct system or fault state.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fault_ladder.py \\
        --benchmark-json bench-fault-ladder.json
"""

import dataclasses

import pytest

from repro.config import baseline_config, starnuma_config
from repro.experiments.fault_study import scenarios
from repro.migration import BaselinePolicy
from repro.sim import SimulationSetup, Simulator, timing
from repro.workloads import get_workload

WORKLOAD = "tc"
SEED = 3
N_PHASES = 12
WARMUP = 4
ROUNDS = 3


@pytest.fixture(scope="module")
def setup():
    return SimulationSetup.create(get_workload(WORKLOAD), baseline_config(),
                                  n_phases=N_PHASES, seed=SEED)


def run_ladder(setup):
    """The baseline and every rung on a cache-free copy of ``setup``."""
    copy = dataclasses.replace(setup)
    base = Simulator(baseline_config(), copy)
    calibration = base.calibrate()
    base.run(calibration=calibration, warmup_phases=WARMUP)
    for scenario in scenarios():
        Simulator(starnuma_config(), copy, faults=scenario.schedule).run(
            calibration=calibration, warmup_phases=WARMUP)
    return copy


def cold(setup):
    timing._GEOMETRY_CACHE.clear()
    return (setup,), {}


def test_bench_fault_ladder(setup, benchmark):
    ran = benchmark.pedantic(run_ladder, setup=lambda: cold(setup),
                             rounds=ROUNDS)
    assert len(ran._checkpoints) > 1


def test_ladder_computes_each_distinct_input_once(setup, monkeypatch):
    classified = []
    built = []
    decided = []
    classify, route_table = timing.classify_phase, timing.RouteTable
    decide = BaselinePolicy.decide

    def counting_classify(trace, page_map, *args):
        classified.append((trace.phase, page_map.locations.tobytes()))
        return classify(trace, page_map, *args)

    def counting_routes(topology):
        built.append(topology)
        return route_table(topology)

    def counting_decide(policy, trace, page_map):
        decided.append((trace.phase, page_map.locations.tobytes()))
        return decide(policy, trace, page_map)

    monkeypatch.setattr(BaselinePolicy, "decide", counting_decide)
    monkeypatch.setattr(timing, "classify_phase", counting_classify)
    monkeypatch.setattr(timing, "RouteTable", counting_routes)
    cold(setup)
    ran = run_ladder(setup)

    lists = list(ran._checkpoints.values())
    maps = {(checkpoint.phase, checkpoint.page_map.locations.tobytes())
            for checkpoints in lists for checkpoint in checkpoints}
    phase_lists = sum(len(checkpoints) for checkpoints in lists)
    states = [{state for state in map(scenario.schedule.state_at,
                                      range(N_PHASES))
               if not state.is_clean}
              for scenario in scenarios()]
    distinct_states = set().union(*states)
    print(f"\n{WORKLOAD}: {len(classified)} classifications for "
          f"{len(maps)} distinct (phase, map) over {phase_lists} "
          f"checkpoints; {len(built)} route tables for 2 systems and "
          f"{len(distinct_states)} fault states "
          f"({sum(map(len, states))} per simulator)")
    # Every baseline phase is decided once; the only other baseline
    # decisions are ``pool-dies-midrun``'s after its pool has drained.
    baseline = ran._checkpoints[Simulator(baseline_config(), ran)
                                .step_b_key()]
    before = [(checkpoint.phase, checkpoint.page_map.locations.tobytes())
              for checkpoint in baseline]
    assert [call for call in decided if call in before] == before
    assert len(decided) == len(set(decided))
    assert len(classified) == len(maps)
    assert set(classified) == maps
    assert len(maps) < phase_lists
    assert len(built) == 2 + len(distinct_states)
    assert len(distinct_states) < sum(map(len, states))
