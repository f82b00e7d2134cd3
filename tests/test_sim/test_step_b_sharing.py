"""Step B and classification are shared per distinct input, exactly.

Checkpoints live on the :class:`SimulationSetup`, keyed by
:meth:`Simulator.step_b_key`; each checkpoint memoizes its
classification in a dict the setup keeps per phase and map content
(:meth:`SimulationSetup.classification_memo`). These tests pin the key
as complete (every sharing variant equals a from-scratch Step B), as
discriminating (variants that decide differently never share), the
memo as equal to a direct ``classify_phase`` call, and the memo as
shared by every checkpoint list whose map agrees at a phase.
"""

import dataclasses
import gc

import numpy as np
import pytest

from repro.config import (
    TrackerKind,
    baseline_config,
    starnuma_config,
    with_double_bandwidth,
    with_half_pool_bandwidth,
    with_iso_bandwidth,
    with_pool_capacity_fraction,
    with_pool_latency_penalty,
)
from repro.experiments.fault_study import scenarios
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.placement import PageMap
from repro.replication import ReplicationPlan
from repro.sim import SimulationSetup, Simulator
from repro.sim.classification import classify_phase
from repro.workloads import get_workload


def variants():
    """Every (label, system, faults) of fig10, fig11 and the fault ladder."""
    star = starnuma_config()
    base = baseline_config()
    out = [
        ("baseline", base, None),
        ("fig10@100ns", with_pool_latency_penalty(star, 100.0), None),
        ("fig10@190ns", with_pool_latency_penalty(star, 190.0), None),
        ("fig11-iso", with_iso_bandwidth(base), None),
        ("fig11-2x", with_double_bandwidth(base), None),
        ("fig11-star", star, None),
        ("fig11-half", with_half_pool_bandwidth(starnuma_config()), None),
    ]
    out += [(f"fault-{scenario.name}", star, scenario.schedule)
            for scenario in scenarios()]
    return out


@pytest.fixture(scope="module")
def setup():
    return SimulationSetup.create(get_workload("bfs"), baseline_config(),
                                  n_phases=7, seed=5)


def fresh_step_b(setup, system, faults, mode="dynamic", static_map=None):
    """Step B from scratch, on a copy of ``setup`` with an empty cache."""
    copy = dataclasses.replace(setup)
    assert not copy._checkpoints
    simulator = Simulator(system, copy, faults=faults)
    return simulator._run_step_b(mode, static_map)


def checkpoint_bytes(checkpoints):
    """Every page map and batch move of a run, as bytes."""
    parts = []
    for checkpoint in checkpoints:
        parts.append((checkpoint.phase,
                      checkpoint.page_map.locations.tobytes()))
        moves = checkpoint.batch.moves if checkpoint.batch else ()
        parts.append(tuple(
            (move.source, move.destination, move.pages.tobytes())
            for move in moves
        ))
    return parts


class TestSharingKeyIsComplete:
    @pytest.mark.parametrize("label, system, faults", variants(),
                             ids=[label for label, _, _ in variants()])
    def test_shared_checkpoints_equal_a_fresh_step_b(self, setup, label,
                                                     system, faults):
        shared = Simulator(system, setup, faults=faults).checkpoints()
        assert checkpoint_bytes(shared) == checkpoint_bytes(
            fresh_step_b(setup, system, faults))

    def test_expected_variants_share(self, setup):
        runs = {label: Simulator(system, setup, faults=faults).checkpoints()
                for label, system, faults in variants()}
        star = runs["fig11-star"]
        for label in ("fig10@100ns", "fig10@190ns", "fig11-half",
                      "fault-none", "fault-numalink-half",
                      "fault-numalink-dead", "fault-pool-slow"):
            assert runs[label] is star, label
        for label in ("fig11-iso", "fig11-2x"):
            assert runs[label] is runs["baseline"], label
        assert runs["fault-pool-dies-midrun"] is not star
        assert runs["fault-pool-dead"] is runs["baseline"]
        assert runs["fault-pool-dead"] is not runs["fault-pool-dies-midrun"]

    @pytest.mark.parametrize("phase", [0, 1])
    def test_pool_failing_before_the_first_batch_is_the_baseline(
            self, setup, phase):
        dead = FaultSchedule([FaultEvent(FaultKind.POOL_FAIL, phase=phase)])
        simulator = Simulator(starnuma_config(), setup, faults=dead)
        assert simulator.checkpoints() is Simulator(
            baseline_config(), setup).checkpoints()
        # The StarNUMA wrapper's degraded mode, run from scratch, makes
        # the same decisions.
        copy = dataclasses.replace(setup)
        wrapped = Simulator(starnuma_config(), copy, faults=dead)
        wrapped._decides_as_baseline = lambda: False
        assert checkpoint_bytes(wrapped._run_step_b("dynamic", None)) \
            == checkpoint_bytes(simulator.checkpoints())

    def test_pool_failing_after_the_first_batch_is_not(self, setup):
        late = FaultSchedule([FaultEvent(FaultKind.POOL_FAIL, phase=2)])
        assert Simulator(starnuma_config(), setup, faults=late) \
            .checkpoints() is not Simulator(baseline_config(),
                                            setup).checkpoints()


class TestVariantsThatDecideDifferentlyDoNotShare:
    def differs(self, setup, system, faults=None):
        reference = Simulator(starnuma_config(), setup).checkpoints()
        other = Simulator(system, setup, faults=faults).checkpoints()
        assert other is not reference
        return other

    def test_tracker_kind(self, setup):
        self.differs(setup, starnuma_config(tracker=TrackerKind.T0))

    def test_capacity_fraction(self, setup):
        self.differs(setup,
                     with_pool_capacity_fraction(starnuma_config(), 1 / 17))

    @pytest.mark.parametrize("phase", [0, 6])
    def test_pool_failure(self, setup, phase):
        self.differs(setup, starnuma_config(), FaultSchedule([
            FaultEvent(FaultKind.POOL_FAIL, phase=phase),
        ]))

    def test_migration_limit_override(self, setup):
        star = starnuma_config()
        limited = dataclasses.replace(star, migration=dataclasses.replace(
            star.migration, migration_limit_override_pages=64))
        checkpoints = self.differs(setup, limited)
        assert checkpoint_bytes(checkpoints) == checkpoint_bytes(
            fresh_step_b(setup, limited, None))

    def test_pool_vs_no_pool(self, setup):
        self.differs(setup, baseline_config())


class TestStaticMapsKeyedByContent:
    def static_map(self, setup, location):
        return PageMap(np.full(setup.population.n_pages, location,
                               dtype=np.int16), 16, has_pool=True)

    def test_sequential_temporaries_do_not_share(self, setup):
        simulator = Simulator(starnuma_config(), setup)
        seen = []
        for location in range(4):
            # Each map is dropped before the next is built, so CPython
            # may hand the next one the same id.
            checkpoints = simulator.checkpoints(
                "static", self.static_map(setup, location))
            gc.collect()
            seen.append(int(checkpoints[0].page_map.locations[0]))
        assert seen == [0, 1, 2, 3]

    def test_equal_ids_do_not_share(self, setup, monkeypatch):
        simulator = Simulator(starnuma_config(), setup)
        first = self.static_map(setup, 1)
        second = self.static_map(setup, 2)
        monkeypatch.setattr("builtins.id", lambda _obj: 42)
        one = simulator.checkpoints("static", first)
        two = simulator.checkpoints("static", second)
        monkeypatch.undo()
        assert one is not two
        assert int(two[0].page_map.locations[0]) == 2

    def test_equal_content_shares(self, setup):
        simulator = Simulator(starnuma_config(), setup)
        assert (simulator.checkpoints("static", self.static_map(setup, 3))
                is simulator.checkpoints("static",
                                         self.static_map(setup, 3)))


class TestSharedClassification:
    def plan(self, setup):
        replicated = np.zeros(setup.population.n_pages, dtype=bool)
        replicated[::3] = True
        return ReplicationPlan(replicated=replicated, extra_copies=7)

    def assert_equal(self, got, expected):
        for name in ("demand", "demand_writes", "bt_socket", "bt_pool",
                     "bt_pool_owner"):
            assert np.array_equal(getattr(got, name),
                                  getattr(expected, name)), name
        assert got.total_accesses == expected.total_accesses
        assert got.replicated_writes == expected.replicated_writes

    @pytest.mark.parametrize("replicated", [False, True],
                             ids=["no-plan", "plan"])
    def test_memo_equals_direct_classification(self, setup, replicated):
        plan = self.plan(setup) if replicated else None
        star = starnuma_config()
        simulators = [Simulator(system, setup, replication=plan)
                      for system in (star,
                                     with_pool_latency_penalty(star, 190.0))]
        checkpoints = simulators[0].checkpoints()
        assert simulators[1].checkpoints() is checkpoints
        for checkpoint, trace in zip(checkpoints, setup.traces):
            first = simulators[0].timing.classify(
                trace, checkpoint.page_map, checkpoint.classifications)
            # The other system reads the same checkpoint: a memo hit.
            assert simulators[1].timing.classify(
                trace, checkpoint.page_map,
                checkpoint.classifications) is first
            self.assert_equal(first, classify_phase(
                trace, checkpoint.page_map, setup.population, plan))

    def test_plans_do_not_share_entries(self, setup):
        star = starnuma_config()
        plain = Simulator(star, setup)
        replicated = Simulator(star, setup, replication=self.plan(setup))
        checkpoint = plain.checkpoints()[2]
        trace = setup.traces[2]
        without = plain.timing.classify(trace, checkpoint.page_map,
                                        checkpoint.classifications)
        with_plan = replicated.timing.classify(
            trace, checkpoint.page_map, checkpoint.classifications)
        assert with_plan is not without
        assert with_plan.replicated_writes > 0
        assert without.replicated_writes == 0

    def test_runs_classify_each_checkpoint_once(self, setup, monkeypatch):
        from repro.sim import timing

        calls = []
        real = timing.classify_phase

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(timing, "classify_phase", counting)
        copy = dataclasses.replace(setup)
        base = Simulator(baseline_config(), copy)
        calibration = base.calibrate()
        assert len(calls) == len(copy.traces)
        base.run(calibration=calibration)
        Simulator(with_double_bandwidth(baseline_config()), copy).run(
            calibration=calibration)
        # Calibration, closed loop and a bandwidth variant: one pass.
        assert len(calls) == len(copy.traces)


class TestClassificationSharedByContent:
    """The fault ladder repeats maps across Step B lists; memos follow."""

    FAIL_PHASE = 6  # the pool-dies-midrun rung

    @pytest.fixture(scope="class")
    def ladder(self, setup):
        copy = dataclasses.replace(setup)
        runs = {"baseline": Simulator(baseline_config(), copy).checkpoints()}
        for scenario in scenarios():
            runs[scenario.name] = Simulator(
                starnuma_config(), copy,
                faults=scenario.schedule).checkpoints()
        return copy, runs

    def test_pool_dead_shares_the_baseline_objects(self, ladder):
        copy, runs = ladder
        base = Simulator(baseline_config(), copy)
        calibration = base.calibrate()
        base.run(calibration=calibration)
        dead = [scenario for scenario in scenarios()
                if scenario.name == "pool-dead"][0]
        Simulator(starnuma_config(), copy, faults=dead.schedule).run(
            calibration=calibration)
        # A pool dead from the start decides as the baseline: one list.
        assert runs["pool-dead"] is runs["baseline"]
        for checkpoint in runs["pool-dead"]:
            assert None in checkpoint.classifications

    def test_midrun_failure_shares_the_healthy_memos_before_it(self, ladder):
        _, runs = ladder
        midrun, healthy = runs["pool-dies-midrun"], runs["none"]
        assert midrun is not healthy
        for phase in range(self.FAIL_PHASE):
            assert (midrun[phase].classifications
                    is healthy[phase].classifications), phase
        # Evacuation starts with the batch decided at the phase before
        # the failure, so from there on the maps, and memos, part.
        assert (midrun[self.FAIL_PHASE].classifications
                is not healthy[self.FAIL_PHASE].classifications)

    def test_memos_are_shared_exactly_when_maps_are_equal(self, ladder):
        _, runs = ladder
        lists = list(runs.values())
        for phase in range(len(lists[0])):
            for first in lists:
                for second in lists:
                    one, two = first[phase], second[phase]
                    same = np.array_equal(one.page_map.locations,
                                          two.page_map.locations)
                    assert (one.classifications
                            is two.classifications) == same

    def test_classify_runs_once_per_distinct_input(self, setup,
                                                   monkeypatch):
        from repro.sim import timing

        calls = []
        real = timing.classify_phase

        def counting(trace, page_map, population, replication=None):
            calls.append((trace.phase, page_map.locations.tobytes(),
                          replication is not None))
            return real(trace, page_map, population, replication)

        monkeypatch.setattr(timing, "classify_phase", counting)
        copy = dataclasses.replace(setup)
        base = Simulator(baseline_config(), copy)
        calibration = base.calibrate()
        base.run(calibration=calibration)
        replicated = np.zeros(copy.population.n_pages, dtype=bool)
        replicated[::3] = True
        plan = ReplicationPlan(replicated=replicated, extra_copies=7)
        Simulator(baseline_config(), copy, replication=plan).run(
            calibration=calibration)
        for scenario in scenarios():
            Simulator(starnuma_config(), copy,
                      faults=scenario.schedule).run(calibration=calibration)

        lists = list(copy._checkpoints.values())
        distinct = {(checkpoint.phase,
                     checkpoint.page_map.locations.tobytes(), False)
                    for checkpoints in lists for checkpoint in checkpoints}
        distinct |= {(checkpoint.phase,
                      checkpoint.page_map.locations.tobytes(), True)
                     for checkpoint in base.checkpoints()}
        assert len(calls) == len(set(calls))
        assert set(calls) == distinct
        # Fewer plan-less classifications than (list, phase) pairs.
        pairs = sum(len(checkpoints) for checkpoints in lists)
        assert len([key for key in distinct if not key[2]]) < pairs


class FlaglessMap(PageMap):
    """A page map whose ``has_pool`` flag must not be read."""

    def __init__(self, page_map):  # noqa: D107 -- no flag is stored
        self.locations = page_map.locations
        self.n_sockets = page_map.n_sockets

    @property
    def has_pool(self):
        raise AssertionError("Step C read PageMap.has_pool")


class TestStepCIgnoresTheSharedMapsPoolFlag:
    """The baseline and a pool dead from the start share one list, whose
    maps carry the flag of whichever system ran Step B first."""

    def results(self, setup, first, swap=False):
        dead = [scenario for scenario in scenarios()
                if scenario.name == "pool-dead"][0]
        copy = dataclasses.replace(setup)
        systems = {"baseline": Simulator(baseline_config(), copy),
                   "pool-dead": Simulator(starnuma_config(), copy,
                                          faults=dead.schedule)}
        checkpoints = systems[first].checkpoints()
        if swap:
            for checkpoint in checkpoints:
                checkpoint.page_map = FlaglessMap(checkpoint.page_map)
        calibration = systems["baseline"].calibrate()
        return {name: repr(simulator.run(calibration=calibration))
                for name, simulator in systems.items()}

    def test_step_c_never_reads_the_flag(self, setup):
        assert self.results(setup, "baseline", swap=True) \
            == self.results(setup, "baseline")

    def test_results_do_not_depend_on_who_ran_step_b(self, setup):
        assert self.results(setup, "pool-dead") \
            == self.results(setup, "baseline")
