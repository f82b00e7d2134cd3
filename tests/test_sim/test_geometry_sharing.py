"""Topology, routes and first-touch are built once per distinct input.

Simulators of one fabric (:meth:`Topology.fabric` of their
:class:`SystemConfig`) share one ``(Topology, RouteTable)`` from a
bounded LRU (``timing.system_geometry``), and simulators reaching one
fault state share one faulted pair from the same LRU
(``timing.shared_geometry``); a setup keeps its first-touch
locations and hands each run a copy. These tests pin who shares, who
does not, the bound, and that the memo equals a direct
``first_touch_placement`` call.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    baseline_config,
    starnuma_config,
    with_pool_latency_penalty,
)
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    PartitionedTopologyError,
)
from repro.obs import OBS, MemorySink, shutdown
from repro.placement import first_touch_placement
from repro.sim import SimulationSetup, Simulator, timing
from repro.topology import Topology
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def setup():
    return SimulationSetup.create(get_workload("bfs"), baseline_config(),
                                  n_phases=3, seed=5)


class TestRouteTableSharing:
    def test_one_config_shares_one_table(self, setup):
        first = Simulator(starnuma_config(), setup)
        second = Simulator(starnuma_config(), dataclasses.replace(setup))
        assert second.routes is first.routes
        assert second.topology is first.topology
        assert first.routes.topology is first.topology

    def test_latency_variant_does_not_share(self, setup):
        star = Simulator(starnuma_config(), setup)
        slow = Simulator(with_pool_latency_penalty(starnuma_config(), 190.0),
                         setup)
        assert slow.routes is not star.routes
        assert slow.topology is not star.topology
        assert (slow.topology.config.latency.pool_ns
                > star.topology.config.latency.pool_ns)

    def test_faulted_state_builds_its_own_table(self, setup):
        faults = FaultSchedule([
            FaultEvent(FaultKind.LINK_FAIL, phase=1, link_id="upi:s0-s1"),
        ])
        simulator = Simulator(starnuma_config(), setup, faults=faults)
        clean = Simulator(starnuma_config(), setup)
        assert simulator.routes is clean.routes
        faulted = simulator._phase_timing_model(1).routes
        assert faulted is not clean.routes
        assert "upi:s0-s1" not in faulted.topology.links
        assert "upi:s0-s1" in clean.topology.links

    def test_cache_stays_within_its_bound(self, setup):
        limit = timing._GEOMETRY_CACHE_LIMIT
        systems = [with_pool_latency_penalty(starnuma_config(), 100.0 + i)
                   for i in range(limit + 3)]
        simulators = [Simulator(system, setup) for system in systems]
        assert len(timing._GEOMETRY_CACHE) == limit
        # The oldest entries were evicted, the newest kept.
        assert Topology.fabric(systems[0]) not in timing._GEOMETRY_CACHE
        assert Topology.fabric(systems[-1]) in timing._GEOMETRY_CACHE
        assert Simulator(systems[-1], setup).routes is simulators[-1].routes
        assert Simulator(systems[0], setup).routes is not simulators[0].routes
        assert len(timing._GEOMETRY_CACHE) == limit


def link_fail(phase, link_id="upi:s0-s1"):
    return FaultEvent(FaultKind.LINK_FAIL, phase=phase, link_id=link_id)


def degrade(phase, factor, link_id="numa:c0-c1"):
    return FaultEvent(FaultKind.LINK_DEGRADE, phase=phase, link_id=link_id,
                      capacity_factor=factor)


class TestFaultedGeometrySharing:
    def test_two_setups_share_one_table_per_state(self, setup):
        schedule = FaultSchedule([link_fail(1), degrade(2, 0.5)])
        other = SimulationSetup.create(get_workload("tc"), baseline_config(),
                                       n_phases=3, seed=5)
        first = Simulator(starnuma_config(), setup, faults=schedule)
        second = Simulator(starnuma_config(), other, faults=schedule)
        for phase in (1, 2):
            mine = first._phase_timing_model(phase)
            theirs = second._phase_timing_model(phase)
            assert theirs.routes is mine.routes
            assert theirs.topology is mine.topology
            assert mine.routes.topology is mine.topology
            # Each simulator still builds its own model for the state.
            assert theirs is not mine
            assert theirs.population is other.population
        # Another schedule reaching an equal state shares it too.
        same_state = Simulator(starnuma_config(), setup,
                               faults=FaultSchedule([link_fail(0)]))
        assert (same_state._phase_timing_model(0).routes
                is first._phase_timing_model(1).routes)

    def test_different_states_do_not_share(self, setup):
        schedule = FaultSchedule([link_fail(1), degrade(2, 0.5)])
        simulator = Simulator(starnuma_config(), setup, faults=schedule)
        failed = simulator._phase_timing_model(1).routes
        failed_and_degraded = simulator._phase_timing_model(2).routes
        assert failed_and_degraded is not failed
        halved = Simulator(starnuma_config(), setup,
                           faults=FaultSchedule([degrade(0, 0.5)]))
        quartered = Simulator(starnuma_config(), setup,
                              faults=FaultSchedule([degrade(0, 0.25)]))
        assert (halved._phase_timing_model(0).routes
                is not quartered._phase_timing_model(0).routes)
        capacity = {
            name: model.topology.links["numa:c0-c1"].capacity_gbps
            for name, model in (
                ("half", halved._phase_timing_model(0)),
                ("quarter", quartered._phase_timing_model(0)))
        }
        assert capacity["quarter"] == capacity["half"] / 2

    def test_other_system_does_not_share_a_state(self, setup):
        schedule = FaultSchedule([link_fail(0)])
        star = Simulator(starnuma_config(), setup, faults=schedule)
        slow = Simulator(with_pool_latency_penalty(starnuma_config(), 190.0),
                         setup, faults=schedule)
        assert (slow._phase_timing_model(0).routes
                is not star._phase_timing_model(0).routes)

    def test_partitioning_state_raises_every_time(self, setup, monkeypatch):
        from repro.sim import engine

        built = []
        real = engine.faulted_topology

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "faulted_topology", counting)
        schedule = FaultSchedule([
            FaultEvent(FaultKind.ASIC_FAIL, phase=1, chassis=0)])
        state = schedule.state_at(1)
        for _ in range(2):
            simulator = Simulator(starnuma_config(), setup, faults=schedule)
            for _ in range(2):
                with pytest.raises(PartitionedTopologyError):
                    simulator._phase_timing_model(1)
            assert state not in simulator._fault_timing
        assert len(built) == 4
        assert ((Topology.fabric(starnuma_config()), state)
                not in timing._GEOMETRY_CACHE)

    def test_bound_holds_with_faulted_entries(self, setup):
        limit = timing._GEOMETRY_CACHE_LIMIT
        star = starnuma_config()
        schedules = [FaultSchedule([degrade(0, 0.9 - 0.05 * i)])
                     for i in range(limit + 2)]
        routes = [Simulator(star, setup, faults=schedule)
                  ._phase_timing_model(0).routes for schedule in schedules]
        assert len(timing._GEOMETRY_CACHE) == limit
        keys = [(Topology.fabric(star), schedule.state_at(0))
                for schedule in schedules]
        assert keys[0] not in timing._GEOMETRY_CACHE
        assert keys[-1] in timing._GEOMETRY_CACHE
        # The ideal pair of the running system was touched by each
        # simulator, so it stayed while older faulted entries went.
        assert Topology.fabric(star) in timing._GEOMETRY_CACHE
        newest = Simulator(star, setup, faults=schedules[-1])
        assert newest._phase_timing_model(0).routes is routes[-1]
        oldest = Simulator(star, setup, faults=schedules[0])
        assert oldest._phase_timing_model(0).routes is not routes[0]
        assert len(timing._GEOMETRY_CACHE) == limit

    def test_each_simulator_reports_its_transition(self, setup):
        schedule = FaultSchedule([link_fail(1)])
        records = []
        OBS.configure(MemorySink(records))
        try:
            for _ in range(2):
                Simulator(starnuma_config(), setup,
                          faults=schedule)._phase_timing_model(1)
        finally:
            shutdown()
        transitions = [r for r in records if r["kind"] == "event"
                       and r["name"] == "faults.transition"]
        assert len(transitions) == 2
        assert transitions[0]["attrs"] == transitions[1]["attrs"]
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["faults.states_compiled"]["value"] == 2


class TestFirstTouchMemo:
    @pytest.mark.parametrize("system", [baseline_config(), starnuma_config()],
                             ids=["no-pool", "pool"])
    def test_memo_equals_first_touch_placement(self, setup, system):
        copy = dataclasses.replace(setup)
        assert copy._first_touch is None
        # Fill the memo from the other architecture first.
        other = (starnuma_config() if system.pool.enabled
                 else baseline_config())
        Simulator(other, copy).initial_page_map()
        got = Simulator(system, copy).initial_page_map()
        want = first_touch_placement(
            setup.population.sharer_mask, system.n_sockets,
            system.pool.enabled,
            np.random.default_rng((setup.seed, 0xf157)))
        assert np.array_equal(got.locations, want.locations)
        assert got.locations.dtype == want.locations.dtype
        assert got.has_pool == want.has_pool == system.pool.enabled
        assert got.n_sockets == want.n_sockets

    def test_mutating_one_map_leaves_the_next_unchanged(self, setup):
        copy = dataclasses.replace(setup)
        simulator = Simulator(starnuma_config(), copy)
        first = simulator.initial_page_map()
        pristine = first.locations.copy()
        first.move(np.arange(0, first.n_pages, 2), 3)
        first.move(np.arange(1, first.n_pages, 7), -1)
        second = simulator.initial_page_map()
        assert np.array_equal(second.locations, pristine)
        assert second.locations is not first.locations
        assert np.array_equal(copy._first_touch, pristine)

    def test_runs_draw_first_touch_once(self, setup, monkeypatch):
        from repro.sim import engine

        calls = []
        real = engine.first_touch_placement

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "first_touch_placement", counting)
        copy = dataclasses.replace(setup)
        for system in (baseline_config(), starnuma_config()):
            simulator = Simulator(system, copy)
            simulator.checkpoints("dynamic")
            simulator.checkpoints("none")
        assert len(calls) == 1
