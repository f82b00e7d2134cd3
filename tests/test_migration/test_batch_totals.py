"""A batch's page totals, counted as moves are added, equal sums over moves.

:class:`MigrationBatch` keeps its totals as :meth:`MigrationBatch.add`
(or construction) sees each move, and the engine's run totals read
them. These tests hold every total to the per-move sum it replaced, on
the batches Step B really makes: baseline decisions, StarNUMA decisions
with victim evictions out of the pool, and the degraded-mode
evacuation after a pool failure; and the run totals to the old
per-move loop on the Step C golden's runs. The moved pages' access
total (:meth:`MigrationBatch.accesses_in`) equals a direct gather, and
is gathered once per batch and trace however many runs read it.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    baseline_config,
    starnuma_config,
    with_double_bandwidth,
    with_pool_capacity_fraction,
)
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.migration import MigrationBatch
from repro.migration.records import RegionMove
from repro.sim import SimulationSetup, Simulator
from repro.sim.engine import _migration_totals
from repro.trace import PhaseTrace
from repro.topology import POOL_LOCATION
from repro.workloads import WORKLOADS, get_workload
from tests.test_sim import test_step_c_golden as golden


def summed(batch):
    """Every total, summed over the moves as before they were counted."""
    demand = [move for move in batch.moves if not move.from_pool]
    return {
        "n_pages": sum(move.n_pages for move in batch.moves),
        "pages_to_pool": sum(move.n_pages for move in batch.moves
                             if move.to_pool),
        "pages_from_pool": sum(move.n_pages for move in batch.moves
                               if move.from_pool),
        "demand_pages": sum(move.n_pages for move in demand),
        "demand_pages_to_pool": sum(move.n_pages for move in demand
                                    if move.to_pool),
    }


def counted(batch):
    return {name: getattr(batch, name) for name in summed(batch)}


def loop_totals(checkpoints):
    """The per-move run totals the engine used to compute."""
    demand_pages = 0
    pool_pages = 0
    for checkpoint in checkpoints:
        if checkpoint.batch is None:
            continue
        for move in checkpoint.batch.moves:
            if move.from_pool:
                continue
            demand_pages += move.n_pages
            if move.to_pool:
                pool_pages += move.n_pages
    return demand_pages, pool_pages


def old_pool_fraction(batch):
    demand = sum(move.n_pages for move in batch.moves if not move.from_pool)
    if demand == 0:
        return 0.0
    return sum(move.n_pages for move in batch.moves
               if move.to_pool and not move.from_pool) / demand


@pytest.fixture(scope="module")
def setup():
    return SimulationSetup.create(get_workload("bfs"), baseline_config(),
                                  n_phases=7, seed=5)


def batches(setup, system, faults=None):
    checkpoints = Simulator(system, setup, faults=faults).checkpoints()
    return [checkpoint.batch for checkpoint in checkpoints
            if checkpoint.batch is not None]


class TestStepBBatches:
    def assert_totals(self, made):
        assert made
        for batch in made:
            assert counted(batch) == summed(batch)
            assert batch.pool_fraction() == old_pool_fraction(batch)

    def test_baseline(self, setup):
        made = batches(setup, baseline_config())
        self.assert_totals(made)
        assert sum(batch.n_pages for batch in made) > 0

    def test_starnuma_with_evictions(self, setup):
        made = batches(setup, with_pool_capacity_fraction(
            starnuma_config(), 1 / 64))
        self.assert_totals(made)
        # Some batch both fills the pool and evicts victims from it.
        assert any(batch.pages_to_pool and batch.pages_from_pool
                   for batch in made)

    def test_degraded_evacuation(self, setup):
        made = batches(setup, starnuma_config(), FaultSchedule([
            FaultEvent(FaultKind.POOL_FAIL, phase=4)]))
        self.assert_totals(made)
        evacuations = [batch for batch in made
                       if batch.moves and all(move.from_pool
                                              for move in batch.moves)]
        assert evacuations
        assert all(batch.demand_pages == 0 for batch in evacuations)


class TestHandBuilt:
    def move(self, pages, source, destination):
        return RegionMove(pages=np.asarray(pages, dtype=np.int64),
                          source=source, destination=destination)

    def test_moves_given_at_construction_are_counted(self):
        moves = [self.move([0, 1], 0, POOL_LOCATION),
                 self.move([2], POOL_LOCATION, 3),
                 self.move([4, 5, 6], 1, 2)]
        built = MigrationBatch(phase=1, moves=list(moves))
        added = MigrationBatch(phase=1)
        for move in moves:
            added.add(move)
        assert counted(built) == counted(added) == summed(built)
        assert counted(built) == {
            "n_pages": 6, "pages_to_pool": 2, "pages_from_pool": 1,
            "demand_pages": 5, "demand_pages_to_pool": 2}
        assert built == added

    def test_empty(self):
        assert counted(MigrationBatch(phase=0)) == dict.fromkeys(
            summed(MigrationBatch(phase=0)), 0)


@pytest.mark.parametrize("case", golden.CASES)
def test_run_totals_match_the_loop_on_the_golden_runs(case):
    workload, system_name = case.split("/")[:2]
    base = baseline_config()
    setup = SimulationSetup.create(WORKLOADS[workload], base,
                                   n_phases=golden.N_PHASES,
                                   seed=golden.SEED)
    system = base if system_name == "baseline" else starnuma_config()
    faults = (FaultSchedule(list(golden.FAULTS))
              if case.endswith("/faulted") else None)
    checkpoints = Simulator(system, setup, faults=faults).checkpoints()
    totals = _migration_totals(checkpoints)
    assert totals == loop_totals(checkpoints)
    assert totals == (golden.GOLDEN[case]["pages_migrated"],
                      golden.GOLDEN[case]["pages_migrated_to_pool"])


class TestMovedPageAccesses:
    def test_equals_a_direct_gather(self, setup):
        checkpoints = Simulator(starnuma_config(), setup).checkpoints()
        for trace, checkpoint in zip(setup.traces, checkpoints):
            if checkpoint.batch is None:
                continue
            pages = np.concatenate(
                [move.pages for move in checkpoint.batch.moves]
                or [np.empty(0, dtype=np.int64)])
            assert checkpoint.batch.accesses_in(trace) == int(
                trace.dense()[:, pages].sum())

    def test_gathered_once_per_batch_and_trace(self, setup, monkeypatch):
        calls = []
        real = PhaseTrace.columns_total

        def counting(trace, pages):
            calls.append(trace.phase)
            return real(trace, pages)

        monkeypatch.setattr(PhaseTrace, "columns_total", counting)
        copy = dataclasses.replace(setup)
        base = Simulator(baseline_config(), copy)
        calibration = base.calibrate()
        base.run(calibration=calibration)
        Simulator(with_double_bandwidth(baseline_config()), copy).run(
            calibration=calibration)
        moved = [checkpoint.phase for checkpoint in base.checkpoints()
                 if checkpoint.batch is not None
                 and checkpoint.batch.n_pages]
        # Calibration, closed loop and a bandwidth variant: one gather.
        assert moved and calls == moved

    def test_adding_a_move_forgets_the_total(self, setup):
        trace = setup.traces[1]
        batch = MigrationBatch(phase=1)
        batch.add(RegionMove(pages=np.arange(4), source=0, destination=1))
        first = batch.accesses_in(trace)
        batch.add(RegionMove(pages=np.arange(4, 9), source=0,
                             destination=1))
        assert batch.accesses_in(trace) == int(
            trace.dense()[:, :9].sum()) >= first
