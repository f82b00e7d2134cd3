"""The baseline policy's array pass against the per-candidate loop.

The program applies clear-winner pages in bulk and walks only the
near-tied pages in order; ``baseline_oracle.py`` keeps the original
loop. Every case decides with both from equal inputs and compares the
moves (source, destination, pages, in order) and the resulting page
maps exactly, on fig8's real Step B streams and on drawn count
matrices built to exercise ties, the budget cut and skips.

A ``destination == source`` skip cannot happen under a validated
hysteresis (>= 1): a page's own socket is then never its argmax nor
within 10% of its peak. The skip tests lower ``hysteresis`` on the
policy object to reach it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MigrationConfig, baseline_config
from repro.experiments import ExperimentContext
from repro.migration import BaselinePolicy
from repro.obs import OBS, MemorySink, shutdown
from repro.placement import PageMap
from repro.sim import Simulator
from repro.trace import PhaseTrace
from tests.test_migration.baseline_oracle import OracleBaselinePolicy

INT32_MAX = int(np.iinfo(np.int32).max)


def moves_of(batch):
    return [(move.source, move.destination, move.pages.tolist())
            for move in batch.moves]


def decide_both(config, trace, page_map, phase=0, hysteresis=None):
    """Decide with the program and the oracle on copies of ``page_map``."""
    results = []
    for policy_class in (BaselinePolicy, OracleBaselinePolicy):
        policy = policy_class(config)
        policy.phases_run = phase
        if hysteresis is not None:
            policy.hysteresis = hysteresis
        moved_map = page_map.copy()
        results.append((policy.decide(trace, moved_map), moved_map))
    return results


def assert_same_decisions(config, trace, page_map, **kwargs):
    (batch, moved_map), (want, want_map) = decide_both(
        config, trace, page_map, **kwargs)
    assert batch.phase == want.phase
    assert moves_of(batch) == moves_of(want)
    assert np.array_equal(moved_map.locations, want_map.locations)
    return batch


def trace_of(counts):
    return PhaseTrace.from_dense(0, np.asarray(counts, dtype=np.int64),
                                 instructions_per_thread=1)


def map_of(locations, n_sockets):
    return PageMap(np.asarray(locations, dtype=np.int16), n_sockets,
                   has_pool=False)


def config_of(budget):
    return MigrationConfig(migration_limit_pages=budget)


@pytest.fixture(scope="module")
def fig8_context():
    return ExperimentContext(seed=3)


@pytest.mark.parametrize("workload", ExperimentContext().workload_names)
def test_fig8_baseline_streams_match_oracle(fig8_context, workload):
    setup = fig8_context.setup(workload)
    simulator = Simulator(baseline_config(), setup)
    config = dataclasses.replace(
        simulator.system.migration,
        migration_limit_pages=simulator.effective_migration_limit)
    checkpoints = simulator.checkpoints()
    for phase, (trace, checkpoint) in enumerate(
            zip(setup.traces, checkpoints)):
        batch = assert_same_decisions(config, trace, checkpoint.page_map,
                                      phase=phase)
        if phase + 1 < len(checkpoints):
            assert moves_of(batch) == moves_of(checkpoints[phase + 1].batch)


def tied_counts(rng, n_sockets, n_pages, levels):
    """Counts where most pages have 2-4 sockets within 10% of the peak.

    Values come from a few coarse ``levels`` so that equal totals (rank
    order), equal remote loads (the first-minimum rule) and exact ties
    are common.
    """
    counts = np.zeros((n_sockets, n_pages), dtype=np.int64)
    for page in range(n_pages):
        degree = min(int(rng.choice([1, 2, 2, 3, 4])), n_sockets)
        peak = int(rng.choice(levels))
        sharers = rng.choice(n_sockets, size=degree, replace=False)
        counts[sharers, page] = peak - rng.integers(0, peak // 10 + 1,
                                                    size=degree)
        others = rng.random(n_sockets) < 0.3
        others[sharers] = False
        counts[others, page] = rng.integers(0, peak // 2 + 1,
                                            size=int(others.sum()))
    return counts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_sockets=st.sampled_from([2, 4, 8, 16]),
       n_pages=st.integers(1, 80),
       budget=st.integers(0, 90))
def test_drawn_near_ties_match_oracle(seed, n_sockets, n_pages, budget):
    rng = np.random.default_rng(seed)
    counts = tied_counts(rng, n_sockets, n_pages, levels=[64, 100, 200])
    locations = rng.integers(0, n_sockets, size=n_pages)
    assert_same_decisions(config_of(budget), trace_of(counts),
                          map_of(locations, n_sockets))


class TestBudget:
    # Ranks by total: 0 clear, 1-3 tied (sockets 2 and 3), 4 clear,
    # 5-6 tied; every page sits on socket 0 and moves.
    TOTALS = [900, 800, 790, 780, 700, 600, 590]
    TIED = [False, True, True, True, False, True, True]

    def counts(self):
        counts = np.zeros((4, len(self.TOTALS)), dtype=np.int64)
        for page, (total, tied) in enumerate(zip(self.TOTALS, self.TIED)):
            if tied:
                counts[2, page] = counts[3, page] = total // 2
            else:
                counts[1, page] = total
        return counts

    @pytest.mark.parametrize("budget", range(9))
    def test_every_cut(self, budget):
        batch = assert_same_decisions(
            config_of(budget), trace_of(self.counts()),
            map_of([0] * len(self.TOTALS), 4))
        assert batch.n_pages == min(budget, len(self.TOTALS))

    def test_cut_inside_a_run_of_ties(self):
        batch = assert_same_decisions(
            config_of(3), trace_of(self.counts()),
            map_of([0] * len(self.TOTALS), 4))
        assert sorted(batch.all_pages().tolist()) == [0, 1, 2]

    def test_cut_at_a_clear_winner(self):
        batch = assert_same_decisions(
            config_of(4), trace_of(self.counts()),
            map_of([0] * len(self.TOTALS), 4))
        assert sorted(batch.all_pages().tolist()) == [0, 1, 2, 3]

    def test_budget_zero(self):
        batch = assert_same_decisions(
            config_of(0), trace_of(self.counts()),
            map_of([0] * len(self.TOTALS), 4))
        assert batch.moves == []


class TestSkips:
    def test_clear_page_already_home_is_skipped(self):
        counts = np.zeros((4, 3), dtype=np.int64)
        counts[1, :] = [500, 400, 300]
        batch = assert_same_decisions(
            config_of(10), trace_of(counts), map_of([2, 1, 0], 4),
            hysteresis=0.5)
        assert moves_of(batch) == [(0, 1, [2]), (2, 1, [0])]

    def test_tied_page_already_at_least_loaded_is_skipped(self):
        # Page 0 (hottest) moves to socket 1, which then serves its 800
        # accesses from socket 3; the tied pages after it stay on socket
        # 2, the less loaded of their pair (750).
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[1, 0] = 1000
        counts[3, 0] = 800
        counts[1, 1:] = counts[2, 1:] = [300, 250, 200]
        batch = assert_same_decisions(
            config_of(10), trace_of(counts), map_of([0, 2, 2, 2], 4),
            hysteresis=0.5)
        assert moves_of(batch) == [(0, 1, [0])]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), budget=st.integers(0, 40))
    def test_drawn_skips(self, seed, budget):
        rng = np.random.default_rng(seed)
        counts = tied_counts(rng, 4, 40, levels=[64, 100])
        # Home half of the pages at their peak socket.
        locations = np.where(rng.random(40) < 0.5, counts.argmax(axis=0),
                             rng.integers(0, 4, size=40))
        assert_same_decisions(config_of(budget), trace_of(counts),
                              map_of(locations, 4), hysteresis=0.5)


class TestEdges:
    def test_no_candidates(self):
        counts = np.full((4, 5), 10, dtype=np.int64)
        batch = assert_same_decisions(config_of(10), trace_of(counts),
                                      map_of([0] * 5, 4))
        assert batch.moves == []

    def test_int64_narrowed_counts(self):
        rng = np.random.default_rng(7)
        counts = tied_counts(rng, 8, 30, levels=[INT32_MAX + 1,
                                                 3 * INT32_MAX])
        trace = trace_of(counts)
        assert trace.values.dtype == np.int64
        batch = assert_same_decisions(config_of(20), trace,
                                      map_of(rng.integers(0, 8, 30), 8))
        assert batch.n_pages > 0


def test_obs_records_match_oracle():
    """Detail records, counters and the batch event equal the oracle's."""
    rng = np.random.default_rng(5)
    counts = tied_counts(rng, 8, 60, levels=[64, 100, 200])
    trace, page_map = trace_of(counts), map_of(rng.integers(0, 8, 60), 8)
    captured = []
    for policy_class in (BaselinePolicy, OracleBaselinePolicy):
        records = []
        OBS.configure(MemorySink(records), level="detail")
        try:
            policy = policy_class(config_of(40))
            policy.decide(trace, page_map.copy())
        finally:
            shutdown()
        for record in records:
            record.pop("t_ns", None)
        # JSON keeps the attribute order, as the trace files do.
        captured.append([json.dumps(record) for record in records])
    got, want = captured
    assert got == want
    names = [json.loads(record).get("name") for record in got]
    assert names.count("migration.decision") == 40
    assert names[-3:] == ["migration.batch", "migration.decisions",
                          "migration.pages_moved"]
