"""Tests for the idealized baseline migration policy."""

import numpy as np
import pytest

from repro.config import MigrationConfig
from repro.migration import BaselinePolicy
from repro.placement import PageMap
from repro.trace import PhaseTrace

N_SOCKETS = 16


def make_map(locations):
    return PageMap(np.array(locations, dtype=np.int16), N_SOCKETS,
                   has_pool=False)


def sparse(counts):
    return PhaseTrace.from_dense(0, counts, instructions_per_thread=1)


def make_policy(**kwargs):
    config = MigrationConfig(migration_limit_pages=kwargs.pop("limit", 1000))
    return BaselinePolicy(config, **kwargs)


class TestMigrationDecisions:
    def test_moves_page_to_dominant_accessor(self):
        page_map = make_map([0])
        counts = np.zeros((N_SOCKETS, 1), dtype=np.int64)
        counts[0, 0] = 100
        counts[9, 0] = 500
        batch = make_policy().decide(sparse(counts), page_map)
        assert page_map.location_of(0) == 9
        assert batch.n_pages == 1

    def test_hysteresis_blocks_marginal_moves(self):
        page_map = make_map([0])
        counts = np.zeros((N_SOCKETS, 1), dtype=np.int64)
        counts[0, 0] = 100
        counts[9, 0] = 110  # only 1.1x better: below the 1.25x bar
        batch = make_policy().decide(sparse(counts), page_map)
        assert batch.n_pages == 0
        assert page_map.location_of(0) == 0

    def test_min_access_filter(self):
        page_map = make_map([0])
        counts = np.zeros((N_SOCKETS, 1), dtype=np.int64)
        counts[9, 0] = 10  # hot ratio but tiny volume
        batch = make_policy().decide(sparse(counts), page_map)
        assert batch.n_pages == 0

    def test_budget_spent_on_hottest(self):
        page_map = make_map([0, 0])
        counts = np.zeros((N_SOCKETS, 2), dtype=np.int64)
        counts[9, 0] = 1000
        counts[9, 1] = 5000
        batch = make_policy(limit=1).decide(sparse(counts), page_map)
        assert batch.n_pages == 1
        assert page_map.location_of(1) == 9  # hotter page won the budget
        assert page_map.location_of(0) == 0

    def test_near_ties_spread_by_remote_load(self):
        # Many pages each heavily accessed by sockets 8 and 9 equally;
        # the policy should split them rather than pile on one socket.
        n_pages = 40
        page_map = make_map([0] * n_pages)
        counts = np.zeros((N_SOCKETS, n_pages), dtype=np.int64)
        counts[8, :] = 1000
        counts[9, :] = 1000
        make_policy().decide(sparse(counts), page_map)
        occupancy = page_map.occupancy()
        assert occupancy[8] + occupancy[9] == n_pages
        assert abs(int(occupancy[8]) - int(occupancy[9])) <= 2

    def test_batch_records_sources(self):
        page_map = make_map([2])
        counts = np.zeros((N_SOCKETS, 1), dtype=np.int64)
        counts[2, 0] = 100
        counts[11, 0] = 900
        batch = make_policy().decide(sparse(counts), page_map)
        move = batch.moves[0]
        assert move.source == 2
        assert move.destination == 11

    def test_phase_counter_increments(self):
        policy = make_policy()
        page_map = make_map([0])
        counts = np.zeros((N_SOCKETS, 1), dtype=np.int64)
        policy.decide(sparse(counts), page_map)
        policy.decide(sparse(counts), page_map)
        assert policy.phases_run == 2


class TestValidation:
    def test_rejects_mismatched_shapes(self):
        page_map = make_map([0, 0])
        counts = np.zeros((N_SOCKETS, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            make_policy().decide(sparse(counts), page_map)

    def test_rejects_bad_hysteresis(self):
        with pytest.raises(ValueError):
            make_policy(hysteresis=0.5)

    def test_rejects_bad_min_accesses(self):
        with pytest.raises(ValueError):
            make_policy(min_accesses_per_page=0)
