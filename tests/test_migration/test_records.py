"""Tests for migration records."""

import numpy as np
import pytest

from repro.migration import MigrationBatch
from repro.migration.records import RegionMove, page_ids
from repro.topology import POOL_LOCATION


def move(pages, source, destination):
    return RegionMove(pages=np.asarray(pages, dtype=np.int64),
                      source=source, destination=destination)


class TestRegionMove:
    def test_flags(self):
        to_pool = move([1, 2], 0, POOL_LOCATION)
        assert to_pool.to_pool and not to_pool.from_pool
        from_pool = move([3], POOL_LOCATION, 5)
        assert from_pool.from_pool and not from_pool.to_pool

    def test_n_pages(self):
        assert move([1, 2, 3], 0, 1).n_pages == 3

    def test_pages_are_int32(self):
        pages = move([0, 5, 2 ** 31 - 1], 0, 1).pages
        assert pages.dtype == np.int32
        assert pages.tolist() == [0, 5, 2 ** 31 - 1]
        assert RegionMove(pages=[3, 4], source=0,
                          destination=1).pages.dtype == np.int32

    def test_int32_pages_are_kept_as_views(self):
        pages = np.arange(10, dtype=np.int32)
        assert RegionMove(pages=pages[2:5], source=0,
                          destination=1).pages.base is pages

    @pytest.mark.parametrize("page", [-1, 2 ** 31, 2 ** 32 + 3, -2 ** 32])
    def test_out_of_range_ids_raise_instead_of_wrapping(self, page):
        with pytest.raises(ValueError):
            move([0, page], 0, 1)
        with pytest.raises(ValueError):
            page_ids(np.array([page], dtype=np.int64))


class TestMigrationBatch:
    def test_counters(self):
        batch = MigrationBatch(phase=1)
        batch.add(move([0, 1], 0, POOL_LOCATION))
        batch.add(move([2], 3, 4))
        batch.add(move([5], POOL_LOCATION, 2))
        assert batch.n_pages == 4
        assert batch.pages_to_pool == 2
        assert batch.pages_from_pool == 1

    def test_pool_fraction_excludes_evictions(self):
        batch = MigrationBatch(phase=1)
        batch.add(move([0, 1], 0, POOL_LOCATION))   # demand, to pool
        batch.add(move([2, 3], 1, 5))               # demand, to socket
        batch.add(move([4], POOL_LOCATION, 2))      # eviction
        assert batch.pool_fraction() == 0.5

    def test_pool_fraction_empty(self):
        assert MigrationBatch(phase=1).pool_fraction() == 0.0

    def test_all_pages(self):
        batch = MigrationBatch(phase=1)
        batch.add(move([7, 8], 0, 1))
        batch.add(move([9], 2, 3))
        assert sorted(batch.all_pages().tolist()) == [7, 8, 9]

    def test_all_pages_empty(self):
        assert MigrationBatch(phase=1).all_pages().size == 0
        assert MigrationBatch(phase=1).all_pages().dtype == np.int32
