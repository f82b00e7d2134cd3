"""Tests for the region table."""

import numpy as np
import pytest

from repro.migration import RegionTable
from repro.placement import PageMap
from repro.trace import PhaseTrace


def map_of(locations):
    return PageMap(np.array(locations, dtype=np.int16), n_sockets=4,
                   has_pool=True)


class TestGrouping:
    def test_groups_by_initial_home(self):
        # Socket 0 owns pages 0,1,4; socket 1 owns 2,3.
        table = RegionTable(map_of([0, 0, 1, 1, 0]), pages_per_region=2)
        assert table.n_regions == 3
        assert list(table.pages_of(0)) == [0, 1]
        assert list(table.pages_of(1)) == [4]
        assert list(table.pages_of(2)) == [2, 3]

    def test_page_to_region_consistent(self):
        table = RegionTable(map_of([0, 1, 0, 1]), pages_per_region=2)
        for region in range(table.n_regions):
            for page in table.pages_of(region):
                assert table.region_of(int(page)) == region

    def test_every_page_assigned(self):
        table = RegionTable(map_of([0, 1, 2, 3, 0, 1]), pages_per_region=4)
        sizes = table.region_sizes()
        assert sizes.sum() == 6

    def test_rejects_bad_region_size(self):
        with pytest.raises(ValueError):
            RegionTable(map_of([0]), pages_per_region=0)

    def test_region_lookup_range(self):
        table = RegionTable(map_of([0, 1]), pages_per_region=2)
        with pytest.raises(ValueError):
            table.pages_of(99)
        with pytest.raises(ValueError):
            table.region_of(99)


class TestAggregation:
    def test_counts_aggregate(self):
        table = RegionTable(map_of([0, 0, 1, 1]), pages_per_region=2)
        counts = np.array([
            [1, 2, 3, 4],
            [5, 6, 7, 8],
        ], dtype=np.int64)
        regions = table.aggregate_page_counts(
            PhaseTrace.from_dense(0, counts, instructions_per_thread=1))
        # Region 0 holds pages {0,1}; region 1 holds {2,3}.
        assert regions[0, table.region_of(0)] == 3
        assert regions[1, table.region_of(2)] == 15
        assert regions.sum() == counts.sum()

    def test_rejects_mismatched_pages(self):
        table = RegionTable(map_of([0, 0]), pages_per_region=2)
        with pytest.raises(ValueError):
            table.aggregate_page_counts(PhaseTrace.from_dense(
                0, np.zeros((2, 5), dtype=np.int64), 1))


class TestLocations:
    def test_region_locations_follow_map(self):
        page_map = map_of([0, 0, 1, 1])
        table = RegionTable(page_map, pages_per_region=2)
        locations = table.region_locations(page_map)
        assert locations[table.region_of(0)] == 0
        assert locations[table.region_of(2)] == 1

    def test_locations_after_move(self):
        page_map = map_of([0, 0, 1, 1])
        table = RegionTable(page_map, pages_per_region=2)
        region = table.region_of(0)
        page_map.move(table.pages_of(region), 3)
        assert table.region_locations(page_map)[region] == 3
