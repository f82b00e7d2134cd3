"""Tests for the page map and first-touch placement."""

import numpy as np
import pytest

from repro.placement import PageMap, first_touch_placement
from repro.topology import POOL_LOCATION


class TestPageMap:
    def make(self, locations, has_pool=True):
        return PageMap(np.array(locations, dtype=np.int16), n_sockets=16,
                       has_pool=has_pool)

    def test_basics(self):
        page_map = self.make([0, 1, POOL_LOCATION, 15])
        assert page_map.n_pages == 4
        assert page_map.location_of(2) == POOL_LOCATION

    def test_rejects_pool_without_pool(self):
        with pytest.raises(ValueError):
            self.make([0, POOL_LOCATION], has_pool=False)

    def test_rejects_out_of_range_socket(self):
        with pytest.raises(ValueError):
            self.make([16])

    def test_rejects_below_pool(self):
        with pytest.raises(ValueError):
            self.make([-2])

    def test_move(self):
        page_map = self.make([0, 0, 0])
        page_map.move(np.array([1, 2]), POOL_LOCATION)
        assert page_map.pool_page_count() == 2
        assert page_map.location_of(0) == 0

    def test_move_validates_destination(self):
        page_map = self.make([0], has_pool=False)
        with pytest.raises(ValueError):
            page_map.move(np.array([0]), POOL_LOCATION)
        with pytest.raises(ValueError):
            page_map.move(np.array([0]), 99)

    def test_pages_at(self):
        page_map = self.make([3, 1, 3])
        assert list(page_map.pages_at(3)) == [0, 2]

    def test_occupancy_excludes_pool(self):
        page_map = self.make([0, 0, POOL_LOCATION, 5])
        occupancy = page_map.occupancy()
        assert occupancy[0] == 2
        assert occupancy[5] == 1
        assert occupancy.sum() == 3

    def test_copy_is_independent(self):
        page_map = self.make([0, 1])
        clone = page_map.copy()
        clone.move(np.array([0]), 5)
        assert page_map.location_of(0) == 0

    def test_pool_count_zero_without_pool(self):
        assert self.make([0, 1], has_pool=False).pool_page_count() == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            PageMap(np.zeros((2, 2), dtype=np.int16), 16, True)

    def test_locations_are_int8(self):
        assert self.make([0, POOL_LOCATION, 15]).locations.dtype == np.int8

    @pytest.mark.parametrize("location", [16, 259, 65539, 2**32 + 3,
                                          -2, -257, -65537])
    def test_out_of_range_never_wraps_into_range(self, location):
        # 259 and 65539 wrap to 3 in int8 and int16, -257 to -1 (pool).
        for dtype in (np.int32, np.int64):
            if np.iinfo(dtype).min <= location <= np.iinfo(dtype).max:
                with pytest.raises(ValueError):
                    PageMap(np.array([0, location], dtype=dtype), 16, True)
        with pytest.raises(ValueError):
            PageMap([0, location], 16, True)

    def test_rejects_more_sockets_than_int8_holds(self):
        PageMap([127], 128, True)
        with pytest.raises(ValueError):
            PageMap([0], 129, True)

    def test_an_int8_input_is_kept_without_a_copy(self):
        locations = np.array([0, 3, POOL_LOCATION], dtype=np.int8)
        assert PageMap(locations, 16, True).locations is locations


class TestFirstTouch:
    def test_places_at_a_sharer(self, rng):
        masks = np.array([0b0001, 0b0110, 0b1000], dtype=np.uint32)
        page_map = first_touch_placement(masks, n_sockets=4, has_pool=True,
                                         rng=np.random.default_rng(0))
        assert page_map.location_of(0) == 0
        assert page_map.location_of(1) in (1, 2)
        assert page_map.location_of(2) == 3

    def test_never_places_in_pool(self):
        masks = np.full(100, 0xFFFF, dtype=np.uint32)
        page_map = first_touch_placement(masks, 16, True,
                                         np.random.default_rng(1))
        assert page_map.pool_page_count() == 0

    def test_uniform_over_sharers(self):
        masks = np.full(16000, 0b1111, dtype=np.uint32)
        page_map = first_touch_placement(masks, 4, False,
                                         np.random.default_rng(2))
        occupancy = page_map.occupancy()
        assert occupancy.sum() == 16000
        assert occupancy.min() > 3500  # roughly uniform across 4 sharers

    def test_deterministic_with_seed(self):
        masks = np.full(64, 0b11, dtype=np.uint32)
        a = first_touch_placement(masks, 4, False, np.random.default_rng(3))
        b = first_touch_placement(masks, 4, False, np.random.default_rng(3))
        assert (a.locations == b.locations).all()

    def test_rejects_empty_sharer_set(self):
        masks = np.array([0], dtype=np.uint32)
        with pytest.raises(ValueError):
            first_touch_placement(masks, 4, False)
