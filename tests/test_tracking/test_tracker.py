"""Tests for the region tracker arrays."""

import numpy as np
import pytest

from repro.config import MigrationConfig, TrackerKind
from repro.tracking import RegionTrackerArray, region_of_page


class TestRegionOfPage:
    def test_mapping(self):
        pages = np.array([0, 127, 128, 300])
        assert list(region_of_page(pages, 128)) == [0, 0, 1, 2]


class TestConstruction:
    def test_rejects_zero_regions(self):
        with pytest.raises(ValueError):
            RegionTrackerArray(0, 16)

    def test_rejects_too_many_sockets(self):
        with pytest.raises(ValueError):
            RegionTrackerArray(4, 64)

    def test_for_pages_rounds_up(self):
        tracker = RegionTrackerArray.for_pages(129, 16, MigrationConfig())
        assert tracker.n_regions == 2


class TestUpdates:
    def make(self, tracker_kind=TrackerKind.T16):
        return RegionTrackerArray(4, n_sockets=4, tracker=tracker_kind)

    def test_counter_accumulation(self):
        tracker = self.make()
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 1] = 10
        counts[2, 1] = 5
        tracker.update(counts)
        tracker.update(counts)
        assert tracker.accesses()[1] == 30

    def test_counter_saturates_at_16_bits(self):
        tracker = self.make()
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 60_000
        tracker.update(counts)
        tracker.update(counts)
        assert tracker.accesses()[0] == 65_535

    def test_t0_keeps_no_counts(self):
        tracker = self.make(TrackerKind.T0)
        counts = np.ones((4, 4), dtype=np.int64)
        tracker.update(counts)
        assert (tracker.accesses() == 0).all()

    def test_sharer_bits(self):
        tracker = self.make()
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 2] = 1
        counts[3, 2] = 7
        tracker.update(counts)
        assert tracker.sharer_counts()[2] == 2
        assert set(tracker.sharers_of(2)) == {0, 3}

    def test_zero_counts_set_no_bits(self):
        tracker = self.make()
        tracker.update(np.zeros((4, 4), dtype=np.int64))
        assert (tracker.sharer_counts() == 0).all()

    def test_sharer_counts_match_a_bit_loop(self):
        tracker = RegionTrackerArray(6, 32, TrackerKind.T16)
        tracker.sharer_bits[:] = np.array(
            [0, 1, 0x80000000, 0xFFFFFFFF, 0x55555555, 0x12345678],
            dtype=np.uint32)
        counts = tracker.sharer_counts()
        assert counts.dtype == np.int64
        assert counts.tolist() == [bin(int(bits)).count("1")
                                   for bits in tracker.sharer_bits]

    def test_sharer_bits_sticky_within_phase(self):
        tracker = self.make()
        first = np.zeros((4, 4), dtype=np.int64)
        first[1, 0] = 1
        second = np.zeros((4, 4), dtype=np.int64)
        second[2, 0] = 1
        tracker.update(first)
        tracker.update(second)
        assert tracker.sharer_counts()[0] == 2

    def test_reset_clears_everything(self):
        tracker = self.make()
        counts = np.ones((4, 4), dtype=np.int64)
        tracker.update(counts)
        tracker.reset()
        assert (tracker.accesses() == 0).all()
        assert (tracker.sharer_counts() == 0).all()

    def test_rejects_wrong_shape(self):
        tracker = self.make()
        with pytest.raises(ValueError):
            tracker.update(np.zeros((3, 4), dtype=np.int64))

    def test_rejects_negative_counts(self):
        tracker = self.make()
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = -1
        with pytest.raises(ValueError):
            tracker.update(counts)
