"""Tests for page population construction."""

import numpy as np
import pytest

from repro.workloads import build_population, get_workload
from tests.conftest import make_profile


class TestStructure:
    def test_page_count(self, tiny_population, tiny_profile):
        assert tiny_population.n_pages == tiny_profile.n_pages_sim

    def test_weights_normalized(self, tiny_population):
        assert tiny_population.weight.sum() == pytest.approx(1.0)

    def test_sharer_counts_match_masks(self, tiny_population):
        for page in range(0, tiny_population.n_pages, 971):
            mask = int(tiny_population.sharer_mask[page])
            assert tiny_population.sharer_count[page] == bin(mask).count("1")

    def test_class_page_fractions(self, tiny_population, tiny_profile):
        for index, cls in enumerate(tiny_profile.sharing):
            fraction = np.mean(tiny_population.class_id == index)
            assert fraction == pytest.approx(cls.page_fraction, abs=0.01)

    def test_class_access_fractions(self, tiny_population, tiny_profile):
        for index, cls in enumerate(tiny_profile.sharing):
            share = tiny_population.weight[
                tiny_population.class_id == index
            ].sum()
            assert share == pytest.approx(cls.access_fraction, abs=0.01)

    def test_membership_matches_masks(self, tiny_population):
        member = tiny_population.membership()
        assert member.shape == (16, tiny_population.n_pages)
        page = 0
        mask = int(tiny_population.sharer_mask[page])
        for socket in range(16):
            assert member[socket, page] == bool(mask & (1 << socket))


class TestRates:
    def test_rows_normalized(self, tiny_population):
        rates = tiny_population.socket_access_rates()
        assert rates.sum(axis=1) == pytest.approx(np.ones(16))

    def test_nonsharers_have_zero_rate(self, tiny_population):
        rates = tiny_population.socket_access_rates()
        member = tiny_population.membership()
        assert (rates[~member] == 0).all()


class TestDeterminism:
    def test_same_seed_same_population(self, tiny_profile):
        a = build_population(tiny_profile, seed=11)
        b = build_population(tiny_profile, seed=11)
        assert (a.sharer_mask == b.sharer_mask).all()
        assert a.weight == pytest.approx(b.weight)

    def test_different_seed_differs(self, tiny_profile):
        a = build_population(tiny_profile, seed=11)
        b = build_population(tiny_profile, seed=12)
        assert not (a.sharer_mask == b.sharer_mask).all()


class TestLayouts:
    def test_clustered_keeps_rank_order(self, tiny_profile):
        population = build_population(tiny_profile, seed=1,
                                      layout="clustered")
        # Within the widely shared class, weights decay with page id.
        pages = np.flatnonzero(population.class_id == 2)
        weights = population.weight[pages]
        assert weights[0] > weights[-1]

    def test_interleaved_permutes(self, tiny_profile):
        population = build_population(tiny_profile, seed=1,
                                      layout="interleaved")
        # Class ids are mixed through the address space.
        first_half = population.class_id[:population.n_pages // 2]
        assert len(np.unique(first_half)) == len(tiny_profile.sharing)

    def test_unknown_layout_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            build_population(tiny_profile, layout="bogus")


class TestBalance:
    def test_private_pages_balanced_across_sockets(self):
        profile = make_profile(name="priv", sharing=(
            __import__("repro.workloads", fromlist=["SharingClass"])
            .SharingClass(1, 1.0, 1.0),
        ))
        population = build_population(profile, seed=5)
        member = population.membership()
        per_socket_weight = member @ population.weight
        # Every socket's private set carries a near-equal access share.
        assert per_socket_weight.max() / per_socket_weight.min() < 1.3

    def test_narrow_class_socket_coverage_balanced(self, tiny_population):
        # The 4-sharer class must not concentrate on a few sockets.
        member = tiny_population.membership()
        narrow = tiny_population.class_id == 1
        coverage = member[:, narrow].sum(axis=1)
        assert coverage.min() > 0

    def test_errors_on_class_too_wide(self):
        from repro.workloads import SharingClass

        profile = make_profile(name="wide", sharing=(
            SharingClass(1, 0.5, 0.5),
            SharingClass(16, 0.5, 0.5),
        ))
        with pytest.raises(ValueError):
            build_population(profile, n_sockets=8, sockets_per_chassis=4)

    def test_rejects_misaligned_chassis(self, tiny_profile):
        with pytest.raises(ValueError):
            build_population(tiny_profile, n_sockets=10,
                             sockets_per_chassis=4)

    def test_rejects_more_sockets_than_mask_bits(self):
        # Sharer masks are uint32: 64 sockets would wrap them silently.
        with pytest.raises(ValueError, match="32-bit"):
            build_population(get_workload("poa"), n_sockets=64)


class TestCharacterization:
    def test_histograms_sum_to_one(self, tiny_population):
        _, pages = tiny_population.sharing_degree_histogram()
        _, accesses = tiny_population.access_share_by_degree()
        assert pages.sum() == pytest.approx(1.0)
        assert accesses.sum() == pytest.approx(1.0)

    def test_read_write_split_sums_to_access_share(self, tiny_population):
        _, accesses = tiny_population.access_share_by_degree()
        _, reads, writes = tiny_population.read_write_split_by_degree()
        assert reads + writes == pytest.approx(accesses)

    def test_bfs_headline_statistics(self):
        population = build_population(get_workload("bfs"), seed=1)
        degrees, pages = population.sharing_degree_histogram()
        _, accesses = population.access_share_by_degree()
        assert pages[degrees <= 4].sum() == pytest.approx(0.78, abs=0.02)
        assert accesses[degrees > 8].sum() == pytest.approx(0.68, abs=0.02)
