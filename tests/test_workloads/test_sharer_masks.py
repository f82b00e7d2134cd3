"""The batched sharer-set draw against the per-block oracle loop.

Every class is checked for identical masks *and* an identical generator
afterwards (compared by its next ``random()`` and 32-bit ``integers``
draws), since everything Step A draws later -- weights, the interleaving
permutation -- reads the same stream.
"""

import numpy as np
import pytest

from repro.workloads import all_workloads, build_population, get_workload
from repro.workloads import population as population_module
from tests.test_workloads import sharer_mask_oracle

SOCKETS_PER_CHASSIS = 4
SEEDS = (0, 1, 3, 11, 401)


def catalog_cases():
    """Every (n_sockets, sharers, affinity) of the catalog, plus k == n."""
    cases = set()
    for n_sockets in (16, 32):
        for profile in all_workloads():
            for cls in profile.sharing:
                cases.add((n_sockets, cls.sharers, cls.chassis_affinity))
        cases.add((n_sockets, n_sockets, 0.0))
    return sorted(cases)


def next_draws(rng):
    return (rng.random(), rng.integers(0, 2**32, size=3, dtype=np.uint32))


def assert_same_draws(rng_a, rng_b):
    (random_a, words_a) = next_draws(rng_a)
    (random_b, words_b) = next_draws(rng_b)
    assert random_a == random_b
    np.testing.assert_array_equal(words_a, words_b)


def draw_both(sharers, affinity, size, n_sockets, seed, prepare=None):
    """Draw with the program and the oracle from identical generators."""
    program, oracle = (np.random.default_rng(seed) for _ in range(2))
    if prepare is not None:
        prepare(program)
        prepare(oracle)
    got = population_module._draw_sharer_masks(
        sharers, affinity, size, n_sockets, SOCKETS_PER_CHASSIS, program)
    want = sharer_mask_oracle._draw_sharer_masks(
        sharers, affinity, size, n_sockets, SOCKETS_PER_CHASSIS, oracle)
    return got, want, program, oracle


def buffer_a_half(rng):
    """Leave the high half of the last 64-bit output buffered."""
    rng.integers(0, 7, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1


def buffer_a_zero(rng):
    """Buffer a zero word: Lemire rejects it for any non-power-of-2 bound."""
    state = rng.bit_generator.state
    state["has_uint32"] = 1
    state["uinteger"] = 0
    rng.bit_generator.state = state


def spy_on_batches(monkeypatch):
    """Record every batch result; ``None`` marks a Lemire fallback."""
    batches = []
    original = population_module._draw_page_masks

    def spy(*args):
        batches.append(original(*args))
        return batches[-1]

    monkeypatch.setattr(population_module, "_draw_page_masks", spy)
    return batches


@pytest.mark.parametrize("n_sockets,sharers,affinity", catalog_cases())
@pytest.mark.parametrize("prepare", [None, buffer_a_half])
def test_batch_matches_oracle(n_sockets, sharers, affinity, prepare):
    for seed in SEEDS:
        size = 700 + 37 * seed
        got, want, program, oracle = draw_both(
            sharers, affinity, size, n_sockets, seed, prepare)
        assert got.dtype == want.dtype == np.uint32
        np.testing.assert_array_equal(got, want)
        assert_same_draws(program, oracle)


def test_lemire_rejection_falls_back_to_the_loop(monkeypatch):
    # Floyd's first draw for 8 of 16 has bound 9; the buffered zero word
    # scales to leftover 0, below its threshold of 4.
    batches = spy_on_batches(monkeypatch)
    got, want, program, oracle = draw_both(8, 0.0, 500, 16, 5,
                                           buffer_a_zero)
    assert batches == [None]
    np.testing.assert_array_equal(got, want)
    assert_same_draws(program, oracle)


def test_rejecting_seed_end_to_end(monkeypatch):
    # Clustered tc at seed 255 (the layout every SimulationSetup uses)
    # draws one word that fails Lemire's test in its 8-sharer class, so
    # that class replays through the loop.
    batches = spy_on_batches(monkeypatch)
    got = build_population(get_workload("tc"), seed=255,
                           layout="clustered")
    assert sum(batch is None for batch in batches) == 1
    monkeypatch.setattr(population_module, "_draw_sharer_masks",
                        sharer_mask_oracle._draw_sharer_masks)
    want = build_population(get_workload("tc"), seed=255,
                           layout="clustered")
    for name in ("sharer_mask", "sharer_count", "weight", "write_fraction",
                 "class_id"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))


def test_popcount_matches_bin_count():
    masks = np.random.default_rng(2).integers(0, 2**32, size=4096,
                                              dtype=np.uint32)
    masks[:3] = (0, 1, 0xFFFFFFFF)
    counts = population_module._popcount(masks)
    assert counts.dtype == np.int16
    assert counts.tolist() == [bin(int(mask)).count("1") for mask in masks]
