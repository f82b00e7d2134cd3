"""Step A population build: batched sharer sets vs the per-block loop.

Times :func:`build_population` over the eight catalog profiles (16
sockets, seed 3, the clustered layout every ``SimulationSetup`` uses)
twice: as the program runs it, drawing each widely shared class's
sharer sets in one stream-exact batch, and with the per-block oracle
loop (``tests/test_workloads/sharer_mask_oracle.py``) patched in, one
``rng.choice`` per page. Both sides must produce the same bytes.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_population.py \
        --benchmark-json bench-population.json
"""

import pytest

from repro.workloads import all_workloads, build_population
from repro.workloads import population as population_module
from tests.test_workloads import sharer_mask_oracle

SEED = 3
ROUNDS = 3
ARRAYS = ("sharer_mask", "sharer_count", "weight", "write_fraction",
          "class_id")


def build_all():
    return [build_population(profile, n_sockets=16, sockets_per_chassis=4,
                             seed=SEED, layout="clustered")
            for profile in all_workloads()]


@pytest.fixture
def oracle_loop(monkeypatch):
    monkeypatch.setattr(population_module, "_draw_sharer_masks",
                        sharer_mask_oracle._draw_sharer_masks)


def test_bench_population_batched(benchmark):
    populations = benchmark.pedantic(build_all, rounds=ROUNDS)
    assert len(populations) == 8


def test_bench_population_oracle(oracle_loop, benchmark):
    populations = benchmark.pedantic(build_all, rounds=ROUNDS)
    assert len(populations) == 8


def test_population_matches_oracle(monkeypatch):
    """The benchmark pair really builds the same populations, byte for byte."""
    batched = build_all()
    monkeypatch.setattr(population_module, "_draw_sharer_masks",
                        sharer_mask_oracle._draw_sharer_masks)
    for got, want in zip(batched, build_all()):
        for name in ARRAYS:
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes()
