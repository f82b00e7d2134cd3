"""Step C's float64 tables: held by one population's index at a time.

Classification reads three float64 tables from the population's
:class:`SharerIndex` (the dense membership and the per-entry
block-transfer and write fractions). Building them on one index drops
them from the index that held them before, and a population whose
tables were dropped rebuilds them bit for bit when it is classified
again. The holder is weak, so a finished set-up takes its tables with it.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.config import baseline_config
from repro.placement import PageMap
from repro.sim import SimulationSetup
from repro.sim.classification import classify_phase
from repro.topology import POOL_LOCATION
from repro.workloads.cells import SharerIndex
from tests.conftest import make_profile

FIELDS = ("demand", "demand_writes", "bt_socket", "bt_pool",
          "bt_pool_owner")


def make_setup(seed):
    return SimulationSetup.create(make_profile(n_pages=1024),
                                  baseline_config(), n_phases=2, seed=seed)


@pytest.fixture(scope="module")
def setups():
    return make_setup(3), make_setup(4)


def page_map(setup, pooled):
    """A seeded map; with ``pooled``, about a third of pages in the pool."""
    population = setup.population
    rng = np.random.default_rng(9)
    locations = rng.integers(0, population.n_sockets, population.n_pages)
    if pooled:
        locations = np.where(rng.random(population.n_pages) < 0.3,
                             POOL_LOCATION, locations)
    return PageMap(locations, population.n_sockets, has_pool=pooled)


def classify(setup, pooled=True, phase=0):
    return classify_phase(setup.traces[phase], page_map(setup, pooled),
                          setup.population)


def held(setup):
    """The Step C tables the set-up's index holds now."""
    return {name for name in SharerIndex.STEP_C_TABLES
            if name in vars(setup.population.index)}


def as_bytes(classification):
    arrays = [getattr(classification, name) for name in FIELDS]
    return ([(array.dtype.str, array.shape, array.tobytes())
             for array in arrays]
            + [classification.total_accesses,
               classification.replicated_writes])


def test_only_the_last_classified_population_holds_the_tables(setups):
    first, second = setups
    classify(first)
    assert held(first) == set(SharerIndex.STEP_C_TABLES)
    classify(second)
    assert held(first) == set()
    assert held(second) == set(SharerIndex.STEP_C_TABLES)
    index = second.population.index
    assert index.membership_f64 is index.membership_f64
    assert index.entry_bt_fraction is index.entry_bt_fraction


@pytest.mark.parametrize("pooled", [False, True])
def test_reclassifying_after_eviction_is_bit_identical(setups, pooled):
    first, second = setups
    before = [as_bytes(classify(first, pooled, phase)) for phase in (0, 1)]
    classify(second, pooled)
    assert held(first) == set()
    after = [as_bytes(classify(first, pooled, phase)) for phase in (0, 1)]
    assert after == before


def test_the_holder_is_weak():
    setup = make_setup(5)
    classify(setup)
    index = weakref.ref(setup.population.index)
    table = weakref.ref(setup.population.index.membership_f64)
    assert SharerIndex._step_c_holder() is index()
    del setup
    gc.collect()
    assert index() is None
    assert table() is None
    assert SharerIndex._step_c_holder() is None
