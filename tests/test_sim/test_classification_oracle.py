"""Sparse ``classify_phase`` against the dense oracle, bit for bit.

Every aggregate must be ``np.array_equal`` to the dense computation in
``classification_oracle.py``, never merely close: exports hash these
floats. Random traces cover both count layouts (aligned to the
population's index, and indexed by their own nonzeros as a loaded
trace is), page maps with pool pages, and replication masks. The fig8
populations are then checked phase by phase.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import ExperimentContext
from repro.placement import PageMap
from repro.replication import ReplicationPlan
from repro.sim.classification import classify_phase
from repro.topology import POOL_LOCATION
from repro.trace import PhaseTrace
from repro.workloads import SharingClass, build_population
from tests.conftest import make_profile
from tests.test_sim import classification_oracle

N_SOCKETS = 16
FIELDS = ("demand", "demand_writes", "bt_socket", "bt_pool",
          "bt_pool_owner")

#: A small population with non-trivial block-transfer and write
#: fractions in every class, so every float path carries rounding.
POPULATION = build_population(make_profile(
    n_pages=1024, coupling=0.3,
    sharing=(
        SharingClass(1, 0.30, 0.15, write_fraction=0.17),
        SharingClass(3, 0.30, 0.25, write_fraction=0.31,
                     chassis_affinity=0.5),
        SharingClass(8, 0.20, 0.25, write_fraction=0.23),
        SharingClass(16, 0.20, 0.35, write_fraction=0.07),
    ),
), n_sockets=N_SOCKETS, seed=5, layout="interleaved")


def assert_identical(trace, page_map, population, plan=None):
    got = classify_phase(trace, page_map, population, plan)
    want = classification_oracle.classify_phase(
        trace.dense(), page_map, population, plan)
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.total_accesses == want.total_accesses
    assert got.replicated_writes == want.replicated_writes


def random_map(rng, n_pages, pool_share):
    locations = rng.integers(0, N_SOCKETS, n_pages).astype(np.int16)
    locations[rng.random(n_pages) < pool_share] = POOL_LOCATION
    return PageMap(locations, N_SOCKETS, True)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0),
       scale=st.sampled_from([1, 40, 5000, 3_000_000]),
       pool_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       replicated_share=st.sampled_from([None, 0.0, 0.3, 1.0]),
       aligned=st.booleans())
def test_random_traces_match_oracle(seed, density, scale, pool_share,
                                    replicated_share, aligned):
    rng = np.random.default_rng(seed)
    n_pages = POPULATION.n_pages
    counts = rng.integers(0, scale, (N_SOCKETS, n_pages), endpoint=True)
    counts[rng.random(counts.shape) >= density] = 0
    if aligned:
        # Synthesized phases live on the population's sharer cells.
        index = POPULATION.index
        trace = PhaseTrace(0, index, counts.ravel()[index.flat],
                           instructions_per_thread=1)
    else:
        # A loaded trace is indexed by its own nonzeros, which may fall
        # outside the sharer cells.
        trace = PhaseTrace.from_dense(0, counts, instructions_per_thread=1)
    plan = None
    if replicated_share is not None:
        plan = ReplicationPlan(
            replicated=rng.random(n_pages) < replicated_share,
            extra_copies=0)
    assert_identical(trace, random_map(rng, n_pages, pool_share),
                     POPULATION, plan)


@pytest.fixture(scope="module")
def fig8_context():
    return ExperimentContext(seed=3)


@pytest.mark.parametrize("workload", ExperimentContext().workload_names)
def test_fig8_populations_match_oracle(fig8_context, workload):
    setup = fig8_context.setup(workload)
    population = setup.population
    rng = np.random.default_rng(11)
    for trace in setup.traces:
        page_map = random_map(rng, population.n_pages, 0.2)
        assert_identical(trace, page_map, population)
    plan = ReplicationPlan(replicated=rng.random(population.n_pages) < 0.3,
                           extra_copies=0)
    assert_identical(setup.traces[-1], page_map, population, plan)
