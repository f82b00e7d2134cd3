"""Narrow integer storage: same results, smallest exact types.

A phase keeps its counts in the narrowest signed type that holds them,
a count index keeps its entries' sockets in int8 and its page-major
order in int32, and page maps keep int8 locations. Every reader must
upcast before arithmetic that could leave the narrow range, so the
same counts stored in any type give bit-identical results; the layout
guard then pins that a set-up really keeps the narrow types after
Steps B and C.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import MigrationConfig, baseline_config, starnuma_config
from repro.migration import BaselinePolicy
from repro.migration.regions import RegionTable
from repro.placement import PageMap
from repro.replication import ReplicationPlan
from repro.sim import SimulationSetup, Simulator
from repro.sim.classification import classify_phase
from repro.topology import POOL_LOCATION
from repro.trace import PhaseTrace
from repro.workloads.cells import CountIndex, narrowest_signed
from tests.conftest import make_profile
from tests.test_sim.test_no_dense_counts import reachable

DTYPES = (np.int8, np.int16, np.int32, np.int64)


@pytest.fixture(scope="module")
def int8_setup():
    """A set-up whose counts fit int8, many of them at its maximum.

    2048 pages in regions of 8 make 256 regions, so ``sockets *
    n_regions`` and ``sockets * n_pages`` leave int8; a reader that
    kept either product, or a sum of counts, narrow would wrap.
    """
    setup = SimulationSetup.create(make_profile(n_pages=2048),
                                   baseline_config(), n_phases=3, seed=5)
    rng = np.random.default_rng(11)
    traces = [PhaseTrace(trace.phase, trace.index,
                         np.minimum(rng.integers(0, 200, trace.index.size),
                                    127),
                         trace.instructions_per_thread)
              for trace in setup.traces]
    return dataclasses.replace(setup, traces=traces)


def stored_as(setup, dtype):
    return dataclasses.replace(setup, traces=[
        PhaseTrace(trace.phase, trace.index, trace.values.astype(dtype),
                   trace.instructions_per_thread)
        for trace in setup.traces])


def readings(setup):
    """Every count reader's output on ``setup``, as comparable bytes."""
    population = setup.population
    n_sockets, n_pages = population.n_sockets, population.n_pages
    rng = np.random.default_rng(2)
    first_touch = PageMap(rng.integers(0, n_sockets, n_pages), n_sockets,
                          has_pool=False)
    pooled = PageMap(np.where(rng.random(n_pages) < 0.3, POOL_LOCATION,
                              first_touch.locations), n_sockets, True)
    plan = ReplicationPlan(replicated=rng.random(n_pages) < 0.2,
                           extra_copies=0)
    pages = rng.permutation(n_pages)[:300]
    regions = RegionTable(first_touch, 8)
    out = [setup.total_counts()]
    for trace in setup.traces:
        out += [trace.page_totals(), trace.page_peaks(),
                trace.accesses_per_socket(), trace.total_accesses,
                trace.at_sockets(pooled.locations.astype(np.int64)),
                trace.columns(pages), trace.columns_total(pages),
                regions.aggregate_page_counts(trace)]
        for page_map, replication in ((first_touch, None), (pooled, None),
                                      (pooled, plan)):
            classified = classify_phase(trace, page_map, population,
                                        replication)
            out += [classified.demand, classified.demand_writes,
                    classified.bt_socket, classified.bt_pool,
                    classified.bt_pool_owner, classified.total_accesses,
                    classified.replicated_writes]
        moved = first_touch.copy()
        batch = BaselinePolicy(MigrationConfig(
            migration_limit_pages=200)).decide(trace, moved)
        out += [moved.locations,
                [(move.source, move.destination, move.pages.tolist())
                 for move in batch.moves]]
    return [(item.dtype.str, item.shape, item.tobytes())
            if isinstance(item, np.ndarray) else (type(item), item)
            for item in out]


@pytest.mark.parametrize("dtype", DTYPES)
def test_stored_type_never_changes_a_result(int8_setup, dtype):
    assert int8_setup.traces[0].values.max() == 127
    reference = readings(stored_as(int8_setup, np.int64))
    assert readings(stored_as(int8_setup, dtype)) == reference


class TestCountIndexProducts:
    @pytest.mark.parametrize("n_sockets", [2, 16, 32, 127, 128, 129])
    def test_flat_offsets_and_rows_survive_narrow_sockets(self, n_sockets):
        n_pages = 300
        rng = np.random.default_rng(n_sockets)
        mask = rng.random((n_sockets, n_pages)) < 0.1
        mask[-1, -1] = True
        index = CountIndex.from_mask(mask)
        assert index.sockets.dtype == narrowest_signed(0, n_sockets - 1)
        assert np.array_equal(index.flat, np.flatnonzero(mask))
        assert np.array_equal(np.diff(index.row_bounds),
                              mask.sum(axis=1))
        values = np.arange(1, index.size + 1)
        dense = np.zeros(mask.shape, dtype=np.int64)
        dense[mask] = values
        assert np.array_equal(index.dense(values), dense)


def test_setup_keeps_the_narrowest_types():
    profile = make_profile(n_pages=2048)
    setup = SimulationSetup.create(profile, baseline_config(), n_phases=4,
                                   seed=5)
    for system in (baseline_config(), starnuma_config()):
        simulator = Simulator(system, setup)
        calibration = Simulator(baseline_config(), setup).calibrate()
        simulator.run(calibration, warmup_phases=1)
        simulator.run(calibration, mode="static", warmup_phases=1)

    objects = list(reachable(setup))
    traces = [obj for obj in objects if isinstance(obj, PhaseTrace)]
    assert len(traces) == len(setup.traces)
    for trace in traces:
        values = trace.values
        assert values.dtype == narrowest_signed(int(values.min()),
                                                int(values.max()))
    # The real counts of this profile fit int16 but not int8.
    assert {trace.values.dtype for trace in traces} == {np.dtype(np.int16)}

    indexes = [obj for obj in objects if isinstance(obj, CountIndex)]
    assert indexes == [setup.population.index]
    index = indexes[0]
    assert index.sockets.dtype == np.int8
    assert index.pages.dtype == np.int64
    # Step B read the page-major order (page peaks, cells at the home).
    order, starts = index.__dict__["_page_major"]
    assert order.dtype == np.int32
    assert starts.dtype == np.int64

    maps = [obj for obj in objects if isinstance(obj, PageMap)]
    assert len(maps) >= len(setup.traces)
    assert {page_map.locations.dtype for page_map in maps} == {
        np.dtype(np.int8)}
