"""Step C's per-phase bookkeeping: the array passes against the loops.

``PhaseTimingModel`` bins the access breakdown with one ``bincount``
and charges migration copies with one ``np.add.at``; the migration
cost model sums the moved pages' counts as integers, with no dense
block. ``scalar_oracle.py`` keeps the per-cell and per-hop loops they
replaced. Every case compares the two bit for bit: the charged byte
vector with ``np.array_equal``, the breakdown's kinds in dict order
with ``float.hex()`` counts.
"""

import numpy as np
import pytest

from repro.config import TrackerKind, baseline_config, starnuma_config
from repro.experiments import ExperimentContext
from repro.experiments.ext_scale import thirty_two_socket_config
from repro.faults import FaultSchedule
from repro.interconnect import LinkLoads
from repro.migration import MigrationBatch
from repro.migration.records import RegionMove
from repro.sim import SimulationSetup, Simulator
from repro.sim.classification import PhaseClassification
from repro.topology import POOL_LOCATION
from repro.trace import PhaseTrace
from repro.workloads import WORKLOADS
from tests.test_sim import scalar_oracle
from tests.test_sim.test_step_c_golden import FAULTS


def breakdown_bits(breakdown):
    """Kinds in dict order, with their counts as ``float.hex()``."""
    return [(kind, float(count).hex())
            for kind, count in breakdown.counts.items()]


def assert_bookkeeping_matches(model, trace, page_map, batch):
    """Breakdown, migration charge and moved-page sum: array == loop."""
    classification = model.classify(trace, page_map)
    assert breakdown_bits(model._breakdown(classification)) == \
        breakdown_bits(scalar_oracle.breakdown(model, classification))

    # Both start from the same access charge, as a phase does.
    array = LinkLoads(model.topology, burstiness=model.settings.burstiness)
    loop = LinkLoads(model.topology, burstiness=model.settings.burstiness)
    model._vector_kernel().charge(classification, array)
    model._vector_kernel().charge(classification, loop)
    if batch is not None:
        model._charge_migrations(array, batch)
        scalar_oracle.charge_migrations(model, loop, batch)
    assert np.array_equal(array.bytes_vector, loop.bytes_vector)

    if batch is not None:
        pages = batch.all_pages()
        assert trace.columns_total(pages) == int(trace.columns(pages).sum())


def assert_run_matches(simulator, mode="dynamic"):
    """Every checkpoint of one run, on its fault state's model."""
    checkpoints = simulator.checkpoints(mode)
    for trace, checkpoint in zip(simulator.setup.traces, checkpoints):
        model = simulator._phase_timing_model(trace.phase)
        assert_bookkeeping_matches(model, trace, checkpoint.page_map,
                                   checkpoint.batch)
    return checkpoints


@pytest.fixture(scope="module")
def fig8_context():
    return ExperimentContext(seed=3)


@pytest.mark.parametrize("workload", ExperimentContext().workload_names)
def test_fig8_checkpoints_match_loops(fig8_context, workload):
    systems = (fig8_context.baseline_system(),
               fig8_context.starnuma_system(tracker=TrackerKind.T16),
               fig8_context.starnuma_system(tracker=TrackerKind.T0))
    setup = fig8_context.setup(workload)
    for system in systems:
        assert_run_matches(Simulator(system, setup))


def test_golden_fault_schedule_matches_loops():
    setup = SimulationSetup.create(WORKLOADS["sssp"], baseline_config(),
                                   n_phases=4, seed=7)
    simulator = Simulator(starnuma_config(), setup,
                          faults=FaultSchedule(list(FAULTS)))
    assert_run_matches(simulator)
    faulted = {simulator._phase_timing_model(phase).routes
               for phase in range(4)}
    assert len(faulted) == 3  # clean, link down, then the pool slowed


def test_thirty_two_sockets_match_loops():
    system = thirty_two_socket_config()
    setup = SimulationSetup.create(WORKLOADS["tc"], system, n_phases=3,
                                   seed=11)
    checkpoints = assert_run_matches(Simulator(system, setup))
    assert any(checkpoint.batch is not None and checkpoint.batch.moves
               for checkpoint in checkpoints)


class TestHandBuiltBatches:
    @pytest.fixture(scope="class")
    def world(self):
        setup = SimulationSetup.create(WORKLOADS["bfs"], baseline_config(),
                                       n_phases=2, seed=5)
        simulator = Simulator(starnuma_config(), setup)
        return simulator, setup.traces[1], simulator.initial_page_map()

    def move(self, pages, source, destination):
        return RegionMove(pages=np.asarray(pages, dtype=np.int64),
                          source=source, destination=destination)

    def test_pool_source_moves(self, world):
        simulator, trace, page_map = world
        batch = MigrationBatch(phase=1, moves=[
            self.move([0, 1, 2], POOL_LOCATION, 3),
            self.move([4], 3, POOL_LOCATION),
            self.move([5, 6], 0, 9),
            self.move([7], POOL_LOCATION, 12),
            self.move([8, 9, 10, 11], POOL_LOCATION, 3),
        ])
        assert_bookkeeping_matches(simulator.timing, trace, page_map, batch)

    def test_empty_batch(self, world):
        simulator, trace, page_map = world
        assert_bookkeeping_matches(simulator.timing, trace, page_map,
                                   MigrationBatch(phase=1))


def hand_built(n, cells):
    """A classification with demand only at ``cells`` (row, column)."""
    demand = np.zeros((n, n + 1))
    for row, column, count in cells:
        demand[row, column] = count
    return PhaseClassification(
        demand=demand, demand_writes=np.zeros_like(demand),
        bt_socket=np.zeros((n, n)), bt_pool=np.zeros(n),
        bt_pool_owner=np.zeros(n), total_accesses=float(demand.sum()))


def test_kinds_keep_first_occurrence_order():
    model = Simulator(starnuma_config(), SimulationSetup.create(
        WORKLOADS["bfs"], baseline_config(), n_phases=1, seed=5)).timing
    n = model.topology.n_sockets
    # Row-major first occurrences: pool, 2-hop, local, then 1-hop.
    classification = hand_built(n, [(0, n, 0.1), (1, 12, 2.5),
                                    (2, 2, 7.0), (2, 12, 0.3),
                                    (5, 4, 1.0 / 3.0), (9, n, 3.0)])
    got = model._breakdown(classification)
    assert [kind.value for kind in got.counts] == \
        ["pool", "2-hop", "local", "1-hop"]
    assert breakdown_bits(got) == breakdown_bits(
        scalar_oracle.breakdown(model, classification))


def test_pool_demand_on_pool_less_system_raises():
    model = Simulator(baseline_config(), SimulationSetup.create(
        WORKLOADS["bfs"], baseline_config(), n_phases=1, seed=5)).timing
    n = model.topology.n_sockets
    classification = hand_built(n, [(2, 2, 5.0), (3, n, 1.0)])
    with pytest.raises(ValueError):
        model._breakdown(classification)
    with pytest.raises(ValueError):
        scalar_oracle.breakdown(model, classification)


class TestColumnsTotal:
    def trace(self, counts):
        return PhaseTrace.from_dense(0, np.asarray(counts),
                                     instructions_per_thread=1)

    @pytest.mark.parametrize("pages", [[], [3], [0, 5, 5, 2], list(range(8))])
    def test_equals_the_dense_column_sum(self, pages):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 50, size=(4, 8)) * (rng.random((4, 8)) < 0.5)
        trace = self.trace(counts)
        pages = np.asarray(pages, dtype=np.int64)
        assert trace.columns_total(pages) == int(trace.columns(pages).sum())
        assert trace.columns_total(pages) == int(counts[:, pages].sum())

    def test_int64_counts_past_int32(self):
        big = int(np.iinfo(np.int32).max) + 1
        counts = np.array([[big, 1], [big, 0]], dtype=np.int64)
        trace = self.trace(counts)
        assert trace.values.dtype == np.int64
        assert trace.columns_total(np.array([0, 1])) == 2 * big + 1
