"""Lane groups: golden equivalence and lane mechanics.

The stacked fixed point must be indistinguishable from the scalar
reference (:mod:`tests.test_sim.scalar_oracle`): within 1e-9 rel on
every workload and system (and under faults), whether lanes run as a
stacked group or one at a time through :meth:`Simulator.run`. And each
lane's result must be *bit-identical* whatever mix of lanes shares the
stack -- that bit-identity is what keeps sweep checkpoints and exports
byte-identical.
"""

import pytest

from repro.config import baseline_config, starnuma_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import SimulationSetup, Simulator
from repro.sim.batch import LaneSpec, lane_signature, plan_groups, run_lanes
from repro.sim.timing import FixedPointSettings
from repro.workloads import WORKLOADS
from tests.test_sim import scalar_oracle

RTOL = 1e-9

ALL_WORKLOADS = sorted(WORKLOADS)

FAULTS = (
    FaultEvent(FaultKind.LINK_FAIL, phase=1, link_id="upi:s0-s1"),
    FaultEvent(FaultKind.POOL_DEGRADE, phase=2,
               capacity_factor=0.5, latency_factor=2.0),
)


@pytest.fixture(scope="module")
def systems():
    return baseline_config(), starnuma_config()


@pytest.fixture(scope="module")
def worlds(systems):
    """One setup + calibration per workload (scalar reference)."""
    base, _ = systems
    out = {}
    for name in ALL_WORKLOADS:
        setup = SimulationSetup.create(WORKLOADS[name], base,
                                       n_phases=3, seed=7)
        calibration = scalar_oracle.calibrate(Simulator(base, setup))
        out[name] = (setup, calibration)
    return out


def simulator(system, setup, faults=None):
    return Simulator(system, setup,
                     faults=FaultSchedule(list(faults)) if faults else None)


def solo_run(system, setup, calibration, faults=None):
    return simulator(system, setup, faults).run(calibration=calibration,
                                                warmup_phases=1)


def oracle_run(system, setup, calibration, faults=None):
    return scalar_oracle.run(simulator(system, setup, faults),
                             calibration=calibration, warmup_phases=1)


def batched_spec(system, setup, calibration, faults=None):
    return LaneSpec(
        simulator=simulator(system, setup, faults),
        calibration=calibration,
        warmup_phases=1,
    )


def assert_close(reference, candidate, rtol=RTOL):
    assert len(reference.phases) == len(candidate.phases)
    for pr, pc in zip(reference.phases, candidate.phases):
        assert pc.ipc == pytest.approx(pr.ipc, rel=rtol)
        assert pc.amat_ns == pytest.approx(pr.amat_ns, rel=rtol)
        assert pc.unloaded_amat_ns == pytest.approx(pr.unloaded_amat_ns,
                                                    rel=rtol)
        assert pc.duration_ns == pytest.approx(pr.duration_ns, rel=rtol)


def assert_bit_identical(reference, candidate):
    assert len(reference.phases) == len(candidate.phases)
    for pr, pc in zip(reference.phases, candidate.phases):
        assert pc.ipc == pr.ipc
        assert pc.amat_ns == pr.amat_ns
        assert pc.unloaded_amat_ns == pr.unloaded_amat_ns
        assert pc.duration_ns == pr.duration_ns
        assert pc.hottest_links == pr.hottest_links
        assert pc.fixed_point_iterations == pr.fixed_point_iterations
        assert pc.converged == pr.converged
    assert candidate.pages_migrated == reference.pages_migrated
    assert (candidate.pages_migrated_to_pool
            == reference.pages_migrated_to_pool)


def drive(driver, lanes, calibration):
    """Run ``(system, setup, faults)`` lanes stacked or one at a time."""
    if driver == "batched":
        return run_lanes([batched_spec(system, setup, calibration, faults)
                          for system, setup, faults in lanes])
    return [solo_run(system, setup, calibration, faults)
            for system, setup, faults in lanes]


class TestGoldenEquivalence:
    """Stacked group and one-lane runs vs the scalar oracle, <= 1e-9."""

    @pytest.mark.parametrize("driver", ["batched", "solo"])
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_whole_grid(self, name, driver, systems, worlds):
        setup, calibration = worlds[name]
        lanes = [(system, setup, None) for system in systems]
        for (system, _, _), result in zip(lanes, drive(driver, lanes,
                                                       calibration)):
            assert_close(oracle_run(system, setup, calibration), result)

    @pytest.mark.parametrize("driver", ["batched", "solo"])
    def test_faulted_schedule(self, driver, systems, worlds):
        base, star = systems
        setup, calibration = worlds["sssp"]
        # Stacked with a clean baseline lane, the faulted lane's phases
        # mix slot widths within one group.
        faulted, clean = drive(driver, [(star, setup, FAULTS),
                                        (base, setup, None)], calibration)
        assert_close(oracle_run(star, setup, calibration, faults=FAULTS),
                     faulted)
        assert_close(oracle_run(base, setup, calibration), clean)


class TestBitIdentity:
    """batched == solo vector kernel, bit for bit."""

    def test_mixed_group_matches_solo(self, systems, worlds):
        """Baseline and StarNUMA lanes (different slot counts) stacked."""
        specs, references = [], []
        for name in ALL_WORKLOADS[:4]:
            setup, calibration = worlds[name]
            for system in systems:
                specs.append(batched_spec(system, setup, calibration))
                references.append(solo_run(system, setup, calibration))
        for reference, result in zip(references, run_lanes(specs)):
            assert_bit_identical(reference, result)

    def test_partial_lane_convergence_order(self, systems, worlds):
        """Each lane's result is independent of who else shares the stack.

        Lanes converge at different iteration counts; a lane that
        retires early is masked out, and the survivors' results must be
        byte-identical to running each lane alone.
        """
        base, star = systems
        setup_a, calibration_a = worlds["sssp"]
        setup_b, calibration_b = worlds["poa"]
        specs = [
            batched_spec(star, setup_a, calibration_a),
            batched_spec(base, setup_b, calibration_b),
            batched_spec(star, setup_b, calibration_b),
        ]
        grouped = run_lanes(specs)
        iteration_counts = {
            tuple(p.fixed_point_iterations for p in result.phases)
            for result in grouped
        }
        assert len(iteration_counts) > 1, (
            "want lanes converging at different iteration counts; pick "
            "other workloads if this ever degenerates"
        )
        for spec, result in zip(specs, grouped):
            (alone,) = run_lanes([LaneSpec(
                simulator=spec.simulator, calibration=spec.calibration,
                warmup_phases=spec.warmup_phases,
            )])
            assert_bit_identical(alone, result)

    def test_open_and_closed_loop_share_a_group(self, systems, worlds):
        base, _ = systems
        setup, calibration = worlds["sssp"]
        profile_ipc = setup.profile.ipc_16
        open_spec = LaneSpec(
            simulator=Simulator(base, setup),
            fixed_ipc=profile_ipc, warmup_phases=1,
        )
        closed_spec = batched_spec(base, setup, calibration)
        open_result, closed_result = run_lanes([open_spec, closed_spec])
        open_solo = Simulator(base, setup).run(
            fixed_ipc=profile_ipc, warmup_phases=1)
        assert_bit_identical(open_solo, open_result)
        assert_bit_identical(
            solo_run(base, setup, calibration), closed_result)
        assert all(p.fixed_point_iterations == 0
                   for p in open_result.phases)


class TestGrouping:
    def test_signature_splits_incompatible_lanes(self, systems, worlds):
        base, _ = systems
        setup, calibration = worlds["sssp"]
        loose = Simulator(base, setup,
                          settings=FixedPointSettings(tolerance=1e-2))
        specs = [
            batched_spec(base, setup, calibration),
            LaneSpec(simulator=loose, calibration=calibration,
                     warmup_phases=1),
            batched_spec(base, setup, calibration),
        ]
        assert lane_signature(specs[0]) != lane_signature(specs[1])
        assert plan_groups(specs, 8) == [[0, 2], [1]]

    def test_groups_chunk_to_batch_lanes(self, systems, worlds):
        base, _ = systems
        setup, calibration = worlds["sssp"]
        specs = [batched_spec(base, setup, calibration) for _ in range(5)]
        assert plan_groups(specs, 2) == [[0, 1], [2, 3], [4]]

    def test_mixed_group_rejected_by_run(self, systems, worlds):
        base, _ = systems
        setup, calibration = worlds["sssp"]
        loose = Simulator(base, setup,
                          settings=FixedPointSettings(tolerance=1e-2))
        with pytest.raises(ValueError, match="compatible"):
            run_lanes([
                batched_spec(base, setup, calibration),
                LaneSpec(simulator=loose, calibration=calibration,
                         warmup_phases=1),
            ])

    def test_closed_loop_needs_calibration(self, systems, worlds):
        base, _ = systems
        setup, _ = worlds["sssp"]
        with pytest.raises(ValueError, match="calibration"):
            run_lanes([LaneSpec(simulator=Simulator(base, setup))])

