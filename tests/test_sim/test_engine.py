"""Tests for the simulation engine (Steps B and C orchestration)."""

import pytest

from repro.config import baseline_config
from repro.sim import SimulationSetup, Simulator


@pytest.fixture(scope="module")
def base_sim(tiny_profile, base_system):
    setup = SimulationSetup.create(tiny_profile, base_system, n_phases=4,
                                   seed=7)
    return Simulator(base_system, setup)


@pytest.fixture(scope="module")
def star_sim(base_sim, star_system):
    return Simulator(star_system, base_sim.setup)


class TestSetup:
    def test_footprint_scale(self, tiny_profile):
        scale = SimulationSetup.footprint_scale(tiny_profile)
        assert scale == pytest.approx(4096 * 4096 / 1e9)

    def test_traces_shared_across_systems(self, base_sim, star_sim):
        assert base_sim.setup is star_sim.setup

    def test_total_counts_sum_phases(self, base_sim):
        totals = base_sim.setup.total_counts()
        assert totals.sum() == sum(trace.total_accesses
                                   for trace in base_sim.setup.traces)

    def test_socket_count_mismatch_rejected(self, base_sim):
        import dataclasses

        odd = dataclasses.replace(baseline_config(), n_chassis=2)
        with pytest.raises(ValueError):
            Simulator(odd, base_sim.setup)


class TestStepB:
    def test_checkpoints_cover_all_phases(self, star_sim):
        checkpoints = star_sim.checkpoints("dynamic")
        assert len(checkpoints) == 4
        assert [cp.phase for cp in checkpoints] == [0, 1, 2, 3]

    def test_first_phase_has_no_batch(self, star_sim):
        assert star_sim.checkpoints("dynamic")[0].batch is None

    def test_checkpoints_cached(self, star_sim):
        assert (star_sim.checkpoints("dynamic")
                is star_sim.checkpoints("dynamic"))

    def test_maps_are_snapshots(self, star_sim):
        checkpoints = star_sim.checkpoints("dynamic")
        # Later snapshots must not alias earlier ones.
        first = checkpoints[0].page_map
        last = checkpoints[-1].page_map
        assert first is not last
        assert first.pool_page_count() == 0

    def test_pool_fills_over_time(self, star_sim):
        checkpoints = star_sim.checkpoints("dynamic")
        assert checkpoints[-1].page_map.pool_page_count() > 0

    def test_pool_capacity_respected(self, star_sim):
        limit = int(star_sim.setup.population.n_pages
                    * star_sim.system.pool.capacity_fraction)
        for checkpoint in star_sim.checkpoints("dynamic"):
            assert checkpoint.page_map.pool_page_count() <= limit

    def test_baseline_never_uses_pool(self, base_sim):
        for checkpoint in base_sim.checkpoints("dynamic"):
            assert checkpoint.page_map.pool_page_count() == 0

    def test_static_mode_is_constant(self, star_sim):
        checkpoints = star_sim.checkpoints("static")
        first = checkpoints[0].page_map.locations
        for checkpoint in checkpoints[1:]:
            assert (checkpoint.page_map.locations == first).all()
            assert checkpoint.batch is None

    def test_none_mode_keeps_first_touch(self, star_sim):
        checkpoints = star_sim.checkpoints("none")
        assert checkpoints[-1].page_map.pool_page_count() == 0

    def test_unknown_mode_rejected(self, star_sim):
        with pytest.raises(ValueError):
            star_sim.checkpoints("bogus")

    def test_static_oracle_uses_pool(self, star_sim):
        oracle_map = star_sim.static_oracle_map()
        assert oracle_map.pool_page_count() > 0

    def test_effective_migration_limit_floor(self, star_sim):
        from repro.sim.engine import MIN_MIGRATION_REGIONS

        pages_per_region = star_sim.system.migration.pages_per_region
        assert (star_sim.effective_migration_limit
                >= MIN_MIGRATION_REGIONS * pages_per_region)


class TestStepC:
    def test_calibrate_then_run(self, base_sim):
        calibration = base_sim.calibrate()
        result = base_sim.run(calibration=calibration, warmup_phases=1)
        assert result.workload == "synthetic"
        assert result.ipc > 0
        # Closed loop should land near the published anchor.
        assert result.ipc == pytest.approx(
            base_sim.setup.profile.ipc_16, rel=0.15
        )

    def test_warmup_excluded(self, base_sim):
        calibration = base_sim.calibrate()
        result = base_sim.run(calibration=calibration, warmup_phases=2)
        assert len(result.phases) == 2

    def test_warmup_must_leave_phases(self, base_sim):
        n_phases = len(base_sim.setup.traces)
        with pytest.raises(ValueError, match="measured phase"):
            base_sim.run(fixed_ipc=0.4, warmup_phases=n_phases)

    def test_requires_calibration_or_fixed_ipc(self, base_sim):
        with pytest.raises(ValueError, match="calibration"):
            base_sim.run()

    def test_starnuma_beats_baseline(self, base_sim, star_sim):
        calibration = base_sim.calibrate()
        base = base_sim.run(calibration=calibration, warmup_phases=1)
        star = star_sim.run(calibration=calibration, warmup_phases=1)
        assert star.speedup_over(base) > 1.0

    def test_migration_stats_accumulated(self, star_sim, base_sim):
        calibration = base_sim.calibrate()
        result = star_sim.run(calibration=calibration, warmup_phases=1)
        assert result.pages_migrated > 0
        assert 0.0 <= result.pool_migration_fraction <= 1.0
