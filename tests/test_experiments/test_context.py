"""Tests for the experiment context (caching and shared state)."""

import dataclasses

import pytest

from repro.config import with_pool_latency_penalty
from repro.experiments import ExperimentContext


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(seed=2, n_phases=5, warmup_phases=1,
                             workloads=("poa", "tc"))


class TestConstruction:
    def test_workload_restriction(self, context):
        assert context.workload_names == ["poa", "tc"]

    def test_default_covers_all_workloads(self):
        assert len(ExperimentContext().workload_names) == 8

    def test_warmup_bound(self):
        with pytest.raises(ValueError):
            ExperimentContext(n_phases=3, warmup_phases=3)


class TestCaching:
    def test_setup_cached(self, context):
        assert context.setup("tc") is context.setup("tc")

    def test_setup_distinct_per_scale(self, context):
        assert context.setup("tc") is not context.setup("tc", scale=2)

    def test_calibration_cached(self, context):
        assert context.calibration("poa") is context.calibration("poa")

    def test_run_cached(self, context):
        star = context.starnuma_system()
        assert (context.run(star, "poa")
                is context.run(star, "poa"))

    def test_runs_keyed_by_mode(self, context):
        star = context.starnuma_system()
        dynamic = context.run(star, "poa")
        static = context.run(star, "poa", mode="static")
        assert dynamic is not static

    def test_runs_keyed_by_system_not_name(self, context):
        star = context.starnuma_system()
        slow = dataclasses.replace(
            with_pool_latency_penalty(star, 190.0), name=star.name)
        assert slow.name == star.name and slow != star
        assert (context.simulator(slow, "tc")
                is not context.simulator(star, "tc"))
        fast_run, slow_run = context.run(star, "tc"), context.run(slow, "tc")
        assert slow_run is not fast_run
        assert slow_run.amat_ns > fast_run.amat_ns
        assert context.run(slow, "tc") is slow_run


class TestResults:
    def test_poa_speedup_is_one(self, context):
        speedup = context.speedup(context.starnuma_system(), "poa")
        assert speedup == pytest.approx(1.0, abs=0.02)

    def test_tc_speedup_above_one(self, context):
        speedup = context.speedup(context.starnuma_system(), "tc")
        assert speedup > 1.1

    def test_baseline_matches_anchor(self, context):
        baseline = context.baseline_result("tc")
        assert baseline.ipc == pytest.approx(
            context.profile("tc").ipc_16, rel=0.15
        )
