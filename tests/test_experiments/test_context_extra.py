"""Additional experiment-context coverage: phase stretching, scales."""

import pytest

from repro.experiments import ExperimentContext


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(seed=3, n_phases=4, warmup_phases=1,
                             workloads=("poa",))


class TestPhaseMultiplier:
    def test_stretched_setup_has_longer_phases(self, context):
        normal = context.setup("poa")
        stretched = context.setup("poa", phase_multiplier=3)
        assert (stretched.traces[0].instructions_per_thread
                == pytest.approx(3 * normal.traces[0]
                                 .instructions_per_thread, rel=0.01))

    def test_stretched_setup_same_population(self, context):
        normal = context.setup("poa")
        stretched = context.setup("poa", phase_multiplier=3)
        assert (normal.population.sharer_mask
                == stretched.population.sharer_mask).all()

    def test_one_population_per_setup_key(self, monkeypatch):
        import repro.sim.engine as engine
        import repro.workloads as workloads

        built = []
        original = engine.build_population

        def spy(profile, *args, **kwargs):
            built.append(profile.name)
            return original(profile, *args, **kwargs)

        # Both import sites: a second Step A path would be counted too.
        monkeypatch.setattr(engine, "build_population", spy)
        monkeypatch.setattr(workloads, "build_population", spy)
        context = ExperimentContext(seed=3, n_phases=2, warmup_phases=1,
                                    workloads=("poa",))
        for _ in range(2):
            context.setup("poa")
            context.setup("poa", phase_multiplier=3)
        assert built == ["poa", "poa"]

    def test_stretched_runs_cached_separately(self, context):
        star = context.starnuma_system()
        normal = context.run(star, "poa")
        stretched = context.run(star, "poa", phase_multiplier=3)
        assert normal is not stretched


class TestScaledSystems:
    def test_scale2_setup_doubles_threads(self, context):
        normal = context.setup("poa")
        scaled = context.setup("poa", scale=2)
        # Twice the threads per socket issue twice the accesses.
        assert (scaled.traces[0].total_accesses
                > 1.5 * normal.traces[0].total_accesses)

    def test_scale2_speedup_computable(self, context):
        speedup = context.speedup(context.starnuma_system(scale=2), "poa",
                                  scale=2)
        assert speedup == pytest.approx(1.0, abs=0.03)  # POA stays neutral
