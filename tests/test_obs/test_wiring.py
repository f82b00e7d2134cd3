"""Instrumentation wiring through the stack, and the inertness guarantee."""

import json

import pytest

from repro.experiments import ExperimentContext, fig08
from repro.experiments.export import export_all
from repro.obs import OBS, MemorySink, shutdown
from repro.runner import SweepRunner, TransientRunError


@pytest.fixture
def context():
    return ExperimentContext(seed=2, n_phases=4, warmup_phases=1,
                             workloads=("poa",))


class TestSimWiring:
    def test_phase_spans_and_timing_events(self, context):
        records = []
        OBS.configure(MemorySink(records))
        fig08.run(context)
        shutdown()

        spans = [r for r in records if r["kind"] == "span"]
        names = {span["name"] for span in spans}
        assert {"sim.run", "sim.phase", "sim.charge"} <= names
        phase_span = next(s for s in spans if s["name"] == "sim.phase")
        assert {"phase", "loop", "ipc", "iterations",
                "converged"} <= set(phase_span["attrs"])

        timing = [r for r in records
                  if r["kind"] == "event" and r["name"] == "sim.timing"]
        assert timing
        assert {"ipc", "amat_ns", "duration_ns", "iterations"} \
            <= set(timing[0]["attrs"])

        utilization = [r for r in records
                       if r.get("name") == "interconnect.utilization"]
        assert utilization
        top = utilization[0]["attrs"]["top"]
        assert 1 <= len(top) <= 3
        assert {"link", "utilization", "offered_gbps"} <= set(top[0])

    def test_fixed_point_metrics(self, context):
        records = []
        OBS.configure(MemorySink(records))
        fig08.run(context)
        shutdown()
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["sim.phases"]["value"] > 0
        assert metrics["sim.fixed_point.iterations"]["value"] > 0
        histogram = metrics["sim.fixed_point.iterations_per_phase"]
        assert histogram["count"] == metrics["sim.phases"]["value"]

    def test_residual_trajectory_at_detail_level(self, context):
        records = []
        OBS.configure(MemorySink(records), level="detail")
        fig08.run(context)
        shutdown()
        fixed_point = [r for r in records
                       if r.get("name") == "sim.fixed_point"]
        assert fixed_point
        residuals = fixed_point[0]["attrs"]["residuals"]
        assert len(residuals) == fixed_point[0]["attrs"]["iterations"]
        assert all(value >= 0 for value in residuals)

    def test_one_phase_span_per_phase_and_residuals_per_closed_loop(
            self, context):
        records = []
        OBS.configure(MemorySink(records), level="detail")
        fig08.run(context)
        shutdown()
        spans = [span for span in records
                 if span["kind"] == "span" and span["name"] == "sim.phase"]
        residuals = [event for event in records
                     if event.get("name") == "sim.fixed_point"]
        # Calibration plus three systems, four phases each; the three
        # closed-loop runs record a residual trajectory per phase.
        assert len(spans) == 16
        assert len(residuals) == 12


class TestMigrationWiring:
    def test_decision_provenance(self, tmp_path):
        # bfs shares widely, so both policies migrate within 4 phases
        # (poa is too private to cross any threshold that fast).
        context = ExperimentContext(seed=2, n_phases=4, warmup_phases=1,
                                    workloads=("bfs",))
        records = []
        OBS.configure(MemorySink(records), level="detail")
        fig08.run(context)
        shutdown()
        decisions = [r for r in records
                     if r.get("name") == "migration.decision"]
        assert decisions
        policies = {d["attrs"]["policy"] for d in decisions}
        assert "starnuma" in policies
        starnuma = next(d for d in decisions
                        if d["attrs"]["policy"] == "starnuma")
        assert {"region", "pages", "source", "destination", "accesses",
                "sharers", "rule", "hi_threshold"} \
            <= set(starnuma["attrs"])
        assert starnuma["attrs"]["rule"] in ("pool-sharers", "hot-region")
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["migration.decisions"]["value"] >= len(
            [d for d in decisions if d["attrs"]["policy"] == "starnuma"]
        )


class TestRunnerWiring:
    def test_task_spans_and_retry_events(self):
        state = {"left": 1}

        def flaky(task_id):
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientRunError("blip")
            return None

        records = []
        OBS.configure(MemorySink(records))
        runner = SweepRunner(flaky, backoff_s=0.0)
        outcomes = runner.run(["a", "b"])
        shutdown()
        assert all(outcome.succeeded for outcome in outcomes)

        task_spans = [r for r in records if r.get("name") == "runner.task"]
        assert [span["attrs"]["task"] for span in task_spans] == ["a", "b"]
        assert all("pid" in span["attrs"] for span in task_spans)
        assert task_spans[0]["attrs"]["status"] == "ok"

        sweep_span = next(r for r in records
                          if r.get("name") == "runner.sweep")
        assert sweep_span["attrs"]["ok"] == 2

        retries = [r for r in records if r.get("name") == "runner.retry"]
        assert len(retries) == 1
        assert retries[0]["attrs"]["error"] == "TransientRunError"
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["runner.retries"]["value"] == 1.0

    def test_parallel_workers_ship_records_home(self):
        records = []
        OBS.configure(MemorySink(records))
        runner = SweepRunner(lambda task_id: None, jobs=2)
        outcomes = runner.run(["a", "b", "c"])
        shutdown()
        assert all(outcome.succeeded for outcome in outcomes)
        task_spans = [r for r in records if r.get("name") == "runner.task"]
        # Submission order, like the checkpoint and event stream.
        assert [span["attrs"]["task"] for span in task_spans] \
            == ["a", "b", "c"]
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["runner.queue_depth"]["value"] == 0.0

    def test_sequential_path_emits_queue_depth_too(self):
        records = []
        OBS.configure(MemorySink(records))
        SweepRunner(lambda task_id: None, jobs=1).run(["a", "b", "c"])
        shutdown()
        # Gauges flush their last value: the queue drained to zero.
        # (Before obs parity, the sequential path never set this gauge
        # at all and the metric was absent.)
        depths = [r["value"] for r in records
                  if r["kind"] == "metric"
                  and r["name"] == "runner.queue_depth"]
        assert depths == [0.0]

    def test_quarantine_emits_span_and_counter(self):
        import os

        from repro.runner.health import SupervisionPolicy

        def run(task_id):
            if task_id == "poison":
                os._exit(66)
            return None

        records = []
        OBS.configure(MemorySink(records))
        runner = SweepRunner(
            run, jobs=2, backoff_s=0.0,
            policy=SupervisionPolicy(poll_interval_s=0.02))
        outcomes = runner.run(["a", "poison"])
        shutdown()
        assert [o.status for o in outcomes] == ["ok", "quarantined"]

        poison_span = next(
            r for r in records if r.get("name") == "runner.task"
            and r["attrs"]["task"] == "poison")
        assert poison_span["attrs"]["status"] == "quarantined"
        assert poison_span["attrs"]["error"] == "WorkerLostError"
        sweep_span = next(r for r in records
                          if r.get("name") == "runner.sweep")
        assert sweep_span["attrs"]["quarantined"] == 1
        metrics = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert metrics["runner.quarantined"]["value"] == 1.0
        lost = [r for r in records if r.get("name") == "runner.worker_lost"]
        assert len(lost) == 2  # two strikes, then quarantine
        assert all(event["attrs"]["kind"] == "crash" for event in lost)


class TestInertness:
    def test_export_bytes_identical_obs_on_vs_off(self, context, tmp_path):
        """The golden guarantee: telemetry never changes results."""

        def export_bytes(out):
            export_all(str(out), context, experiments=("fig8",))
            return {
                path.name: path.read_bytes()
                for path in sorted(out.iterdir())
                if path.name != "manifest.json"
            }

        plain = export_bytes(tmp_path / "off")
        OBS.configure(MemorySink(), level="detail")
        instrumented = export_bytes(tmp_path / "on")
        shutdown()
        assert plain == instrumented

    def test_manifest_records_trace_path(self, context, tmp_path):
        from repro.obs import configure

        trace = tmp_path / "t.jsonl"
        configure(trace_path=str(trace))
        export_all(str(tmp_path / "out"), context, experiments=("table3",))
        shutdown()
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text()
        )
        assert manifest["obs_trace"] == str(trace)
