"""End-to-end service tests over a real unix socket.

Each test boots a live :class:`~repro.serve.ServeApp` (forked job
workers and all) inside ``asyncio.run`` and talks to it with raw
HTTP/SSE bytes -- the same path ``starnuma serve`` clients exercise.
"""

import asyncio

from repro.obs import OBS, MemorySink, shutdown
from repro.serve import JobJournal, Scenario, cache_key, replay_journal

from .conftest import Harness, fast_policy

ECHO = {"experiment": "echo", "seed": 1}


class TestStatsObsSnapshot:
    def test_stats_carries_the_metric_registry_snapshot(self, tmp_path):
        """GET /v1/stats exposes counters/gauges/histogram summaries."""
        shutdown()
        OBS.configure(MemorySink(), level="basic")
        try:
            OBS.counter("serve.test.counter", 3)
            OBS.gauge("serve.test.gauge", 1.5)
            OBS.observe("serve.test.hist", 2.0)

            async def go():
                async with Harness(tmp_path) as harness:
                    status, _, stats = await harness.request(
                        "GET", "/v1/stats")
                    assert status == 200
                    metrics = {record["name"]: record
                               for record in stats["obs"]["metrics"]}
                    counter = metrics["serve.test.counter"]
                    assert counter["kind"] == "metric"
                    assert counter["type"] == "counter"
                    assert counter["value"] == 3
                    assert metrics["serve.test.gauge"]["value"] == 1.5
                    histogram = metrics["serve.test.hist"]
                    assert histogram["type"] == "histogram"
                    assert histogram["count"] == 1
                    # Snapshot, not flush: polling resets nothing.
                    status, _, again = await harness.request(
                        "GET", "/v1/stats")
                    assert again["obs"]["metrics"] == \
                        stats["obs"]["metrics"]
            asyncio.run(go())
        finally:
            shutdown()

    def test_disarmed_pipeline_reports_empty_registry(self, tmp_path):
        shutdown()

        async def go():
            async with Harness(tmp_path) as harness:
                status, _, stats = await harness.request(
                    "GET", "/v1/stats")
                assert status == 200
                assert stats["obs"] == {"metrics": []}
        asyncio.run(go())


class TestSubmitAndResult:
    def test_submit_runs_and_serves_the_result(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                status, _, body = await harness.submit(ECHO)
                assert status == 201
                assert body["disposition"] == "accepted"
                final = await harness.wait_terminal(body["job"])
                assert final["state"] == "completed"
                assert final["result"]["rows"] == [[1, 12]]
        asyncio.run(go())

    def test_repeat_submission_is_served_from_cache(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                _, _, first = await harness.submit(ECHO)
                await harness.wait_terminal(first["job"])
                _, _, stats = await harness.request("GET", "/v1/stats")
                started_once = stats["started"]
                status, _, repeat = await harness.submit(ECHO)
                assert status == 200
                assert repeat["disposition"] == "cached"
                assert repeat["result"]["rows"] == [[1, 12]]
                _, _, stats = await harness.request("GET", "/v1/stats")
                # The cached repeat spawned no new work.
                assert stats["started"] == started_once
                assert stats["cache"]["hits"] >= 1
        asyncio.run(go())

    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                sleepy = {"experiment": "sleepy", "seed": 5}
                _, _, leader = await harness.submit(sleepy, client="a")
                status, _, follower = await harness.submit(sleepy,
                                                           client="b")
                assert status == 200
                assert follower["disposition"] == "coalesced"
                assert follower["job"] == leader["job"]
                final = await harness.wait_terminal(leader["job"])
                assert final["state"] == "completed"
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert stats["coalesced"] == 1
                assert stats["started"] == 1
        asyncio.run(go())

    def test_sse_streams_progress_then_a_result_frame(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                _, _, body = await harness.submit(
                    {"experiment": "sleepy", "seed": 3})
                frames = await harness.sse(body["job"])
                assert frames, "no SSE frames arrived"
                events = [event for event, _ in frames]
                assert events[-1] == "result"
                assert frames[-1][1]["state"] == "completed"
                # Worker obs records (runner spans/events) streamed out.
                assert len(frames) >= 2
        asyncio.run(go())


class TestFailureModes:
    def test_deadline_propagates_into_the_worker(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                status, _, body = await harness.submit(
                    {"experiment": "sleepy", "seed": 40,
                     "deadline_s": 0.5})
                assert status == 201
                final = await harness.wait_terminal(body["job"])
                assert final["state"] == "failed"
                assert "Timeout" in final["error"]
        asyncio.run(go())

    def test_poison_job_is_quarantined_then_refused(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                _, _, body = await harness.submit({"experiment": "boom"})
                final = await harness.wait_terminal(body["job"])
                assert final["state"] == "quarantined"
                status, _, _ = await harness.submit({"experiment": "boom"})
                assert status == 409
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert stats["crashes"] == 2  # max_job_strikes workers
        asyncio.run(go())

    def test_job_survives_one_worker_crash_on_the_shared_pool(self,
                                                              tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                flaky = {"experiment": "flaky", "seed": 1}
                _, _, body = await harness.submit(flaky)
                final = await harness.wait_terminal(body["job"])
                assert final["state"] == "completed"
                assert final["result"] == {"experiment": "flaky",
                                           "seed": 1, "rows": [[1, 12]]}
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert stats["crashes"] == 1
                assert stats["started"] == 2  # exactly one strike, rerun
                assert stats["quarantined"] == 0
        asyncio.run(go())

    def test_overload_sheds_429_with_retry_after(self, tmp_path):
        async def go():
            policy = fast_policy(max_workers=1, max_queue=1)
            async with Harness(tmp_path, policy=policy) as harness:
                await harness.submit({"experiment": "sleepy", "seed": 20})
                shed = 0
                for seed in range(2, 8):
                    status, headers, _ = await harness.submit(
                        {"experiment": "echo", "seed": seed})
                    if status == 429:
                        shed += 1
                        assert "retry-after" in headers
                assert shed >= 1
        asyncio.run(go())

    def test_bad_submissions_are_400(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                for body in ({"experiment": "nope"},
                             {"experiment": "echo", "phases": 0},
                             {"experiment": "echo", "deadline_s": -1},
                             {"experiment": "echo", "deadline_s": 1e9}):
                    status, _, payload = await harness.submit(body)
                    assert status == 400
                    assert "\n" not in payload["detail"]
        asyncio.run(go())

    def test_routing_errors(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                status, _, _ = await harness.request(
                    "GET", "/v1/jobs/ffffffffffffffff")
                assert status == 404
                status, _, _ = await harness.request("GET", "/nope")
                assert status == 404
                status, _, _ = await harness.request(
                    "DELETE", "/v1/jobs")
                assert status == 405
        asyncio.run(go())


class TestHealth:
    def test_healthz_and_readyz_while_serving(self, tmp_path):
        async def go():
            async with Harness(tmp_path) as harness:
                status, _, body = await harness.request("GET", "/healthz")
                assert status == 200
                assert body["draining"] is False
                status, _, body = await harness.request("GET", "/readyz")
                assert status == 200
        asyncio.run(go())


class TestDrainUnderLoad:
    def test_sigterm_with_full_queue_and_attached_stream(self, tmp_path):
        """Satellite: drain under load.

        With a worker mid-job, a queue of waiting jobs, and an SSE
        client attached: shutdown must (a) shed new submissions with
        503, (b) let the in-flight job finish inside the grace,
        (c) close the stream with a final frame, and (d) leave a
        journal that replays -- queued jobs resumable, nothing torn.
        """
        async def go():
            policy = fast_policy(max_workers=1, max_queue=6,
                                 drain_grace_s=10.0)
            async with Harness(tmp_path, policy=policy) as harness:
                _, _, running = await harness.submit(
                    {"experiment": "sleepy", "seed": 8})
                queued = []
                for seed in range(2, 5):
                    status, _, body = await harness.submit(
                        {"experiment": "echo", "seed": seed})
                    assert status == 201
                    queued.append(body["job"])
                stream = asyncio.create_task(
                    harness.sse(running["job"], timeout_s=20.0))
                await asyncio.sleep(0.1)  # let the stream attach

                # The SIGTERM handler calls exactly this.
                harness.app.request_shutdown()

                status, headers, _ = await harness.submit(
                    {"experiment": "echo", "seed": 99})
                assert status == 503
                assert "retry-after" in headers

                frames = await stream
                assert frames[-1][0] == "result"
                await harness.wait_stopped()

            state = replay_journal(tmp_path / "journal.jsonl")
            assert not state.torn_tail
            assert state.jobs[running["job"]].state == "completed"
            lost = {record.job_id for record in state.to_re_adopt()}
            assert lost == set(queued)
        asyncio.run(go())


class TestResume:
    def test_resume_re_adopts_exactly_the_durable_state(self, tmp_path):
        done = Scenario(experiment="echo", seed=50)
        done_key = cache_key(done, git="test")
        poison = Scenario(experiment="boom", seed=51)
        poison_key = cache_key(poison, git="test")
        lost = Scenario(experiment="echo", seed=52)
        lost_key = cache_key(lost, git="test")
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            journal.append("submitted", done_key[:16], key=done_key,
                           scenario=done.to_dict())
            journal.append("completed", done_key[:16], key=done_key,
                           result={"rows": [[50, 12]]})
            journal.append("submitted", poison_key[:16], key=poison_key,
                           scenario=poison.to_dict())
            journal.append("quarantined", poison_key[:16],
                           key=poison_key, error="poisoned", strikes=2)
            journal.append("submitted", lost_key[:16], key=lost_key,
                           scenario=lost.to_dict())
            journal.append("started", lost_key[:16], key=lost_key)

        async def go():
            async with Harness(tmp_path, resume=True) as harness:
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert stats["adopted"] == {"completed": 1,
                                            "quarantined": 1,
                                            "requeued": 1, "terminal": 0}
                # Completed: served without re-running.
                status, _, body = await harness.request(
                    "GET", f"/v1/jobs/{done_key[:16]}")
                assert status == 200
                assert body["result"] == {"rows": [[50, 12]]}
                # Quarantined: still refused.
                status, _, _ = await harness.submit(
                    {"experiment": "boom", "seed": 51})
                assert status == 409
                # Lost: re-ran to completion.
                final = await harness.wait_terminal(lost_key[:16])
                assert final["state"] == "completed"
                assert final["result"]["rows"] == [[52, 12]]
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert stats["started"] == 1  # only the lost job ran
        asyncio.run(go())

    def test_fresh_start_archives_an_old_journal(self, tmp_path):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            journal.append("submitted", "a" * 16, key="a" * 64)

        async def go():
            async with Harness(tmp_path, resume=False) as harness:
                _, _, stats = await harness.request("GET", "/v1/stats")
                assert "adopted" not in stats
                assert stats["jobs"] == {}
        asyncio.run(go())
        assert (tmp_path / "journal.jsonl.prev").exists()
