"""JobManager semantics: submission dispositions, single-flight
structure, journal adoption, and the admission queue's accounting
under the supervision loop."""

import asyncio
import contextlib
import os
import time

import pytest

from repro.serve import (
    AdmissionController,
    AdmissionShed,
    JobJournal,
    JobManager,
    ResultCache,
    Scenario,
    cache_key,
    replay_journal,
)
from repro.serve.jobs import JobState, job_id_of, scenario_from_dict

from .conftest import fast_policy

ECHO = Scenario(experiment="echo", seed=1)


def make_manager(tmp_path, run_scenario=lambda scenario: {"ok": True},
                 **policy_overrides):
    policy = fast_policy(**policy_overrides)
    journal = JobJournal(tmp_path / "journal.jsonl")
    return JobManager(
        run_scenario=run_scenario, journal=journal,
        cache=ResultCache(), admission=AdmissionController(policy),
        policy=policy, git="test")


def crash_slowly(scenario):
    """``boom`` works a while, then kills its worker; the rest succeed."""
    if scenario.experiment == "boom":
        time.sleep(0.5)
        os._exit(86)
    return {"ok": True}


@contextlib.asynccontextmanager
async def supervising(manager):
    """The manager's supervision loop, running for the block."""
    loop_task = asyncio.create_task(manager.run())
    try:
        yield
    finally:
        manager.stop()
        await loop_task


async def wait_for(condition, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


class TestIdentity:
    def test_job_id_is_a_key_prefix(self):
        key = cache_key(ECHO, git="test")
        assert key.startswith(job_id_of(key))
        assert len(job_id_of(key)) == 16

    def test_scenario_journal_roundtrip(self):
        scenario = Scenario(experiment="echo", seed=3, phases=6,
                            warmup=2, workloads=("wl",))
        assert scenario_from_dict(scenario.to_dict()) == scenario


class TestSubmit:
    def test_first_submission_is_accepted_and_journaled(self, tmp_path):
        manager = make_manager(tmp_path)
        disposition, job = manager.submit(ECHO, "alice", 30.0)
        assert disposition == "accepted"
        assert job.state == JobState.QUEUED
        assert manager.singleflight.leader_of(job.key) == job.job_id
        state = replay_journal(manager.journal.path)
        assert state.jobs[job.job_id].state == "submitted"

    def test_identical_submission_coalesces_structurally(self, tmp_path):
        manager = make_manager(tmp_path)
        _, leader = manager.submit(ECHO, "alice", 30.0)
        disposition, follower = manager.submit(ECHO, "bob", 30.0)
        assert disposition == "coalesced"
        assert follower is leader  # same Job object, not a copy
        assert manager.singleflight.coalesced == 1
        # Only the leader's submission charged admission.
        assert manager.admission.accepted == 1

    def test_cached_submission_does_no_work(self, tmp_path):
        manager = make_manager(tmp_path)
        key = cache_key(ECHO, git="test")
        manager.cache.put(key, {"rows": [[1]]})
        disposition, job = manager.submit(ECHO, "alice", 30.0)
        assert disposition == "cached"
        assert job.state == JobState.DONE
        assert job.result == {"rows": [[1]]}
        assert manager.admission.accepted == 0  # never queued

    def test_full_queue_sheds_with_http_mapping(self, tmp_path):
        manager = make_manager(tmp_path, max_queue=1)
        manager.submit(ECHO, "alice", 30.0)
        with pytest.raises(AdmissionShed) as info:
            manager.submit(Scenario(experiment="echo", seed=2),
                           "alice", 30.0)
        assert info.value.status == 429
        assert info.value.retry_after_s is not None

    def test_quarantined_scenario_is_refused_without_work(self, tmp_path):
        manager = make_manager(tmp_path)
        _, job = manager.submit(ECHO, "alice", 30.0)
        manager._finalize(job, JobState.QUARANTINED, "poisoned")
        disposition, again = manager.submit(ECHO, "bob", 30.0)
        assert disposition == "quarantined"
        assert again is job
        assert manager.admission.accepted == 1  # bob was never charged


class TestAdopt:
    def test_journal_state_maps_to_adoption_buckets(self, tmp_path):
        scenario = ECHO.to_dict()
        with JobJournal(tmp_path / "old.jsonl") as journal:
            journal.append("submitted", "done000000000000",
                           key="done" + "0" * 60, scenario=scenario)
            journal.append("completed", "done000000000000",
                           key="done" + "0" * 60, result={"rows": [1]})
            journal.append("submitted", "lost000000000000",
                           key="lost" + "0" * 60, scenario=scenario)
            journal.append("started", "lost000000000000",
                           key="lost" + "0" * 60)
            journal.append("submitted", "bad0000000000000",
                           key="bad0" + "0" * 60, scenario=scenario)
            journal.append("quarantined", "bad0000000000000",
                           key="bad0" + "0" * 60, error="poison",
                           strikes=2)
            state = replay_journal(journal.path)

        manager = make_manager(tmp_path)
        adopted = manager.adopt(state)
        assert adopted == {"completed": 1, "quarantined": 1,
                           "requeued": 1, "terminal": 0}
        # Completed jobs re-warm the cache from their journal records.
        assert manager.cache.contains("done" + "0" * 60)
        # The lost job is queued again and leads its key.
        lost = manager.jobs["lost000000000000"]
        assert lost.state == JobState.QUEUED
        assert manager.singleflight.leader_of(lost.key) == lost.job_id
        # Quarantine survives the restart.
        assert manager.jobs["bad0000000000000"].state \
            == JobState.QUARANTINED


class TestQueueAccounting:
    """The queue bound reads the live count of waiting jobs, so no
    exit path can leak a queue slot or free one twice."""

    def test_deadline_lapsing_in_the_queue_frees_its_slot(self, tmp_path):
        manager = make_manager(tmp_path, max_queue=1)
        _, expired = manager.submit(ECHO, "alice", 0.01)
        time.sleep(0.05)  # the deadline passes before any worker is free

        async def go():
            async with supervising(manager):
                await wait_for(lambda: expired.state == JobState.FAILED)

        asyncio.run(go())
        assert "deadline" in expired.error
        assert manager.stats()["admission"]["queued"] == 0
        disposition, _ = manager.submit(
            Scenario(experiment="echo", seed=2), "alice", 30.0)
        assert disposition == "accepted"

    def test_crash_requeue_keeps_the_waiting_job_counted(self, tmp_path):
        manager = make_manager(tmp_path, run_scenario=crash_slowly,
                               max_workers=1, max_queue=1,
                               max_job_strikes=2)

        async def go():
            async with supervising(manager):
                _, boom = manager.submit(Scenario(experiment="boom"),
                                         "alice", 30.0)
                await wait_for(lambda: boom.state == JobState.RUNNING)
                _, waiting = manager.submit(ECHO, "alice", 30.0)
                # The only worker crashes under boom, which is requeued
                # ahead of the waiting job and started again.
                await wait_for(lambda: boom.strikes == 1
                               and boom.state == JobState.RUNNING)
                assert waiting.state == JobState.QUEUED
                assert manager.stats()["admission"]["queued"] == 1
                with pytest.raises(AdmissionShed):
                    manager.submit(Scenario(experiment="echo", seed=9),
                                   "bob", 30.0)

        asyncio.run(go())

