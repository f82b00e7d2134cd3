"""Job lifecycle: bounded queue -> supervised worker pool -> result.

Each admitted submission becomes a :class:`Job`, content-addressed by
its scenario's cache key (the job id is a prefix of the key, so
identical submissions share one job -- the single-flight property is
structural, not best-effort). :class:`JobManager` is a driver of the
sweep's supervised pool (:class:`~repro.runner.supervisor.WorkerPool`):
persistent forked workers take one job at a time, and the pool owns
heartbeats, hang kills, crash detection, strikes and the breaker
count. What stays here is what is particular to a service:

* each assignment carries the job's scenario and its *remaining
  client deadline*, which the worker's retry loop enforces per attempt
  -- deadline propagation end-to-end;
* obs span/event records stream home as they happen and fan out to SSE
  subscribers through the job's :class:`~repro.serve.sse.ProgressHub`
  (workers arm a streaming pipeline even when the server is untraced);
* a job that kills ``max_job_strikes`` workers is quarantined
  (journaled -- never re-run, even across server restarts);
* when the pool's breaker opens (``breaker_threshold`` consecutive
  worker losses) the service stops admitting and ``/readyz`` goes 503;
* a job past its deadline, or one nobody is watching (leader
  disconnected, no followers, past the linger window), is cancelled:
  its worker is killed and replaced without a strike -- client
  disconnect cancels server-side work, but any attached follower keeps
  the job alive (crashed-leader promotion).

Journal ordering is strict write-ahead: the transition is fsynced
before any client-observable effect, so a SIGKILL between any two
lines resumes without lost, duplicated, or torn results.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.obs import OBS
from repro.runner import RunOutcome, SupervisionPolicy, SweepRunner
from repro.runner.supervisor import Assignment, PoolEvent, WorkerPool
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.journal import JobJournal, JournalState
from repro.serve.policy import ServePolicy
from repro.serve.scenario import Scenario, cache_key
from repro.serve.sse import ProgressHub

#: Length of the cache-key prefix used as the job id. Identical
#: submissions map to the same id by construction.
JOB_ID_BYTES = 16

ScenarioRunner = Callable[[Scenario], Dict[str, object]]


class JobState:
    """String states of one job (journal ops use the same names)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"

    #: States from which a job never moves (except a fresh resubmit).
    TERMINAL = frozenset({DONE, FAILED, CANCELLED, QUARANTINED})


def job_id_of(key: str) -> str:
    return key[:JOB_ID_BYTES]


def scenario_from_dict(data: Dict[str, object]) -> Scenario:
    """Rebuild a Scenario from its journaled ``to_dict`` form."""
    workloads = data.get("workloads")
    return Scenario(
        experiment=str(data.get("experiment", "")),
        seed=int(data.get("seed", 1)),  # type: ignore[call-overload]
        phases=int(data.get("phases", 12)),  # type: ignore[call-overload]
        warmup=int(data.get("warmup", 4)),  # type: ignore[call-overload]
        workloads=tuple(str(name) for name in workloads)
        if isinstance(workloads, (list, tuple)) else None,
    )


@dataclass
class Job:
    """One content-addressed unit of work and its observable state."""

    job_id: str
    key: str
    scenario: Scenario
    client: str
    deadline_monotonic: float
    state: str = JobState.QUEUED
    strikes: int = 0
    watchers: int = 0
    #: When unwatched interest lapses (monotonic); None while watched.
    interest_deadline: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    hub: ProgressHub = field(default_factory=ProgressHub)
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def public_state(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job": self.job_id,
            "key": self.key,
            "state": self.state,
            "scenario": self.scenario.to_dict(),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobManager:
    """Owns the job table and the queue; drives the supervised pool."""

    def __init__(self, *, run_scenario: ScenarioRunner,
                 journal: JobJournal, cache: ResultCache,
                 admission: AdmissionController,
                 policy: Optional[ServePolicy] = None,
                 git: Optional[str] = None,
                 mp_context: Optional[Any] = None) -> None:
        self.policy = policy or ServePolicy()
        complaint = self.policy.validate()
        if complaint is not None:
            raise ValueError(complaint)
        self.run_scenario = run_scenario
        self.journal = journal
        self.cache = cache
        self.admission = admission
        self.singleflight = SingleFlight()
        self.git = git
        self.jobs: Dict[str, Job] = {}
        self._queue: Deque[str] = deque()
        # The queue bound reads the live count of waiting jobs.
        self.admission.queue_depth = self.queued
        self.pool = WorkerPool(
            self.policy.max_workers,
            mp_context or multiprocessing.get_context("fork"),
            SupervisionPolicy(
                poll_interval_s=self.policy.poll_interval_s,
                max_task_strikes=self.policy.max_job_strikes,
                breaker_threshold=self.policy.breaker_threshold,
                drain_grace_s=self.policy.drain_grace_s),
            self._work, self._on_pool_event,
            heartbeat_s=self.policy.heartbeat_timeout_s, arm_obs=True)
        self.draining = False
        self._stopped = False
        #: Lifetime counters (also mirrored to obs).
        self.started = 0
        #: Jobs that reached each terminal state.
        self.finished = dict.fromkeys(
            (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
             JobState.QUARANTINED), 0)

    # -- submission ----------------------------------------------------------

    def submit(self, scenario: Scenario, client: str,
               deadline_s: float) -> Tuple[str, Job]:
        """Admit one submission; returns (disposition, job).

        Dispositions: ``cached`` (result served without work),
        ``coalesced`` (attached to a running identical job),
        ``accepted`` (new job queued), ``quarantined`` (the scenario
        previously poisoned workers; refused without work). Sheds by
        raising :class:`AdmissionShed`.
        """
        key = cache_key(scenario, git=self.git)
        job_id = job_id_of(key)
        existing = self.jobs.get(job_id)

        if existing is not None and existing.state == JobState.QUARANTINED:
            return "quarantined", existing

        cached = self.cache.get(key)
        if cached is not None:
            if existing is None or existing.state != JobState.DONE:
                existing = self._adopt_completed(job_id, key, scenario,
                                                 cached, client)
            return "cached", existing

        if existing is not None and existing.state in (JobState.QUEUED,
                                                       JobState.RUNNING):
            self.singleflight.coalesce(key)
            self._touch_interest(existing)
            return "coalesced", existing

        decision = self.admission.try_admit(client)
        if not decision.admitted:
            raise AdmissionShed(decision.status, decision.reason,
                                decision.retry_after_s)

        now = time.monotonic()
        job = Job(
            job_id=job_id, key=key, scenario=scenario, client=client,
            deadline_monotonic=now + deadline_s,
            interest_deadline=now + self.policy.linger_s,
            hub=ProgressHub(backlog=self.policy.sse_backlog),
        )
        if existing is not None:
            job.strikes = existing.strikes  # crash history is sticky
        self.journal.append("submitted", job_id, key=key,
                            scenario=scenario.to_dict(), client=client)
        self.jobs[job_id] = job
        self.singleflight.acquire(key, job_id)
        self._queue.append(job_id)
        OBS.counter("serve.jobs.submitted")
        return "accepted", job

    def _adopt_completed(self, job_id: str, key: str, scenario: Scenario,
                         result: Dict[str, object], client: str) -> Job:
        """Materialize a Job record for a cache-served submission."""
        job = Job(job_id=job_id, key=key, scenario=scenario,
                  client=client, deadline_monotonic=time.monotonic(),
                  state=JobState.DONE, result=result)
        job.hub.close()
        job.done.set()
        self.jobs[job_id] = job
        return job

    # -- interest (watchers) -------------------------------------------------

    def watch(self, job: Job) -> None:
        """A client attached to the job's stream (leader or follower)."""
        job.watchers += 1
        job.interest_deadline = None

    def unwatch(self, job: Job) -> None:
        """A client detached; the last one starts the linger clock."""
        job.watchers = max(0, job.watchers - 1)
        if job.watchers == 0 and job.state not in JobState.TERMINAL:
            job.interest_deadline = time.monotonic() + self.policy.linger_s

    def _touch_interest(self, job: Job) -> None:
        """A poll/submission proved somebody still cares."""
        if job.watchers == 0 and job.state not in JobState.TERMINAL:
            job.interest_deadline = time.monotonic() + self.policy.linger_s

    def poll(self, job: Job) -> None:
        """GET on a job refreshes its interest lease."""
        self._touch_interest(job)

    # -- resume --------------------------------------------------------------

    def adopt(self, state: JournalState) -> Dict[str, int]:
        """Re-adopt journaled jobs after a restart (before serving).

        Completed jobs come back served-from-journal (and re-warm the
        cache); quarantined jobs stay quarantined; submitted/started
        jobs are re-queued -- their work died with the old process.
        """
        adopted = {"completed": 0, "quarantined": 0, "requeued": 0,
                   "terminal": 0}
        now = time.monotonic()
        for record in sorted(state.jobs.values(),
                             key=lambda item: item.job_id):
            scenario = scenario_from_dict(record.scenario or {})
            job = Job(
                job_id=record.job_id, key=record.key, scenario=scenario,
                client="resume", deadline_monotonic=now
                + self.policy.default_deadline_s,
                strikes=record.strikes,
            )
            if record.state == "completed" and record.result is not None:
                job.state = JobState.DONE
                job.result = record.result
                if not self.cache.contains(record.key):
                    self.cache.put(record.key, record.result)
                adopted["completed"] += 1
            elif record.state in (JobState.QUARANTINED, JobState.FAILED,
                                  JobState.CANCELLED):
                job.state = record.state
                job.error = record.error or record.state
                adopted["quarantined" if record.state == JobState.QUARANTINED
                        else "terminal"] += 1
            else:  # submitted / started: the work was lost; run again
                job.interest_deadline = (now
                                         + self.policy.default_deadline_s)
                job.hub = ProgressHub(backlog=self.policy.sse_backlog)
                self.singleflight.acquire(record.key, record.job_id)
                self._queue.append(record.job_id)
                adopted["requeued"] += 1
                OBS.counter("serve.jobs.readopted")
            if job.state in JobState.TERMINAL:
                job.hub.close()
                job.done.set()
            self.jobs[record.job_id] = job
        return adopted

    # -- the supervision loop ------------------------------------------------

    async def run(self) -> None:
        """Fork the workers; assign and supervise until :meth:`stop`."""
        self.pool.start()
        try:
            while not self._stopped:
                self._assign_idle_workers()
                self.pool.poll(0)
                self._check_interest_and_deadlines()
                await asyncio.sleep(self.policy.poll_interval_s)
        finally:
            self.pool.stop()

    def stop(self) -> None:
        self._stopped = True

    async def drain(self, grace_s: float) -> None:
        """Finish or checkpoint in-flight work, then stop supervising.

        Queued jobs stay journaled as ``submitted`` and workers that
        outlive the grace are killed with their jobs journaled as
        ``started`` -- both re-adopted by ``serve --resume``. Hubs are
        closed so attached SSE clients see a final ``serve.drain``
        event instead of a dead socket.
        """
        self.draining = True
        deadline = time.monotonic() + grace_s
        while self.pool.running() and time.monotonic() < deadline:
            self.pool.poll(0)
            await asyncio.sleep(self.policy.poll_interval_s)
        self.pool.stop()  # journal stays at "started": resumable
        for job in self.jobs.values():
            if not job.hub.closed:
                job.hub.close({"kind": "event", "name": "serve.drain",
                               "attrs": {"job": job.job_id,
                                         "state": job.state}})
        self.stop()
        OBS.counter("serve.drains")

    # -- the pool driver -----------------------------------------------------

    def _work(self, job_id: str, scenario: Scenario,
              timeout_s: Optional[float]) -> RunOutcome:
        """Worker side: one job through the retry loop, under its deadline."""
        runner = SweepRunner(
            lambda _job_id: self.run_scenario(scenario),
            timeout_s=timeout_s, max_retries=self.policy.job_max_retries,
            backoff_s=self.policy.job_backoff_s)
        return runner.run([job_id])[0]

    def _next_queued(self) -> Optional[Job]:
        while self._queue:
            job = self.jobs.get(self._queue.popleft())
            if job is not None and job.state == JobState.QUEUED:
                return job
        return None

    def _assign_idle_workers(self) -> None:
        if self.draining or self.breaker_open:
            return
        while self.pool.idle():
            job = self._next_queued()
            if job is None:
                return
            self._start(job)

    def _start(self, job: Job) -> None:
        remaining = job.deadline_monotonic - time.monotonic()
        if remaining <= 0:
            self._finalize(job, JobState.FAILED,
                           "deadline exceeded before start")
            return
        self.journal.append("started", job.job_id, key=job.key,
                            strikes=job.strikes)
        job.state = JobState.RUNNING
        self.started += 1
        OBS.counter("serve.jobs.started")
        self.pool.assign(Assignment(job.job_id, job.scenario, remaining,
                                    job.strikes))

    def _on_pool_event(self, event: PoolEvent) -> None:
        if event.kind == "breaker":
            self.admission.draining = True  # sheds new submissions
            return
        job = self.jobs[event.task_id]
        if event.kind == "record":
            record: Dict[str, object] = event.value  # type: ignore[assignment]
            record_kind = record.get("kind")
            if record_kind in ("span", "event"):
                job.hub.publish(record)
            if OBS.enabled and record_kind in ("span", "event", "metric"):
                OBS.absorb(record)
        elif event.kind == "result":
            outcome: RunOutcome = event.value  # type: ignore[assignment]
            if outcome.status == "ok" and isinstance(outcome.payload, dict):
                self._finalize_ok(job, outcome.payload)
            else:
                failure = outcome.failure
                self._finalize(job, JobState.FAILED,
                               f"{failure.error_type}: {failure.message}"
                               if failure is not None else "job failed")
        elif event.kind == "quarantine":
            job.strikes = event.strikes
            self._finalize(
                job, JobState.QUARANTINED,
                f"job killed {event.strikes} worker(s) "
                f"(last loss: {event.loss}); quarantined as poisoned")
        elif event.kind == "lost":
            job.strikes = event.strikes
            job.state = JobState.QUEUED
            self._queue.appendleft(job.job_id)
            OBS.counter("serve.jobs.requeued")

    # -- outcomes ------------------------------------------------------------

    def _finalize_ok(self, job: Job, result: Dict[str, object]) -> None:
        # Durability order: cache first, then the journal's completed
        # record (which carries the result too) -- a crash between the
        # two re-runs the job, it never serves a torn result.
        self.cache.put(job.key, result)
        self.journal.append(JobState.DONE, job.job_id, key=job.key,
                            result=result)
        job.result = result
        self._settle(job, JobState.DONE, {"status": "ok"})

    def _finalize(self, job: Job, state: str, error: str) -> None:
        """End a job without a result: failed, cancelled or quarantined."""
        extra = ({"strikes": job.strikes}
                 if state == JobState.QUARANTINED else {})
        self.journal.append(state, job.job_id, key=job.key, error=error,
                            **extra)
        job.error = error
        self._settle(job, state, {"status": state, "error": error}
                     if state == JobState.FAILED else {"status": state})

    def _settle(self, job: Job, state: str,
                attrs: Dict[str, object]) -> None:
        job.state = state
        self.finished[state] += 1
        OBS.counter(f"serve.jobs.{state}")
        self.singleflight.release(job.key, job.job_id)
        self.admission.release_client(job.client)
        job.hub.close({"kind": "event", "name": "serve.job.done",
                       "attrs": {"job": job.job_id, **attrs}})
        job.done.set()

    def _check_interest_and_deadlines(self) -> None:
        now = time.monotonic()
        for job_id in self.pool.running():
            job = self.jobs[job_id]
            if now > job.deadline_monotonic + self.policy.deadline_slack_s:
                self.pool.cancel(job_id)
                self._finalize(job, JobState.FAILED, "deadline exceeded")
                OBS.counter("serve.deadline_kills")
            elif job.watchers == 0 and job.interest_deadline is not None \
                    and now > job.interest_deadline:
                self.pool.cancel(job_id)
                self._finalize(job, JobState.CANCELLED,
                               "no client remained attached; work cancelled")
        for job_id in list(self._queue):
            job = self.jobs.get(job_id)
            if job is None or job.state != JobState.QUEUED:
                continue
            expired_interest = (job.watchers == 0
                                and job.interest_deadline is not None
                                and now > job.interest_deadline)
            if now > job.deadline_monotonic:
                self._finalize(job, JobState.FAILED,
                               "deadline exceeded in queue")
            elif expired_interest:
                self._finalize(job, JobState.CANCELLED,
                               "no client remained attached; "
                               "submission cancelled")

    # -- introspection -------------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        return self.pool.health.breaker_tripped

    def queued(self) -> int:
        """Jobs waiting for a worker (the admission queue's depth)."""
        return sum(1 for job in self.jobs.values()
                   if job.state == JobState.QUEUED)

    def stats(self) -> Dict[str, object]:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        health = self.pool.health
        return {
            "jobs": states,
            "queued": self.queued(),
            "running": len(self.pool.running()),
            "started": self.started,
            **self.finished,
            "crashes": health.crashes_detected,
            "hangs": health.hangs_detected,
            "coalesced": self.singleflight.coalesced,
            "breaker_open": self.breaker_open,
            "consecutive_losses": self.pool.consecutive_losses,
            "draining": self.draining,
            "admission": self.admission.stats(),
        }


class AdmissionShed(Exception):
    """A submission was shed; carries the HTTP mapping."""

    def __init__(self, status: int, reason: str,
                 retry_after_s: Optional[float]) -> None:
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(reason)
