"""``repro.serve``: fault-tolerant simulation-as-a-service.

``starnuma serve`` promotes the supervised sweep substrate
(:mod:`repro.runner`) into a long-lived asyncio HTTP service: clients
POST scenario submissions and get back a job id, streamed progress
(SSE backed by :mod:`repro.obs` span records), and the result JSON.
Robustness is threaded through every layer:

* **admission control & backpressure** (:mod:`repro.serve.admission`):
  a bounded submission queue with load shedding (429 + ``Retry-After``)
  and per-client in-flight caps, so overload degrades predictably;
* **deadlines end-to-end** (:mod:`repro.serve.jobs`): every request
  carries a deadline that propagates into the job worker's
  :class:`~repro.runner.SweepRunner` timeout, and server-side work is
  cancelled when no client remains interested;
* **content-addressed result cache with single-flight dedup**
  (:mod:`repro.serve.cache`): the scenario fingerprint (mirroring the
  export manifest v2) hashes into a cache key; repeats are served from
  cache, and concurrent identical submissions coalesce onto one
  running job;
* **crash-safe job journal** (:mod:`repro.serve.journal`): fsynced
  write-ahead records so ``serve --resume`` after SIGKILL re-adopts
  running jobs, never re-runs completed ones, and never re-runs
  quarantined poison jobs;
* **health & drain** (:mod:`repro.serve.app`): ``/healthz`` and
  ``/readyz`` backed by the heartbeats and circuit-breaker state of
  the runner's supervised pool, which runs the jobs, plus graceful
  SIGTERM drain.

The layering contract allows ``repro.serve`` to import ``config``,
``obs``, and ``runner`` only; the CLI injects the experiment catalog
and scenario runner, so the service machinery never touches the
simulator directly. See ``docs/serve.md``.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.app import ServeApp
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.chaos import ServeChaosConfig, ServeChaosReport, \
    run_serve_chaos
from repro.serve.journal import JobJournal, JournalError, replay_journal
from repro.serve.jobs import AdmissionShed, Job, JobManager, JobState
from repro.serve.policy import ServePolicy
from repro.serve.protocol import HttpError, ReadLimits
from repro.serve.scenario import (
    Catalog,
    Scenario,
    ScenarioError,
    cache_key,
    fingerprint,
    parse_scenario,
    validate_run_params,
)
from repro.serve.sse import ProgressHub, format_sse

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionShed",
    "Catalog",
    "HttpError",
    "Job",
    "JobJournal",
    "JobManager",
    "JobState",
    "JournalError",
    "ProgressHub",
    "ReadLimits",
    "ResultCache",
    "Scenario",
    "ScenarioError",
    "ServeApp",
    "ServeChaosConfig",
    "ServeChaosReport",
    "ServePolicy",
    "SingleFlight",
    "cache_key",
    "fingerprint",
    "format_sse",
    "parse_scenario",
    "replay_journal",
    "run_serve_chaos",
    "validate_run_params",
]
