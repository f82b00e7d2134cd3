"""The sweep runner: isolation, retry, timeout, checkpoint/resume.

Every task runs inside its own try/except; a failure produces a
:class:`RunFailure` record (error type, message, traceback, attempt
count) and the sweep moves on. Errors classified as transient are
retried with exponential backoff up to a bound; a per-task timeout
(SIGALRM-based, POSIX main thread only) converts a hung run into a
retryable :class:`RunTimeoutError`. Completed tasks are recorded in an
atomically rewritten JSON checkpoint, so a killed sweep resumes by
skipping them.

With ``jobs > 1`` tasks fan out over a *supervised* fork-based worker
pool (:mod:`repro.runner.supervisor`): per-worker heartbeats catch
hangs that SIGALRM cannot reach, a crashed worker costs its task one
strike and is replaced (a task that kills two workers is quarantined as
poisoned), a circuit breaker degrades the sweep to sequential execution
when worker losses become systemic, and SIGINT/SIGTERM drain the pool
gracefully into a resumable checkpoint. The retry/backoff loop runs
inside each worker (whose main thread can arm SIGALRM), the task
callable travels by fork inheritance (sweep tasks are closures, so they
cannot be pickled), and the parent serializes every checkpoint write in
submission order, so the checkpoint and event stream match a sequential
run of the same task list.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Type, Union)

from repro.obs import OBS
from repro.runner.blas import blas_threads
from repro.runner.health import HealthReport, SupervisionPolicy

#: Schema of the checkpoint JSON layout. Written as ``"schema"``;
#: version 1 files (written before the key was renamed from
#: ``"version"``) are still accepted because their layout is identical.
CHECKPOINT_SCHEMA_VERSION = 2

#: Schemas this code knows how to load.
_SUPPORTED_CHECKPOINT_SCHEMAS = (1, 2)


class TransientRunError(RuntimeError):
    """An error worth retrying (resource blips, flaky I/O...)."""


class RunTimeoutError(TimeoutError):
    """A task exceeded its per-run wall-clock budget."""


class CheckpointMismatchError(RuntimeError):
    """A resume directory's checkpoint was written by a different sweep."""


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one task that ultimately failed."""

    task_id: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    transient: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "task_id": self.task_id,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "transient": self.transient,
        }

    @classmethod
    def from_exception(cls, task_id: str, exc: BaseException,
                       attempts: int, transient: bool) -> "RunFailure":
        return cls(
            task_id=task_id,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(traceback_module.format_exception(
                type(exc), exc, exc.__traceback__)),
            attempts=attempts,
            transient=transient,
        )


@dataclass
class RunOutcome:
    """What happened to one task of the sweep."""

    task_id: str
    #: ``ok`` (ran now), ``cached`` (resumed from checkpoint), ``failed``,
    #: or ``quarantined`` (killed a worker too many times; never re-run).
    status: str
    attempts: int = 0
    payload: Optional[Dict[str, object]] = None
    failure: Optional[RunFailure] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "cached")


class SweepError(RuntimeError):
    """Raised at sweep end when one or more tasks failed (strict mode)."""

    def __init__(self, failures: Sequence[RunFailure]) -> None:
        self.failures = list(failures)
        lines = ", ".join(
            f"{failure.task_id} ({failure.error_type}: {failure.message})"
            for failure in self.failures
        )
        super().__init__(
            f"{len(self.failures)} task(s) failed after retries: {lines}"
        )


class SweepCheckpoint:
    """Atomic JSON record of a sweep's completed tasks and failures.

    The checkpoint carries a ``params`` fingerprint of the sweep
    (seed, phases, workloads...); resuming with different parameters is
    refused rather than silently mixing incompatible results.
    """

    def __init__(self, path: Union[str, Path],
                 params: Dict[str, object]) -> None:
        self.path = Path(path)
        self.params = params
        self.completed: Dict[str, Dict[str, object]] = {}
        self.failures: List[Dict[str, object]] = []
        self.quarantined: Dict[str, Dict[str, object]] = {}
        #: Where a corrupt/truncated checkpoint was quarantined by
        #: :meth:`load` (``<path>.corrupt``), for the caller to report.
        self.corrupt_quarantined: Optional[Path] = None

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> bool:
        """Adopt an existing checkpoint; returns False when none exists.

        A stale ``.tmp`` file (a write torn by a crash before the
        atomic replace) is removed and otherwise ignored -- the main
        checkpoint file is always a complete earlier state. A corrupt
        or truncated checkpoint (invalid JSON, or not a JSON object) is
        *quarantined* -- renamed to ``<path>.corrupt`` and recorded in
        :attr:`corrupt_quarantined` -- and the sweep starts fresh
        instead of dying on a traceback; an unknown ``schema`` is
        refused with a one-line :class:`CheckpointMismatchError`.
        """
        self._clean_stale_tmp()
        if not self.path.exists():
            return False
        try:
            data = json.loads(self.path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = None
        if not isinstance(data, dict):
            self.corrupt_quarantined = self._quarantine_corrupt()
            return False
        schema = data.get("schema", data.get("version"))
        if schema not in _SUPPORTED_CHECKPOINT_SCHEMAS:
            raise CheckpointMismatchError(
                f"checkpoint {self.path} has schema {schema!r}; this "
                f"version reads schemas "
                f"{list(_SUPPORTED_CHECKPOINT_SCHEMAS)} -- refusing to "
                f"guess at an unknown layout"
            )
        if data.get("params") != self.params:
            raise CheckpointMismatchError(
                f"checkpoint {self.path} was written by a sweep with "
                f"different parameters; refusing to resume "
                f"(theirs: {data.get('params')}, ours: {self.params})"
            )
        self.completed = dict(data.get("completed", {}))
        self.failures = []  # prior failures are retried on resume
        # Quarantined tasks are poisoned, not flaky: they stay skipped.
        self.quarantined = dict(data.get("quarantined", {}))
        return True

    def reset(self) -> None:
        """Start fresh, discarding any on-disk checkpoint."""
        self._clean_stale_tmp()
        self.completed = {}
        self.failures = []
        self.quarantined = {}
        self._write()

    def mark_completed(self, task_id: str,
                       payload: Optional[Dict[str, object]]) -> None:
        self.completed[task_id] = {"payload": payload}
        self._write()

    def record_failure(self, failure: RunFailure) -> None:
        self.failures.append(failure.to_dict())
        self._write()

    def mark_quarantined(self, failure: RunFailure) -> None:
        """Record a poisoned task so resume never re-runs it."""
        self.quarantined[failure.task_id] = {
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": failure.attempts,
        }
        self._write()

    def payload_of(self, task_id: str) -> Optional[Dict[str, object]]:
        entry = self.completed.get(task_id)
        return entry.get("payload") if entry else None

    def quarantine_of(self, task_id: str) -> Optional[Dict[str, object]]:
        return self.quarantined.get(task_id)

    def _clean_stale_tmp(self) -> None:
        try:
            self._temporary_path().unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass  # unreadable leftovers never block a resume

    def _quarantine_corrupt(self) -> Optional[Path]:
        """Move a broken checkpoint aside; never let it block a resume."""
        quarantine = self.path.with_suffix(self.path.suffix + ".corrupt")
        try:
            os.replace(self.path, quarantine)
        except OSError:
            try:  # rename failed (odd mount?); removal also unblocks
                self.path.unlink()
            except OSError:
                pass
            return None
        return quarantine

    def _temporary_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".tmp")

    def _payload(self) -> Dict[str, object]:
        return {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "params": self.params,
            "completed": self.completed,
            "failures": self.failures,
            "quarantined": self.quarantined,
        }

    def _write(self) -> None:
        """Crash-safe rewrite: fsync the temp file, replace, fsync the dir.

        Without the fsyncs a power loss (or SIGKILL plus an unlucky
        page-cache flush) after ``os.replace`` could leave a truncated
        file under the *final* name; fsync-before-replace makes the
        rename the commit point, and the directory fsync persists the
        rename itself.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temporary = self._temporary_path()
        with open(temporary, "w") as handle:
            handle.write(json.dumps(self._payload(), indent=2,
                                    sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, self.path)
        try:
            directory_fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:
            return  # platform cannot open directories; best effort
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`RunTimeoutError` if the block outlives ``seconds``.

    SIGALRM-based, so it only arms on POSIX main threads; elsewhere the
    block runs unbounded (a best-effort guard, not a hard sandbox).
    """
    usable = (
        seconds is not None and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise RunTimeoutError(f"run exceeded {seconds:.1f}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Errors retried by default: explicit transients, timeouts, and the
#: OS-level hiccups (file descriptors, interrupted syscalls) a long sweep
#: occasionally hits. Model errors (ValueError and kin) are NOT here --
#: a deterministic simulation that raised once will raise again.
DEFAULT_TRANSIENT_TYPES: Tuple[Type[BaseException], ...] = (
    TransientRunError,
    TimeoutError,
    OSError,
)

#: Ceiling on one retry backoff, whatever the attempt count.
DEFAULT_MAX_BACKOFF_S = 30.0


def retry_delay(task_id: str, attempt: int, backoff_s: float,
                max_backoff_s: float = DEFAULT_MAX_BACKOFF_S) -> float:
    """Capped exponential backoff with deterministic per-task jitter.

    The nominal ``backoff_s * 2**(attempt - 1)`` is clamped to
    ``max_backoff_s`` and then scaled into ``[0.5, 1.0)`` of itself by
    a sha256 hash of ``(task_id, attempt)`` -- no ``random``, so the
    determinism lint rule stays clean and reruns sleep identically,
    while concurrent workers retrying different tasks desynchronize
    instead of thundering back in lockstep.
    """
    nominal = min(backoff_s * (2.0 ** (attempt - 1)), max_backoff_s)
    if nominal <= 0:
        return 0.0
    digest = hashlib.sha256(f"{task_id}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return nominal * (0.5 + 0.5 * fraction)


class SweepRunner:
    """Runs a list of task ids through one callable, robustly.

    ``jobs`` > 1 fans tasks out over the supervised fork pool
    (:mod:`repro.runner.supervisor`), governed by ``policy``; where the
    fork start method is unavailable the sweep degrades to sequential
    execution with an event message. After a supervised run the pool's
    :class:`~repro.runner.health.HealthReport` is published as
    ``last_health``.
    """

    def __init__(self, run_task: Callable[[str], Optional[Dict[str, object]]],
                 *,
                 max_retries: int = 2,
                 backoff_s: float = 0.5,
                 max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
                 timeout_s: Optional[float] = None,
                 transient_types: Tuple[Type[BaseException], ...]
                 = DEFAULT_TRANSIENT_TYPES,
                 checkpoint: Optional[SweepCheckpoint] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 on_event: Optional[Callable[[str], None]] = None,
                 jobs: int = 1,
                 policy: Optional[SupervisionPolicy] = None) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if max_backoff_s < 0:
            raise ValueError(
                f"max_backoff_s must be >= 0, got {max_backoff_s}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.run_task = run_task
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.timeout_s = timeout_s
        self.transient_types = transient_types
        self.checkpoint = checkpoint
        self.sleep = sleep
        self.on_event = on_event or (lambda message: None)
        self.jobs = jobs
        self.policy = policy or SupervisionPolicy()
        #: Health report of the last supervised (parallel) run.
        self.last_health: Optional[HealthReport] = None

    def run(self, task_ids: Sequence[str]) -> List[RunOutcome]:
        span = OBS.span("runner.sweep", tasks=len(task_ids), jobs=self.jobs)
        with span:
            if self.jobs > 1 and len(task_ids) > 1:
                outcomes = self._run_parallel(task_ids)
            else:
                outcomes = []
                for done, task_id in enumerate(task_ids, start=1):
                    outcomes.append(self._run_one(task_id))
                    OBS.gauge("runner.queue_depth", len(task_ids) - done)
            if OBS.enabled:
                span.set(
                    ok=sum(1 for o in outcomes if o.status == "ok"),
                    cached=sum(1 for o in outcomes if o.status == "cached"),
                    failed=sum(1 for o in outcomes if o.status == "failed"),
                    quarantined=sum(1 for o in outcomes
                                    if o.status == "quarantined"),
                )
            return outcomes

    # -- sequential ----------------------------------------------------------

    def _attempt(self, task_id: str, timeout_s: Optional[float],
                 sleep: Callable[[float], None],
                 emit: Callable[[str], None],
                 heartbeat: Callable[[], None] = lambda: None) -> RunOutcome:
        """One task through the retry/timeout loop; no checkpoint access.

        Shared by the sequential path and the breaker fallback (``emit``
        is :attr:`on_event`) and the pool workers (``emit`` collects
        messages for the parent to replay, ``heartbeat`` ticks the
        worker's supervision slot at every attempt boundary); the
        caller records the outcome in the checkpoint.
        """
        attempts = 0
        # The pid attribute attributes the span to the worker that ran it;
        # in a sequential sweep it is simply the parent's pid. The BLAS
        # thread count shows whether a pool worker's cap applied.
        span = OBS.span("runner.task", task=task_id, pid=os.getpid())
        with span:
            if OBS.enabled:
                span.set(blas_threads=blas_threads())
            while True:
                attempts += 1
                heartbeat()
                try:
                    with _deadline(timeout_s):
                        payload = self.run_task(task_id)
                except KeyboardInterrupt:
                    raise
                except BaseException as exc:  # noqa: BLE001 -- isolation is the point
                    transient = isinstance(exc, self.transient_types)
                    if isinstance(exc, RunTimeoutError):
                        OBS.counter("runner.timeouts")
                    if transient and attempts <= self.max_retries:
                        delay = retry_delay(task_id, attempts,
                                            self.backoff_s,
                                            self.max_backoff_s)
                        OBS.counter("runner.retries")
                        OBS.event("runner.retry", task=task_id,
                                  attempt=attempts,
                                  error=type(exc).__name__, delay_s=delay)
                        emit(
                            f"{task_id}: transient {type(exc).__name__} "
                            f"({exc}); retry {attempts}/{self.max_retries} "
                            f"in {delay:.1f}s"
                        )
                        sleep(delay)
                        continue
                    failure = RunFailure.from_exception(
                        task_id, exc, attempts, transient)
                    span.set(status="failed", attempts=attempts,
                             error=failure.error_type)
                    return RunOutcome(task_id=task_id, status="failed",
                                      attempts=attempts, failure=failure)
                span.set(status="ok", attempts=attempts)
                return RunOutcome(task_id=task_id, status="ok",
                                  attempts=attempts, payload=payload)

    def _run_one(self, task_id: str) -> RunOutcome:
        cached = self._cached_outcome(task_id)
        if cached is not None:
            return cached
        outcome = self._attempt(task_id, self.timeout_s, self.sleep,
                                self.on_event)
        self._record(outcome)
        return outcome

    # -- parallel ------------------------------------------------------------

    def _run_parallel(self, task_ids: Sequence[str]) -> List[RunOutcome]:
        by_id: Dict[str, RunOutcome] = {}
        pending: List[str] = []
        for task_id in task_ids:
            cached = self._cached_outcome(task_id)
            if cached is not None:
                by_id[task_id] = cached
            else:
                pending.append(task_id)

        if pending:
            try:
                fork = multiprocessing.get_context("fork")
            except ValueError:
                fork = None
            if fork is None:
                self.on_event(
                    "fork start method unavailable; running sequentially"
                )
                for task_id in pending:
                    by_id[task_id] = self._run_one(task_id)
            else:
                from repro.runner.supervisor import run_supervised

                by_id.update(run_supervised(self, pending, fork))
        return [by_id[task_id] for task_id in task_ids]

    # -- shared bookkeeping --------------------------------------------------

    def _cached_outcome(self, task_id: str) -> Optional[RunOutcome]:
        if self.checkpoint is None:
            return None
        if task_id in self.checkpoint.completed:
            self.on_event(f"{task_id}: already completed, skipping")
            return RunOutcome(task_id=task_id, status="cached",
                              payload=self.checkpoint.payload_of(task_id))
        quarantine = self.checkpoint.quarantine_of(task_id)
        if quarantine is not None:
            self.on_event(
                f"{task_id}: quarantined in a previous run, skipping")
            attempts = int(quarantine.get("attempts", 0))  # type: ignore[call-overload]
            failure = RunFailure(
                task_id=task_id,
                error_type=str(quarantine.get("error_type",
                                              "WorkerLostError")),
                message=str(quarantine.get("message", "quarantined")),
                traceback="",
                attempts=attempts,
                transient=False,
            )
            return RunOutcome(task_id=task_id, status="quarantined",
                              attempts=attempts, failure=failure)
        return None

    def _record(self, outcome: RunOutcome) -> None:
        """Checkpoint one finished task (parent process only)."""
        if outcome.status == "ok":
            if self.checkpoint is not None:
                self.checkpoint.mark_completed(outcome.task_id,
                                               outcome.payload)
        elif outcome.status == "quarantined":
            if outcome.failure is not None:
                if self.checkpoint is not None:
                    self.checkpoint.mark_quarantined(outcome.failure)
                self.on_event(
                    f"{outcome.task_id}: QUARANTINED after killing "
                    f"{outcome.attempts} worker(s): "
                    f"{outcome.failure.message}"
                )
        elif outcome.failure is not None:
            if self.checkpoint is not None:
                self.checkpoint.record_failure(outcome.failure)
            self.on_event(
                f"{outcome.task_id}: FAILED after {outcome.attempts} "
                f"attempt(s): {outcome.failure.error_type}: "
                f"{outcome.failure.message}"
            )
