"""Supervised execution: the fault-contained fork pool of sweeps and serve.

:class:`WorkerPool` is the one place that supervises forked workers:

* **One assignment per worker.** Persistent workers each take one
  :class:`Assignment` (task id, call argument, per-attempt timeout,
  prior strikes) at a time over their own pipe, so the parent always
  knows which task a worker holds. Replies and obs records come home
  over a second per-worker pipe -- never a shared queue, whose
  cross-process write lock a dying worker could take to its grave and
  deadlock every survivor.
* **Streaming obs and heartbeats.** A task's obs records are sent home
  as they happen, each one ticking the worker's :class:`HeartbeatBoard`
  slot; attempt boundaries and backoff sleeps tick it too, and task
  code may volunteer ticks via :func:`tick_heartbeat`. A busy worker
  whose heartbeat outlives the deadline is SIGKILLed -- this catches
  hangs that are immune to the worker-side SIGALRM deadline.
* **Strikes, quarantine, breaker.** A lost worker (crash or hang kill)
  costs its task one strike and is replaced; ``max_task_strikes``
  strikes quarantine the task; ``breaker_threshold`` consecutive losses
  with no delivered result in between open the breaker, after which
  the pool stops replacing workers. :meth:`WorkerPool.cancel` kills and
  replaces a task's worker with neither a strike nor a breaker count.
* **No orphans.** An idle worker whose parent died exits within one
  poll interval.
* **A share of the CPUs each.** Every worker, replacements included,
  caps its BLAS threads at ``usable CPUs // n_workers`` (at least 1,
  never above what it inherited), so the pool does not run more busy
  BLAS threads than the host has CPUs (:mod:`repro.runner.blas`).

The pool reports what happens as :class:`PoolEvent` values to its
driver and never asks which driver that is. There are two: the sweep
driver below (``SweepRunner(jobs=N)``), which flushes finished tasks
-- checkpoint, event replay, obs absorption -- strictly in submission
order so results stay byte-identical to a sequential sweep, drains
resumably on SIGINT/SIGTERM (:class:`SweepDrained`; a second signal
aborts) and finishes sequentially in the parent when the breaker
opens; and the service's :class:`repro.serve.jobs.JobManager`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import OBS, CallbackSink
from repro.obs import configure as obs_configure
from repro.runner.blas import cap_blas_threads, worker_share
from repro.runner.health import HealthReport, HeartbeatBoard, SupervisionPolicy
from repro.runner.sweep import RunFailure, RunOutcome, SweepRunner


class WorkerLostError(RuntimeError):
    """A worker process died (crash) or was killed (hang) mid-task."""


class SweepDrained(RuntimeError):
    """The sweep stopped on SIGINT/SIGTERM after a graceful drain.

    Progress up to the drain is checkpointed; rerunning with
    ``--resume`` finishes the remaining tasks.
    """

    def __init__(self, signal_name: str, completed: int,
                 remaining: int) -> None:
        self.signal_name = signal_name
        self.completed = completed
        self.remaining = remaining
        super().__init__(
            f"sweep drained on {signal_name}: {completed} task(s) "
            f"checkpointed, {remaining} remaining; resume to finish"
        )


@dataclass(frozen=True)
class Assignment:
    """One unit of work handed to a worker."""

    task_id: str
    #: What the pool's work callable is called with in the worker.
    arg: object
    #: Per-attempt budget, enforced in the worker (SIGALRM).
    timeout_s: Optional[float]
    #: Workers this task already killed (the worker's incarnation).
    strikes: int = 0


@dataclass(frozen=True)
class PoolEvent:
    """Something the pool saw, reported to its driver.

    ``kind`` is ``result`` (``value`` is the work callable's reply),
    ``record`` (``value`` is one streamed obs record), ``lost`` (the
    task's worker died: requeue it), ``quarantine`` (it died
    ``max_task_strikes`` times) or ``breaker`` (``value`` is the
    consecutive-loss count).
    """

    kind: str
    task_id: str = ""
    value: object = None
    #: ``crash`` or ``hang``, and the task's strikes so far
    #: (lost/quarantine events).
    loss: str = ""
    strikes: int = 0
    pid: Optional[int] = None
    detail: str = ""


#: ``work(task_id, arg, timeout_s) -> reply``, run inside a worker.
Work = Callable[[str, Any, Optional[float]], object]


# -- worker side -------------------------------------------------------------

#: Worker-process state: which heartbeat slot is mine, and which
#: incarnation (= prior strikes) of the current task I am running.
_WORKER_BOARD: Optional[HeartbeatBoard] = None
_WORKER_SLOT: Optional[int] = None
_TASK_INCARNATION: int = 0


def in_worker() -> bool:
    """True inside a supervised worker process."""
    return _WORKER_SLOT is not None


def task_incarnation() -> int:
    """How many workers the current task has already killed (0 first)."""
    return _TASK_INCARNATION


def _set_task_incarnation(incarnation: int) -> None:
    """Sole writer of :data:`_TASK_INCARNATION`.

    Both the forked worker loop and the sweep's circuit-breaker
    fallback run task attempts, and each must publish the incarnation
    for :func:`task_incarnation` readers. Rebinding the global from
    both sides of the fork is exactly the divergence the fork-safety
    lint flags, so every write goes through this one chokepoint.
    """
    global _TASK_INCARNATION
    _TASK_INCARNATION = incarnation


def tick_heartbeat() -> None:
    """Voluntary liveness tick for long-running task code.

    Task callables that legitimately run longer than one heartbeat
    deadline (e.g. one tick per simulated phase) call this to stay
    alive; it is a no-op outside supervised workers.
    """
    if _WORKER_BOARD is not None and _WORKER_SLOT is not None:
        _WORKER_BOARD.tick(_WORKER_SLOT)


def _ticking_sleep(base_sleep: Callable[[float], None]
                   ) -> Callable[[float], None]:
    """Backoff sleeps must not read as hangs: tick while sleeping."""
    if base_sleep is not time.sleep:
        def wrapped(seconds: float) -> None:
            tick_heartbeat()
            base_sleep(seconds)
            tick_heartbeat()
        return wrapped

    def chunked(seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while True:
            tick_heartbeat()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.2))
    return chunked


@contextmanager
def _streaming(sink: CallbackSink, arm_obs: bool) -> Iterator[None]:
    """Send one task's obs records down the pipe while it runs.

    An inherited armed pipeline (a traced parent) is redirected -- its
    trace file belongs to the parent. An untraced parent's workers stay
    untraced unless the pool arms them on purpose.
    """
    if OBS.enabled:
        with OBS.redirect(sink):
            yield
    elif arm_obs:
        obs_configure(sink=sink)
        try:
            yield
        finally:
            OBS.shutdown()
    else:
        yield


def _worker_main(slot: int, n_workers: int, board: HeartbeatBoard,
                 work: Work, arm_obs: bool, poll_s: float, parent_pid: int,
                 task_conn: Any, result_conn: Any) -> None:
    """One persistent worker: run assignments until told to stop."""
    global _WORKER_BOARD, _WORKER_SLOT
    # The inherited BLAS pool sized itself for the whole host; with
    # ``n_workers`` siblings that oversubscribes it ``n_workers``-fold.
    cap_blas_threads(worker_share(n_workers))
    # The parent coordinates interrupts: it drains gracefully on SIGINT
    # while workers finish their in-flight task undisturbed.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_BOARD = board
    _WORKER_SLOT = slot

    def forward(record: Dict[str, object]) -> None:
        board.tick(slot)
        result_conn.send(("record", record))

    sink = CallbackSink(forward)
    while True:
        try:
            if not task_conn.poll(poll_s):
                # Siblings hold copies of this pipe's write end, so a
                # dead parent never reads as EOF: watch for adoption.
                if os.getppid() != parent_pid:
                    return
                continue
            assignment: Optional[Assignment] = task_conn.recv()
        except (EOFError, OSError):
            return
        if assignment is None:
            return
        _set_task_incarnation(assignment.strikes)
        board.tick(slot)
        with _streaming(sink, arm_obs):
            reply = work(assignment.task_id, assignment.arg,
                         assignment.timeout_s)
        _set_task_incarnation(0)
        # This worker is the pipe's only writer, so a SIGKILL here can
        # at worst tear *this* pipe -- the parent discards it with the
        # dead worker; the survivors' pipes share nothing with it.
        result_conn.send(("result", reply))


# -- the supervision core ----------------------------------------------------


class _Worker:
    """Parent-side record of one worker process and its assignment."""

    def __init__(self, slot: int, n_workers: int, ctx: Any,
                 board: HeartbeatBoard, work: Work, arm_obs: bool,
                 poll_s: float) -> None:
        self.slot = slot
        self.assignment: Optional[Assignment] = None
        #: The pool is done with this process (lost, cancelled, stopped).
        self.retired = False
        task_recv, self.task_conn = ctx.Pipe(duplex=False)
        self.conn, result_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(slot, n_workers, board, work, arm_obs, poll_s,
                  os.getpid(), task_recv, result_send),
            daemon=True,
        )
        self.process.start()
        # Drop the parent's copies of the worker's ends right away:
        # once this worker dies, its reply pipe must read as EOF.
        task_recv.close()
        result_send.close()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(1.0)

    def close(self) -> None:
        for conn in (self.conn, self.task_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.conn = self.task_conn = None

    def retire(self) -> None:
        self.assignment = None
        self.retired = True
        self.close()


class WorkerPool:
    """Forks, feeds, watches and replaces ``n_workers`` workers.

    ``work(task_id, arg, timeout_s)`` runs in the workers, once per
    :class:`Assignment`; ``handle(event)`` runs in the parent for every
    :class:`PoolEvent`, synchronously and in the order things happen.
    ``heartbeat_s`` of ``None`` disables hang detection; ``arm_obs``
    streams records from workers even when the parent is untraced.
    """

    def __init__(self, n_workers: int, ctx: Any, policy: SupervisionPolicy,
                 work: Work, handle: Callable[[PoolEvent], None], *,
                 heartbeat_s: Optional[float],
                 arm_obs: bool = False) -> None:
        self.policy = policy
        self.health = HealthReport(workers=n_workers)
        self.heartbeat_s = heartbeat_s
        self.consecutive_losses = 0
        self.board = HeartbeatBoard.local(0)
        self._ctx = ctx
        self._work = work
        self._handle = handle
        self._arm_obs = arm_obs
        self._workers: List[_Worker] = []
        self._stopped = False

    def start(self) -> None:
        """Fork the workers."""
        self.board = HeartbeatBoard.shared(self.health.workers, self._ctx)
        self._workers = [self._fork(slot)
                         for slot in range(self.health.workers)]

    def stop(self) -> None:
        """Stop for good: idle workers exit, busy ones are killed.

        Replies that already landed are still delivered.
        """
        self._stopped = True
        for worker in self._workers:
            if worker.assignment is None and worker.task_conn is not None:
                try:
                    worker.task_conn.send(None)
                except (OSError, ValueError):
                    pass
            else:
                worker.kill()
        for worker in self._workers:
            worker.process.join(1.0)
            worker.kill()
            self._read_all(worker)
            worker.retire()

    def _fork(self, slot: int) -> _Worker:
        return _Worker(slot, self.health.workers, self._ctx, self.board,
                       self._work, self._arm_obs,
                       self.policy.poll_interval_s)

    def _replace(self, index: int) -> None:
        """Fork a successor for a retired worker, unless the pool is done."""
        if self._stopped or self.health.breaker_tripped:
            return
        old = self._workers[index]
        old.process.join(1.0)
        self._workers[index] = self._fork(old.slot)
        self.health.worker_restarts += 1
        OBS.counter("runner.worker_restarts")

    # -- assignment ---------------------------------------------------------

    def _idle_workers(self) -> List[_Worker]:
        return [worker for worker in self._workers
                if worker.assignment is None and not worker.retired
                and worker.process.is_alive()]

    def idle(self) -> int:
        """Live workers without an assignment."""
        return len(self._idle_workers())

    def assign(self, assignment: Assignment) -> None:
        """Hand ``assignment`` to an idle worker (see :meth:`idle`)."""
        worker = self._idle_workers()[0]
        worker.assignment = assignment
        self.board.reset(worker.slot)
        assert worker.task_conn is not None
        worker.task_conn.send(assignment)

    def running(self) -> List[str]:
        """Task ids currently assigned to workers."""
        return [worker.assignment.task_id for worker in self._workers
                if worker.assignment is not None]

    def cancel(self, task_id: str) -> None:
        """Kill and replace the worker of ``task_id``: no strike, no breaker."""
        for index, worker in enumerate(self._workers):
            if worker.assignment is not None \
                    and worker.assignment.task_id == task_id:
                worker.kill()
                worker.retire()
                self._replace(index)

    def max_heartbeat_age_s(self) -> float:
        return max((self.board.age_s(worker.slot)
                    for worker in self._workers
                    if worker.assignment is not None), default=0.0)

    # -- supervision --------------------------------------------------------

    def poll(self, timeout: float) -> None:
        """Read what workers sent (waiting up to ``timeout``), check health."""
        by_conn = {worker.conn: worker for worker in self._workers
                   if worker.conn is not None}
        if by_conn:
            try:
                ready = mp_connection.wait(list(by_conn), timeout=timeout)
            except OSError:
                ready = []  # a pipe died under us; the health check sorts it
            for conn in ready:
                self._read_all(by_conn[conn])
        elif timeout > 0:
            time.sleep(timeout)
        self._check_health()

    def _read_all(self, worker: _Worker) -> None:
        """Deliver every complete message a (possibly dead) worker sent."""
        while worker.conn is not None:
            try:
                if not worker.conn.poll(0):
                    return
                kind, value = worker.conn.recv()
            except (EOFError, OSError):
                # Worker died; drop the pipe so wait() stops reporting
                # it. The strike decision belongs to the health check.
                worker.close()
                return
            assignment = worker.assignment
            assert assignment is not None, "a reply from an idle worker"
            if kind == "result":
                worker.assignment = None
                # A delivered result means the pool machinery works: the
                # breaker counts only consecutive silent worker losses.
                self.consecutive_losses = 0
            self._handle(PoolEvent(kind, assignment.task_id, value))

    def _check_health(self) -> None:
        max_age = 0.0
        for index, worker in enumerate(self._workers):
            if worker.retired:
                continue
            if not worker.process.is_alive():
                # A complete result may have landed just before death;
                # losing the worker is then not a strike on the task.
                self._read_all(worker)
                if worker.assignment is not None:
                    self._lose(index, "crash",
                               f"died (exit {worker.process.exitcode})")
                else:
                    worker.retire()
                    self._replace(index)
                continue
            if worker.assignment is None:
                continue
            age = self.board.age_s(worker.slot)
            max_age = max(max_age, age)
            if self.heartbeat_s is not None and age > self.heartbeat_s:
                worker.process.kill()
                worker.process.join(5.0)
                self._lose(index, "hang",
                           f"missed its heartbeat ({age:.1f}s > "
                           f"{self.heartbeat_s:.1f}s), killed")
        if OBS.enabled:
            OBS.gauge("runner.heartbeat_age_s", round(max_age, 6))

    def _lose(self, index: int, kind: str, what: str) -> None:
        """A busy worker died or was killed: charge its task a strike."""
        worker = self._workers[index]
        assignment = worker.assignment
        assert assignment is not None
        worker.retire()
        pid = worker.process.pid
        self.consecutive_losses += 1
        if kind == "crash":
            self.health.crashes_detected += 1
        else:
            self.health.hangs_detected += 1
            OBS.counter("runner.hangs")
        if OBS.enabled:
            OBS.event("runner.worker_lost", kind=kind,
                      task=assignment.task_id, pid=pid,
                      exitcode=worker.process.exitcode
                      if kind == "crash" else None)
        strikes = assignment.strikes + 1
        if strikes >= self.policy.max_task_strikes:
            self.health.tasks_quarantined += 1
            self.health.quarantined_tasks.append(assignment.task_id)
            OBS.counter("runner.quarantined")
            outcome = "quarantine"
        else:
            self.health.tasks_requeued += 1
            OBS.counter("runner.requeues")
            outcome = "lost"
        self._handle(PoolEvent(outcome, assignment.task_id, loss=kind,
                               strikes=strikes, pid=pid,
                               detail=f"worker pid {pid} {what}"))
        if self.consecutive_losses >= self.policy.breaker_threshold \
                and not self.health.breaker_tripped:
            self.health.breaker_tripped = True
            OBS.counter("runner.breaker_trips")
            if OBS.enabled:
                OBS.event("runner.breaker_open",
                          incidents=self.consecutive_losses)
            self._handle(PoolEvent("breaker", value=self.consecutive_losses))
        self._replace(index)


# -- the sweep driver --------------------------------------------------------


class _SweepDriver:
    """Runs one pending task list of a :class:`SweepRunner` on the pool."""

    def __init__(self, runner: SweepRunner, ctx: Any,
                 n_workers: int) -> None:
        self.runner = runner
        self.policy = runner.policy
        self.pool = WorkerPool(
            n_workers, ctx, self.policy, self._work, self._on_event,
            heartbeat_s=self.policy.effective_heartbeat_s(
                runner.timeout_s, runner.max_backoff_s))
        self.health = self.pool.health
        self._order: List[str] = []
        self._pending: List[str] = []  # treated as a stack-front deque
        self._results: Dict[str, Tuple[RunOutcome, List[str],
                                       List[Dict[str, object]]]] = {}
        #: Obs records streamed by each in-flight task, absorbed at flush.
        self._records: Dict[str, List[Dict[str, object]]] = {}
        self._strikes: Dict[str, int] = {}
        self._flushed = 0
        self._drain_signal: Optional[str] = None
        self.by_id: Dict[str, object] = {}

    def _work(self, task_id: str, _arg: object,
              timeout_s: Optional[float]) -> Tuple[RunOutcome, List[str]]:
        """Worker side: one task through the retry loop; events come home."""
        events: List[str] = []
        outcome = self.runner._attempt(
            task_id, timeout_s, _ticking_sleep(self.runner.sleep),
            events.append, tick_heartbeat)
        return outcome, events

    def run(self, pending: List[str]) -> Dict[str, object]:
        self._order = list(pending)
        self._pending = list(pending)
        previous_handlers = self._install_signal_handlers()
        try:
            self.pool.start()
            while self._flushed < len(self._order):
                if self._drain_signal is not None:
                    self._drain()
                self._assign_idle_workers()
                self.pool.poll(self.policy.poll_interval_s)
                self._flush()
                if self.health.breaker_tripped:
                    self._run_rest_sequentially()
        finally:
            self.pool.stop()
            self._restore_signal_handlers(previous_handlers)
        return self.by_id

    def _install_signal_handlers(self) -> Dict[int, Any]:
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous: Dict[int, Any] = {}
        for signum in (signal.SIGINT, getattr(signal, "SIGTERM", None)):
            if signum is None:
                continue
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):
                pass
        return previous

    def _restore_signal_handlers(self, previous: Dict[int, Any]) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    def _on_signal(self, signum: int, frame: Any) -> None:
        if self._drain_signal is not None:
            raise KeyboardInterrupt  # second signal: abort immediately
        self._drain_signal = signal.Signals(signum).name

    def _next_task(self) -> Optional[str]:
        while self._pending:
            task_id = self._pending.pop(0)
            if task_id not in self._results:
                return task_id
        return None

    def _assign_idle_workers(self) -> None:
        if self._drain_signal is not None or self.health.breaker_tripped:
            return
        for _ in range(self.pool.idle()):
            task_id = self._next_task()
            if task_id is None:
                return
            self.pool.assign(Assignment(task_id, None, self.runner.timeout_s,
                                        self._strikes.get(task_id, 0)))

    def _on_event(self, event: PoolEvent) -> None:
        task_id = event.task_id
        if event.kind == "record":
            self._records.setdefault(task_id, []).append(
                event.value)  # type: ignore[arg-type]
        elif event.kind == "result":
            outcome, events = event.value  # type: ignore[misc]
            self._results[task_id] = (outcome, events,
                                      self._records.pop(task_id, []))
        elif event.kind == "lost":
            self._records.pop(task_id, None)  # the dead attempt's records
            self._strikes[task_id] = event.strikes
            self._pending.insert(0, task_id)
            self.runner.on_event(
                f"{task_id}: {event.detail}; requeued "
                f"(strike {event.strikes}/{self.policy.max_task_strikes})")
        elif event.kind == "quarantine":
            self._records.pop(task_id, None)
            self._quarantine(event)
        elif event.kind == "breaker":
            self.runner.on_event(
                f"circuit breaker open after {event.value} consecutive "
                f"worker losses; degrading to sequential execution")
            self.pool.stop()

    def _quarantine(self, event: PoolEvent) -> None:
        failure = RunFailure(
            task_id=event.task_id, error_type=WorkerLostError.__name__,
            message=f"task killed {event.strikes} worker(s) (last loss: "
                    f"{event.loss}); quarantined as poisoned",
            traceback="", attempts=event.strikes, transient=False,
        )
        self._results[event.task_id] = (
            RunOutcome(task_id=event.task_id, status="quarantined",
                       attempts=event.strikes, failure=failure), [], [])
        if OBS.enabled:
            span = OBS.span("runner.task", task=event.task_id, pid=event.pid)
            with span:
                span.set(status="quarantined", attempts=event.strikes,
                         error=WorkerLostError.__name__)

    def _flush(self) -> None:
        """Record finished tasks strictly in submission order."""
        while self._flushed < len(self._order):
            task_id = self._order[self._flushed]
            entry = self._results.get(task_id)
            if entry is None:
                return
            outcome, events, obs_records = entry
            for message in events:
                self.runner.on_event(message)
            for record in obs_records:
                OBS.absorb(record)
            self.runner._record(outcome)
            self.by_id[task_id] = outcome
            self._flushed += 1
            OBS.gauge("runner.queue_depth",
                      len(self._order) - self._flushed)

    def _run_rest_sequentially(self) -> None:
        """Breaker fallback: finish the sweep in the parent process."""
        runner = self.runner
        for task_id in self._order[self._flushed:]:
            if task_id in self._results:
                continue
            if self._drain_signal is not None:
                self._flush()
                self._drain()
            _set_task_incarnation(self._strikes.get(task_id, 0))
            try:
                outcome = runner._attempt(task_id, runner.timeout_s,
                                          runner.sleep, runner.on_event)
            finally:
                _set_task_incarnation(0)
            self._results[task_id] = (outcome, [], [])
            self._flush()

    def _drain(self) -> None:
        """Signal received: bounded grace, checkpoint, resumable exit."""
        assert self._drain_signal is not None
        self.health.drained = True
        self.health.drain_signal = self._drain_signal
        OBS.counter("runner.drains")
        if OBS.enabled:
            OBS.event("runner.drain", signal=self._drain_signal,
                      grace_s=self.policy.drain_grace_s)
        self.runner.on_event(
            f"{self._drain_signal} received: draining in-flight tasks "
            f"(grace {self.policy.drain_grace_s:.1f}s)"
        )
        deadline = time.monotonic() + self.policy.drain_grace_s
        while self.pool.running():
            remaining_grace = deadline - time.monotonic()
            if remaining_grace <= 0:
                break
            self.pool.poll(min(remaining_grace,
                               self.policy.poll_interval_s))
            self._flush()
        self.pool.stop()
        self._flush()
        raise SweepDrained(self._drain_signal, completed=self._flushed,
                           remaining=len(self._order) - self._flushed)


def run_supervised(runner: SweepRunner, pending: List[str],
                   ctx: Any) -> Dict[str, object]:
    """Run ``pending`` under supervision; returns {task_id: RunOutcome}.

    Publishes the pool's :class:`HealthReport` as ``runner.last_health``.
    """
    driver = _SweepDriver(runner, ctx, min(runner.jobs, len(pending)))
    runner.last_health = driver.health
    return driver.run(pending)
