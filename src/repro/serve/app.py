"""The HTTP service: routing, streaming, drain, and resume.

`ServeApp` owns one :class:`~repro.serve.jobs.JobManager` plus the
asyncio socket server and maps the API onto it:

====================  ======================================================
``POST /v1/jobs``     Submit a scenario (same schema as ``starnuma run``).
                      201 queued, 200 cached/coalesced, 400 invalid,
                      409 quarantined, 429/503 shed (with Retry-After).
``GET /v1/jobs/I``    Job state; the result JSON once completed.
``GET /v1/jobs/I/events``  SSE progress stream (obs span/event records),
                      closing with a ``result`` frame. Followers of a
                      coalesced job attach here too.
``GET /healthz``      Liveness: 200 while the process serves at all.
``GET /readyz``       Readiness: 503 while draining or breaker-open.
``GET /v1/stats``     Counters for operators and the chaos harness.
====================  ======================================================

SIGTERM starts a graceful drain: new submissions are shed with 503,
in-flight jobs get ``drain_grace_s`` to finish (then are killed with
their journal records left resumable), SSE streams are closed with a
final frame, and the process exits. SIGKILL needs no cooperation: the
fsynced journal replays on ``serve --resume``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.obs import OBS
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.jobs import (AdmissionShed, Job, JobManager, JobState,
                              ScenarioRunner)
from repro.serve.journal import JobJournal, JournalState, replay_journal
from repro.serve.policy import ServePolicy
from repro.serve.protocol import (HttpError, HttpRequest, ReadLimits,
                                  Response, read_request, sse_preamble,
                                  write_response)
from repro.serve.scenario import (Catalog, ScenarioError, parse_scenario)
from repro.serve.sse import format_sse


class ServeApp:
    """One service instance: sockets in front, a job manager behind."""

    def __init__(self, *, run_scenario: ScenarioRunner, catalog: Catalog,
                 journal_path: Union[str, Path],
                 policy: Optional[ServePolicy] = None,
                 limits: Optional[ReadLimits] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 git: Optional[str] = None, resume: bool = False,
                 host: str = "127.0.0.1", port: int = 0,
                 uds: Optional[Union[str, Path]] = None,
                 sse_keepalive_s: float = 1.0,
                 mp_context: Optional[object] = None) -> None:
        self.policy = policy or ServePolicy()
        self.limits = limits or ReadLimits()
        self.catalog = catalog
        self.host = host
        self.port = port
        self.uds = str(uds) if uds is not None else None
        self._sse_keepalive_s = sse_keepalive_s
        self.journal_path = Path(journal_path)

        replayed: Optional[JournalState] = None
        if resume:
            replayed = replay_journal(self.journal_path)
        elif self.journal_path.exists() \
                and self.journal_path.stat().st_size:
            # A fresh serve (no --resume) must not splice new records
            # into an old journal; keep the old one for forensics.
            os.replace(self.journal_path,
                       self.journal_path.with_suffix(
                           self.journal_path.suffix + ".prev"))

        self.cache = ResultCache(directory=cache_dir)
        self.admission = AdmissionController(self.policy)
        self.journal = JobJournal(self.journal_path)
        self.manager = JobManager(
            run_scenario=run_scenario, journal=self.journal,
            cache=self.cache, admission=self.admission,
            policy=self.policy, git=git, mp_context=mp_context)
        #: Populated when ``resume=True``: what the journal recovered.
        self.adopted: Optional[Dict[str, int]] = None
        if replayed is not None:
            self.adopted = self.manager.adopt(replayed)
            if replayed.torn_tail:
                OBS.counter("serve.journal.torn_tail")

        self._server: Optional[asyncio.AbstractServer] = None
        self._manager_task: Optional["asyncio.Task[None]"] = None
        self._shutdown = asyncio.Event()
        self._drained = False
        self.bound_port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> str:
        if self.uds is not None:
            return f"unix:{self.uds}"
        return f"http://{self.host}:{self.bound_port or self.port}"

    def request_shutdown(self) -> None:
        """Begin a graceful drain (SIGTERM handler and test hook)."""
        self.admission.draining = True
        self._shutdown.set()

    async def start(self) -> None:
        """Bind the socket and start the supervision loop."""
        if self.uds is not None:
            try:
                # The service owns its socket path; a leftover file is
                # a previous instance that died without cleanup.
                os.unlink(self.uds)
            except FileNotFoundError:
                pass
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.uds,
                limit=self.limits.max_header_bytes)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port,
                limit=self.limits.max_header_bytes)
            for sock in self._server.sockets or []:
                if sock.family in (socket.AF_INET, socket.AF_INET6):
                    self.bound_port = sock.getsockname()[1]
                    break
        self._manager_task = asyncio.create_task(self.manager.run())

    async def run(self) -> None:
        """Serve until a shutdown is requested, then drain and exit."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await self._shutdown.wait()
            await self._drain()
        finally:
            await self._close()

    async def _drain(self) -> None:
        if self._drained:
            return
        self._drained = True
        OBS.event("serve.drain.begin",
                  running=len(self.manager.pool.running()),
                  queued=self.manager.queued())
        await self.manager.drain(self.policy.drain_grace_s)
        OBS.event("serve.drain.end")

    async def _close(self) -> None:
        self.manager.stop()
        if self._manager_task is not None:
            try:
                await asyncio.wait_for(self._manager_task, 5.0)
            except asyncio.TimeoutError:  # pragma: no cover
                self._manager_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.journal.close()
        if self.uds is not None:
            try:
                os.unlink(self.uds)
            except OSError:
                pass

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) and peer else "local"
        try:
            try:
                request = await read_request(reader, self.limits, client)
            except HttpError as exc:
                await write_response(writer, Response.error(exc))
                return
            if request is None:
                return
            identity = request.header("x-client-id") or client
            request.client = identity
            try:
                await self._route(request, writer)
            except HttpError as exc:
                await write_response(writer, Response.error(exc))
            except (ConnectionResetError, BrokenPipeError):
                raise
            except Exception as exc:  # noqa: BLE001 -- keep serving
                OBS.event("serve.handler_error", error=repr(exc))
                await write_response(writer, Response.error(
                    HttpError(500, f"internal error: {exc}")))
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; nothing to tell it
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, request: HttpRequest,
                     writer: asyncio.StreamWriter) -> None:
        path, method = request.path, request.method
        if path == "/healthz":
            await self._respond_health(request, writer)
        elif path == "/readyz":
            await self._respond_ready(request, writer)
        elif path == "/v1/stats":
            await write_response(writer, Response.json(200, self.stats()))
        elif path == "/v1/jobs":
            if method != "POST":
                raise HttpError(405, f"{method} not allowed on {path}")
            await self._submit(request, writer)
        elif path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on {path}")
            remainder = path[len("/v1/jobs/"):]
            if remainder.endswith("/events"):
                await self._stream(remainder[:-len("/events")], request,
                                   writer)
            else:
                await self._job_state(remainder, writer)
        else:
            raise HttpError(404, f"no route for {method} {path}")

    # -- endpoints -----------------------------------------------------------

    async def _respond_health(self, request: HttpRequest,
                              writer: asyncio.StreamWriter) -> None:
        payload = {
            "status": "ok",
            "draining": self.manager.draining or self.admission.draining,
            "breaker_open": self.manager.breaker_open,
            "max_heartbeat_age_s": round(
                self.manager.pool.max_heartbeat_age_s(), 3),
        }
        await write_response(writer, Response.json(200, payload))

    async def _respond_ready(self, request: HttpRequest,
                             writer: asyncio.StreamWriter) -> None:
        draining = self.manager.draining or self.admission.draining
        if draining or self.manager.breaker_open:
            reason = ("draining" if draining
                      else "circuit breaker open after consecutive "
                           "worker losses")
            raise HttpError(503, f"not ready: {reason}",
                            retry_after_s=self.policy.retry_after_s)
        await write_response(writer,
                             Response.json(200, {"status": "ready"}))

    def _parse_deadline(self, payload: Dict[str, object]) -> float:
        raw = payload.get("deadline_s")
        if raw is None:
            return self.policy.default_deadline_s
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise HttpError(400, f"deadline_s must be a number "
                                 f"(got {raw!r})")
        deadline = float(raw)
        if deadline <= 0:
            raise HttpError(400, f"deadline_s must be > 0 (got {raw!r})")
        if deadline > self.policy.max_deadline_s:
            raise HttpError(400, f"deadline_s {deadline:g} exceeds the "
                                 f"{self.policy.max_deadline_s:g}s cap")
        return deadline

    async def _submit(self, request: HttpRequest,
                      writer: asyncio.StreamWriter) -> None:
        payload = request.json()
        try:
            scenario = parse_scenario(payload, self.catalog)
        except ScenarioError as exc:
            raise HttpError(400, str(exc)) from None
        deadline_s = self._parse_deadline(payload)
        try:
            disposition, job = self.manager.submit(
                scenario, request.client, deadline_s)
        except AdmissionShed as shed:
            raise HttpError(shed.status, shed.reason,
                            retry_after_s=shed.retry_after_s) from None
        body = dict(job.public_state())
        body["disposition"] = disposition
        body["events"] = f"/v1/jobs/{job.job_id}/events"
        if disposition == "quarantined":
            raise HttpError(
                409, f"job {job.job_id} is quarantined as poisoned "
                     f"({job.error}); it will not be re-run")
        status = 201 if disposition == "accepted" else 200
        await write_response(writer, Response.json(status, body))

    async def _job_state(self, job_id: str,
                         writer: asyncio.StreamWriter) -> None:
        job = self.manager.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        self.manager.poll(job)
        await write_response(writer,
                             Response.json(200, job.public_state()))

    async def _stream(self, job_id: str, request: HttpRequest,
                      writer: asyncio.StreamWriter) -> None:
        job = self.manager.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        self.manager.watch(job)
        subscription = job.hub.subscribe()
        OBS.counter("serve.sse.attached")
        try:
            writer.write(sse_preamble())
            await writer.drain()
            while True:
                record = await subscription.next_record(
                    timeout_s=self._sse_keepalive_s)
                if record is None:
                    break
                if record.get("kind") == "keepalive":
                    # Comment frame: keeps the pipe honest so a dead
                    # client surfaces as a write error promptly.
                    writer.write(b": keepalive\n\n")
                else:
                    writer.write(format_sse(
                        record, event=str(record.get("kind", "record"))))
                await writer.drain()
            writer.write(format_sse(job.public_state(), event="result"))
            await writer.drain()
        finally:
            subscription.unsubscribe()
            self.manager.unwatch(job)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        payload = self.manager.stats()
        payload["cache"] = {
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "entries": self.cache.entries,
        }
        # Snapshot, not flush: reading the registry resets nothing, so
        # polling /v1/stats never perturbs the metrics it reports.
        payload["obs"] = {
            "metrics": OBS.metrics_snapshot(),
        }
        payload["address"] = self.address
        if self.adopted is not None:
            payload["adopted"] = dict(self.adopted)
        return payload


def serve_forever(app: ServeApp) -> None:
    """Blocking entry point used by ``starnuma serve``."""
    asyncio.run(app.run())
