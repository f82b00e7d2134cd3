"""Shared fixtures for the serve tests: a demo runner and a UDS client.

The end-to-end tests run a real :class:`~repro.serve.ServeApp` on a
unix socket inside ``asyncio.run`` and speak actual HTTP/SSE to it --
no mocked transport, the same bytes ``starnuma serve`` clients send.
The injected runner is synthetic (the layering contract keeps
``repro.serve`` off the simulator), with experiments that succeed,
sleep, or kill their worker on demand -- always (``boom``) or only on
a job's first incarnation (``flaky``).
"""

import asyncio
import contextlib
import json
import os
import time

from repro.runner import supervisor
from repro.serve import Catalog, ServeApp, ServePolicy

#: seed encodes the sleep for "sleepy" runs, in tenths of a second.
SLEEP_UNIT_S = 0.1

CATALOG = Catalog.of(["echo", "sleepy", "boom", "flaky"], ["wl"])

TERMINAL = ("completed", "failed", "cancelled", "quarantined")


def demo_runner(scenario):
    """The injected scenario runner (executes in a forked worker)."""
    if scenario.experiment == "boom":
        os._exit(86)
    if scenario.experiment == "flaky" and supervisor.task_incarnation() == 0:
        os._exit(87)  # the first worker dies; its replacement succeeds
    if scenario.experiment == "sleepy":
        time.sleep(scenario.seed * SLEEP_UNIT_S)
    return {
        "experiment": scenario.experiment,
        "seed": scenario.seed,
        "rows": [[scenario.seed, scenario.phases]],
    }


def fast_policy(**overrides):
    """Production semantics at test-friendly timescales."""
    knobs = dict(
        max_workers=2, max_queue=8, max_inflight_per_client=16,
        retry_after_s=0.1, default_deadline_s=30.0, max_deadline_s=60.0,
        linger_s=30.0, poll_interval_s=0.02, heartbeat_timeout_s=5.0,
        max_job_strikes=2, breaker_threshold=50, drain_grace_s=5.0,
        deadline_slack_s=5.0, job_max_retries=0, job_backoff_s=0.01,
    )
    knobs.update(overrides)
    return ServePolicy(**knobs)


def _parse_http(raw):
    """(status, headers, json-payload-or-None) from one raw response."""
    if not raw or b"\r\n\r\n" not in raw:
        return None, {}, None
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = None
    if body:
        with contextlib.suppress(json.JSONDecodeError,
                                 UnicodeDecodeError):
            payload = json.loads(body.decode())
    return status, headers, payload


def _parse_sse_frame(raw):
    """(event, data) from one SSE frame; None for comment keepalives."""
    event, data = "message", None
    for line in raw.decode().splitlines():
        if line.startswith(":"):
            return None
        if line.startswith("event: "):
            event = line[len("event: "):]
        elif line.startswith("data: "):
            data = json.loads(line[len("data: "):])
    if data is None:
        return None
    return event, data


class Harness:
    """One live ServeApp on a unix socket, plus a tiny HTTP client."""

    def __init__(self, tmp_path, *, policy=None, resume=False,
                 limits=None):
        self.uds = str(tmp_path / "serve.sock")
        self.journal_path = tmp_path / "journal.jsonl"
        self.app = ServeApp(
            run_scenario=demo_runner, catalog=CATALOG,
            journal_path=self.journal_path,
            policy=policy or fast_policy(), limits=limits,
            git="test", resume=resume, uds=self.uds,
            sse_keepalive_s=0.1)
        self._task = None

    async def __aenter__(self):
        self._task = asyncio.create_task(self.app.run())
        for _ in range(300):
            status, _, _ = await self.request("GET", "/healthz")
            if status == 200:
                return self
            await asyncio.sleep(0.01)
        raise RuntimeError("serve app did not come up")

    async def __aexit__(self, *exc_info):
        if not self._task.done():
            self.app.request_shutdown()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._task, 20.0)
        if not self._task.done():  # pragma: no cover -- hung drain
            self._task.cancel()
            with contextlib.suppress(BaseException):
                await self._task

    async def wait_stopped(self, timeout_s=20.0):
        """Await the app task itself (drain/shutdown tests)."""
        await asyncio.wait_for(self._task, timeout_s)

    async def request(self, method, path, body=None, client="test"):
        try:
            reader, writer = await asyncio.open_unix_connection(self.uds)
        except OSError:
            return None, {}, None
        payload = b"" if body is None else json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: test\r\nX-Client-Id: {client}\r\n")
        if payload:
            head += f"Content-Length: {len(payload)}\r\n"
        writer.write((head + "\r\n").encode() + payload)
        await writer.drain()
        try:
            raw = await asyncio.wait_for(reader.read(), 10.0)
        except asyncio.TimeoutError:
            raw = b""
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        return _parse_http(raw)

    async def submit(self, scenario, client="test"):
        return await self.request("POST", "/v1/jobs", scenario,
                                  client=client)

    async def wait_terminal(self, job_id, timeout_s=15.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, _, payload = await self.request(
                "GET", f"/v1/jobs/{job_id}")
            if status == 200 and payload["state"] in TERMINAL:
                return payload
            await asyncio.sleep(0.02)
        raise TimeoutError(f"job {job_id} never reached a terminal state")

    async def sse(self, job_id, *, disconnect_after=None, client="test",
                  timeout_s=15.0):
        """Attach to a job's event stream; list of (event, data) frames.

        ``disconnect_after=N`` hangs up mid-stream after N frames (the
        client-vanishes case); otherwise reads through the ``result``
        frame.
        """
        reader, writer = await asyncio.open_unix_connection(self.uds)
        writer.write((f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                      f"Host: test\r\nX-Client-Id: {client}\r\n"
                      f"\r\n").encode())
        await writer.drain()
        frames = []
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          timeout_s)
            assert b"200" in head.split(b"\r\n", 1)[0]
            buffer = b""
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                chunk = await asyncio.wait_for(reader.read(4096), timeout_s)
                if not chunk:
                    break
                buffer += chunk
                while b"\n\n" in buffer:
                    raw, buffer = buffer.split(b"\n\n", 1)
                    frame = _parse_sse_frame(raw)
                    if frame is not None:
                        frames.append(frame)
                    if disconnect_after is not None \
                            and len(frames) >= disconnect_after:
                        return frames
                if frames and frames[-1][0] == "result":
                    return frames
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        return frames
