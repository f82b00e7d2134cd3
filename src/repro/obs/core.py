"""The obs facade: one process-global pipeline, written to by model code.

Model code interacts with exactly seven write-side members of the
global :data:`OBS` object -- ``enabled``, :meth:`Obs.span`,
:meth:`Obs.event`, :meth:`Obs.detail`, :meth:`Obs.counter`,
:meth:`Obs.gauge`, and :meth:`Obs.observe`. Everything else (reading
metric values, draining captured records) is operator-side API, and the
``obs-purity`` lint rule keeps it out of the simulation packages so
telemetry can never feed back into results.

Disabled is the default and costs one attribute load plus a branch per
call site: every entry point starts with ``if not self.enabled: return``
and :meth:`Obs.span` hands back a shared no-op context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.obs.events import LEVEL_NAMES, SCHEMA_VERSION
from repro.obs.registry import MetricsRegistry
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVEL_NAMES, start=1)}


class _NullSpan:
    """The shared do-nothing span of a disabled pipeline."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timed region; emits one ``span`` record on exit."""

    __slots__ = ("_obs", "name", "attrs", "_t0")

    def __init__(self, obs: "Obs", name: str,
                 attrs: Dict[str, object]) -> None:
        self._obs = obs
        self.name = name
        self.attrs = attrs
        self._t0 = 0

    def __enter__(self) -> "_Span":
        self._t0 = self._obs._now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._obs._emit({
            "kind": "span",
            "name": self.name,
            "t_ns": self._t0,
            "dur_ns": self._obs._now() - self._t0,
            "attrs": self.attrs,
        })

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)


class Obs:
    """One instrumentation pipeline: a sink, a level, and a registry."""

    def __init__(self) -> None:
        self.enabled = False
        self._level_rank = _LEVEL_RANK["basic"]
        self._sink: Sink = NullSink()
        self._registry = MetricsRegistry()
        self._t0_ns = 0
        self.trace_path: Optional[str] = None

    # -- lifecycle (operator side) -----------------------------------------

    def configure(self, sink: Sink, level: str = "basic") -> None:
        """Arm the pipeline; emits the trace's ``meta`` header record."""
        if level not in _LEVEL_RANK:
            raise ValueError(f"level must be one of {LEVEL_NAMES}, "
                             f"got {level!r}")
        if self.enabled:
            raise RuntimeError("obs pipeline is already configured; "
                               "shut it down first")
        self._sink = sink
        self._level_rank = _LEVEL_RANK[level]
        self._registry = MetricsRegistry()
        self._t0_ns = time.monotonic_ns()
        self.trace_path = (str(sink.path) if isinstance(sink, JsonlSink)
                           else None)
        self.enabled = True
        self._sink.emit({
            "kind": "meta",
            "schema": SCHEMA_VERSION,
            "level": level,
            "clock": "monotonic_ns",
        })

    def shutdown(self) -> None:
        """Flush metric summaries, close the sink, return to disabled."""
        if not self.enabled:
            return
        for record in self._registry.flush_records():
            self._sink.emit(record)
        self._sink.close()
        self._sink = NullSink()
        self._registry = MetricsRegistry()
        self.enabled = False
        self.trace_path = None

    @contextmanager
    def redirect(self, sink: Sink) -> Iterator[None]:
        """Run a block against ``sink`` and an isolated registry.

        The block's spans and events go to ``sink`` *as they happen*
        (streaming -- this is how a serve worker bridges span records
        to SSE subscribers mid-job); metric deltas accumulated inside
        the block are flushed to ``sink`` as ``metric`` records on
        exit. The previous sink and registry are restored afterwards.
        No-op (still yields) when the pipeline is disabled.
        """
        if not self.enabled:
            yield
            return
        previous_sink = self._sink
        previous_registry = self._registry
        self._sink = sink
        self._registry = MetricsRegistry()
        try:
            yield
        finally:
            isolated_registry = self._registry
            self._sink = previous_sink
            self._registry = previous_registry
            for record in isolated_registry.flush_records():
                sink.emit(record)

    @contextmanager
    def capture(self,
                records: List[Dict[str, object]]) -> Iterator[None]:
        """Run a block against an isolated sink *and* registry.

        Spans and events land in ``records`` as they happen; metric
        deltas accumulated inside the block are appended as ``metric``
        records on exit. Used by forked sweep workers: the child
        inherits an armed pipeline whose JSONL handle (and registry
        totals) belong to the parent, so it buffers everything in
        memory and ships it back with the task outcome; the parent
        replays with :meth:`absorb`. No-op (still yields) when the
        pipeline is disabled.
        """
        with self.redirect(MemorySink(records)):
            yield

    def emit_raw(self, record: Dict[str, object]) -> None:
        """Forward an already-formed record (worker-replay path)."""
        if not self.enabled:
            return
        self._sink.emit(record)

    def absorb(self, record: Dict[str, object]) -> None:
        """Fold one captured record back into this pipeline.

        Spans and events are forwarded to the sink unchanged; metric
        deltas are merged into the live registry so the final flush
        reports whole-sweep totals even when tasks ran in workers.
        """
        if not self.enabled:
            return
        if record.get("kind") != "metric":
            self._sink.emit(record)
            return
        name = str(record["name"])
        metric_type = record.get("type")
        if metric_type == "counter":
            self._registry.counter(name).add(float(record["value"]))  # type: ignore[arg-type]
        elif metric_type == "gauge":
            self._registry.gauge(name).set(float(record["value"]))  # type: ignore[arg-type]
        elif metric_type == "histogram":
            histogram = self._registry.histogram(
                name, record["edges"]  # type: ignore[arg-type]
            )
            for index, count in enumerate(record["buckets"]):  # type: ignore[arg-type]
                histogram.bucket_counts[index] += int(count)
            histogram.count += int(record["count"])  # type: ignore[arg-type]
            histogram.total += float(record["total"])  # type: ignore[arg-type]

    # -- write side (model code) -------------------------------------------

    def span(self, name: str, **attrs: object) -> "_Span | _NullSpan":
        """A timed region; ``with OBS.span("sim.phase", phase=3): ...``"""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """A basic-level point event."""
        if not self.enabled:
            return
        self._emit({"kind": "event", "name": name, "t_ns": self._now(),
                    "attrs": attrs})

    def detail(self, name: str, **attrs: object) -> None:
        """A point event emitted only at the ``detail`` level."""
        if not self.enabled or self._level_rank < _LEVEL_RANK["detail"]:
            return
        self._emit({"kind": "event", "name": name, "t_ns": self._now(),
                    "attrs": attrs})

    def counter(self, name: str, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        self._registry.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._registry.gauge(name).set(value)

    def observe(self, name: str, value: float,
                edges: Optional[Sequence[float]] = None) -> None:
        if not self.enabled:
            return
        self._registry.histogram(name, edges).observe(value)

    # -- operator-side inspection ------------------------------------------

    def metrics_snapshot(self) -> List[Dict[str, object]]:
        """The registry's current summary records (tests/tooling only)."""
        return self._registry.flush_records()

    # -- internals ----------------------------------------------------------

    def _now(self) -> int:
        return time.monotonic_ns() - self._t0_ns

    def _emit(self, record: Dict[str, object]) -> None:
        self._sink.emit(record)


#: The process-global pipeline every instrumentation site writes to.
OBS = Obs()


def configure(trace_path: Optional[str] = None, level: str = "basic",
              sink: Optional[Sink] = None) -> Obs:
    """Arm the global pipeline (``sink`` wins over ``trace_path``).

    A ``trace_path`` gets a JSONL trace; no path, an in-memory one.
    """
    if sink is None:
        sink = JsonlSink(trace_path) if trace_path else MemorySink()
    OBS.configure(sink, level=level)
    return OBS


def shutdown() -> None:
    """Flush and disarm the global pipeline (idempotent)."""
    OBS.shutdown()
