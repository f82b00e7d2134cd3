"""``repro.obs``: zero-overhead-when-disabled instrumentation.

The subsystem has four small parts:

* a typed **metrics registry** (:mod:`repro.obs.registry`) -- counters,
  gauges, and histograms with fixed bucket edges, flushed as summary
  records when the pipeline shuts down;
* **span tracing** with monotonic-clock timing and point **events**,
  both emitted through the global :data:`OBS` facade
  (:mod:`repro.obs.core`);
* pluggable **sinks** (:mod:`repro.obs.sinks`): a null sink that turns
  every emission into a no-op, an in-memory sink for tests, and a JSONL
  file sink for runs;
* an **event schema** (:mod:`repro.obs.events`) with a validator, and a
  **summary renderer** (:mod:`repro.obs.summary`) behind
  ``starnuma obs``.

Model code (``repro.sim``, ``repro.migration``, ...) only ever imports
the :data:`OBS` facade and only ever *writes* to it -- the ``obs-purity``
lint rule forbids reading telemetry back, so instrumentation can never
feed into simulation results. Every write-side entry point returns
immediately when the pipeline is disabled; hot loops additionally guard
on :attr:`Obs.enabled` so a disabled run pays a single branch.
"""

from repro.obs.core import OBS, Obs, configure, shutdown
from repro.obs.events import (
    SCHEMA_VERSION,
    ObsSchemaError,
    validate_record,
    validate_trace,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink
from repro.obs.stream import CallbackSink, TeeSink
from repro.obs.summary import (
    iter_trace,
    read_trace,
    render_summary,
    summarize_records,
)

__all__ = [
    "OBS",
    "Obs",
    "configure",
    "shutdown",
    "SCHEMA_VERSION",
    "ObsSchemaError",
    "validate_record",
    "validate_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "CallbackSink",
    "TeeSink",
    "iter_trace",
    "read_trace",
    "render_summary",
    "summarize_records",
]
