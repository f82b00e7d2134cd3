"""``repro.store``: the embedded results & trace database.

One sqlite file (WAL mode, busy timeout) replaces the loose-JSON
sprawl of export directories and JSONL obs traces with a queryable
substrate. Runs never write it: ``--obs-trace`` writes JSONL, and
``starnuma store ingest`` is the one way rows get in. A resumed sweep
keeps every session by writing each session's trace to its own JSONL
path and ingesting all of them into one store.

* **schema** (:mod:`repro.store.schema`) -- the on-disk format:
  schema-versioned tables for the trace registry and raw obs records,
  sweeps, runs (result tables), long-form run metrics, per-phase
  metrics and migration-decision provenance; the WAL connection.
* **writer** (:mod:`repro.store.writer`) -- :class:`StoreWriter`, the
  buffered write-side lifecycle (``append N rows in memory, flush in
  one transaction; flush()/close()``), fork-safe, plus the exact
  record<->row codec.
* **ingest** (:mod:`repro.store.ingest`) -- brings JSONL traces and
  export/manifest directories in (``starnuma store ingest``).
* **query** (:mod:`repro.store.query`) -- the read-side API behind
  ``starnuma query``: exact result tables, top-N regressions between
  sweeps, cross-sweep scenario diffs, degradation curves, per-phase
  timelines, and ``starnuma obs summary`` over stored traces (the
  JSONL fold, fed from the store).

The layering contract (DESIGN.md §8) allows ``store`` to import only
``config`` and ``obs``; the simulator never imports it, so headline
numbers stay computable without a database anywhere near the model.
"""

from repro.store.ingest import (
    StoreIngestError,
    ingest_export_dir,
    ingest_path,
    ingest_trace,
)
from repro.store.query import (
    QueryError,
    cross_sweep_diff,
    degradation_curve,
    list_runs,
    list_sweeps,
    list_traces,
    metric_values,
    migration_provenance,
    phase_timeline,
    run_table,
    summarize_store,
    top_regressions,
)
from repro.store.schema import (
    STORE_SCHEMA_VERSION,
    StoreSchemaError,
    ensure_schema,
    is_sqlite_path,
    open_store,
)
from repro.store.writer import StoreWriter

__all__ = [
    "STORE_SCHEMA_VERSION",
    "StoreIngestError",
    "StoreSchemaError",
    "StoreWriter",
    "QueryError",
    "cross_sweep_diff",
    "degradation_curve",
    "ensure_schema",
    "ingest_export_dir",
    "ingest_path",
    "ingest_trace",
    "is_sqlite_path",
    "list_runs",
    "list_sweeps",
    "list_traces",
    "metric_values",
    "migration_provenance",
    "open_store",
    "phase_timeline",
    "run_table",
    "summarize_store",
    "top_regressions",
]
