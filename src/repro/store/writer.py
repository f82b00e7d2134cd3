"""The store's write side: one lifecycle object, buffered batch writers.

:class:`StoreWriter` owns the connection and one
:class:`BufferedTableWriter` per bulk table. Row headers that other
rows reference (``sweeps``, ``runs``, ``traces``) are inserted eagerly
so their autoincrement ids exist before the bulk rows that point at
them; everything else accumulates in memory and lands ``batch_size``
rows at a time in single transactions, behind an explicit
``flush()``/``close()`` lifecycle. The writer belongs to the process
that opened it: a forked child's calls raise instead of corrupting the
WAL.

Obs records cross into ``obs_records`` rows through one codec,
:func:`record_to_row` / :func:`row_to_record`, which round-trips every
record exactly.

Determinism: nothing here reads a clock or draws randomness -- every
row's content comes from the ingested records and results themselves
(a record's timestamp is its own monotonic ``t_ns``), so ingesting the
same inputs twice (under different labels) produces identical row
content.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.store import schema as store_schema

#: Default rows buffered in memory before a batch writer flushes them
#: in one transaction.
DEFAULT_BATCH_SIZE = 256

#: Result cell types treated as metric values (bool is a label, not a
#: measurement, despite being an int subclass).
_NUMERIC = (int, float)


def scenario_key(cells: List[object]) -> str:
    """The cross-sweep join key of one result row.

    Label cells (strings and bools) joined with ``/`` -- ``bfs``,
    ``bfs/baseline``, ``bfs/pool-dead`` -- so the same scenario in two
    sweeps lands on the same key regardless of its metric values.
    """
    labels = [str(cell) for cell in cells
              if isinstance(cell, (str, bool))]
    return "/".join(labels) if labels else "-"


def _compact(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_to_row(trace_id: int, seq: int,
                  record: Dict[str, object]) -> Tuple[object, ...]:
    """Encode one obs record (span/event/metric) as an ``obs_records`` row.

    ``meta`` records live in ``traces``, not here -- encode everything
    the schema knows into typed columns and stash any remaining fields
    in ``payload`` so :func:`row_to_record` round-trips exactly.
    """
    kind = str(record.get("kind", ""))
    name = record.get("name")
    if kind == "metric":
        metric_type = record.get("type")
        value = (record.get("value")
                 if metric_type in ("counter", "gauge") else None)
        rest = {key: val for key, val in record.items()
                if key not in ("kind", "type", "name", "value")}
        payload = _compact(rest) if rest else None
        return (trace_id, seq, kind, name, None, None, metric_type,
                value, None, payload)
    attrs = record.get("attrs")
    attrs_json = _compact(attrs) if attrs is not None else None
    rest = {key: val for key, val in record.items()
            if key not in ("kind", "name", "t_ns", "dur_ns", "attrs")}
    payload = _compact(rest) if rest else None
    return (trace_id, seq, kind, name, record.get("t_ns"),
            record.get("dur_ns"), None, None, attrs_json, payload)


def row_to_record(row: Sequence[object]) -> Dict[str, object]:
    """Decode one ``OBS_RECORD_COLUMNS``-ordered row back to a record."""
    kind, name, t_ns, dur_ns, metric_type, value, attrs, payload = row
    if kind == "metric":
        record: Dict[str, object] = {"kind": "metric",
                                     "type": metric_type, "name": name}
        if value is not None:
            record["value"] = value
        if payload:
            record.update(json.loads(str(payload)))
        return record
    record = {"kind": kind, "name": name}
    if t_ns is not None:
        record["t_ns"] = t_ns
    if kind == "span" and dur_ns is not None:
        record["dur_ns"] = dur_ns
    if attrs is not None:
        record["attrs"] = json.loads(str(attrs))
    if payload:
        record.update(json.loads(str(payload)))
    return record


def trace_meta_record(level: Optional[str], schema_version: Optional[int],
                      clock: Optional[str]) -> Dict[str, object]:
    """Rebuild the ``meta`` header record from a ``traces`` row."""
    return {"kind": "meta", "schema": schema_version, "level": level,
            "clock": clock}


class BufferedTableWriter:
    """Appends rows in memory; flushes them as one transaction.

    The pyotter-style batch writer: ``append`` is an in-memory list
    push until ``batch_size`` rows accumulate, then one ``executemany``
    inside a single transaction lands the whole batch. ``flush``
    drains explicitly; dropping the writer without flushing loses only
    unflushed rows, never corrupts the store.
    """

    def __init__(self, conn: sqlite3.Connection, insert_sql: str,
                 batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._conn = conn
        self._insert_sql = insert_sql
        self._batch_size = batch_size
        self._rows: List[Tuple[object, ...]] = []

    def append(self, row: Tuple[object, ...]) -> None:
        self._rows.append(row)
        if len(self._rows) >= self._batch_size:
            self.flush()

    def flush(self) -> None:
        if not self._rows:
            return
        with self._conn:
            self._conn.executemany(self._insert_sql, self._rows)
        self._rows.clear()


class StoreWriter:
    """Write-side lifecycle of the results & trace store."""

    def __init__(self, path: Union[str, Path], *,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 busy_timeout_s: float = store_schema.DEFAULT_BUSY_TIMEOUT_S,
                 ) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection = store_schema.open_store(
            self.path, busy_timeout_s=busy_timeout_s)
        self._obs_rows = BufferedTableWriter(
            self._conn, store_schema.INSERT_OBS_RECORD, batch_size)
        self._run_rows = BufferedTableWriter(
            self._conn, store_schema.INSERT_RUN_ROW, batch_size)
        self._run_metrics = BufferedTableWriter(
            self._conn, store_schema.INSERT_RUN_METRIC, batch_size)
        self._phase_metrics = BufferedTableWriter(
            self._conn, store_schema.INSERT_PHASE_METRIC, batch_size)
        self._migrations = BufferedTableWriter(
            self._conn, store_schema.INSERT_MIGRATION_DECISION, batch_size)
        # Per-trace bounded fold state: phase label -> [count, total_ns].
        self._phase_folds: Dict[int, Dict[str, List[int]]] = {}
        self._trace_seq: Dict[int, int] = {}
        self._trace_records: Dict[int, int] = {}
        self._pid = os.getpid()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (read-side reuse after flush)."""
        return self._conn

    def flush(self) -> None:
        """Land every buffered row now (one transaction per table)."""
        self._guard()
        for writer in (self._obs_rows, self._run_rows, self._run_metrics,
                       self._phase_metrics, self._migrations):
            writer.flush()

    def close(self) -> None:
        if self._closed or os.getpid() != self._pid:
            return
        for trace_id in list(self._phase_folds):
            self.finish_trace(trace_id)
        self.flush()
        self._conn.close()
        self._closed = True

    def _guard(self) -> None:
        if self._closed:
            raise ValueError(f"store writer {self.path} is closed")
        if os.getpid() != self._pid:
            raise RuntimeError(
                f"store writer {self.path} crossed a fork: open a fresh "
                f"writer in the child instead of inheriting this one"
            )

    # -- results -------------------------------------------------------------

    def begin_sweep(self, label: str, *, source: str,
                    manifest: Optional[Dict[str, object]] = None) -> int:
        """Register one sweep (export directory); returns ``sweep_id``."""
        self._guard()
        manifest = manifest or {}
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO sweeps (label, source, schema_version, seed, "
                "n_phases, warmup_phases, git, manifest) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (label, source, manifest.get("schema"),
                 manifest.get("seed"), manifest.get("n_phases"),
                 manifest.get("warmup_phases"), manifest.get("git"),
                 json.dumps(manifest, sort_keys=True) if manifest else None),
            )
        row_id = cursor.lastrowid
        assert row_id is not None
        return int(row_id)

    def add_result(self, sweep_id: int, result: Dict[str, object]) -> int:
        """Store one exported result table; returns ``run_id``.

        ``result`` is the ``result_to_dict`` shape every ``<id>.json``
        export carries: ``experiment``, ``notes``, ``headers``,
        ``rows``. Rows are kept verbatim (JSON cell lists) and also
        exploded long-form into ``run_metrics``.
        """
        self._guard()
        headers = [str(header) for header in result.get("headers", [])]
        rows = result.get("rows", [])
        assert isinstance(rows, list)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (sweep_id, experiment, notes, headers, "
                "n_rows) VALUES (?, ?, ?, ?, ?)",
                (sweep_id, result.get("experiment"), result.get("notes"),
                 json.dumps(headers), len(rows)),
            )
        run_id = cursor.lastrowid
        assert run_id is not None
        for row_index, row in enumerate(rows):
            cells = list(row)
            scenario = scenario_key(cells)
            self._run_rows.append((run_id, row_index, scenario,
                                   json.dumps(cells)))
            for header, cell in zip(headers, cells):
                if isinstance(cell, _NUMERIC) and not isinstance(cell, bool):
                    self._run_metrics.append(
                        (run_id, row_index, scenario, header, float(cell)))
        return int(run_id)

    # -- obs traces ----------------------------------------------------------

    def begin_trace(self, *, source: str,
                    label: Optional[str] = None) -> int:
        """Register one obs trace; returns ``trace_id``.

        The insert commits at once, so concurrent writers each claim a
        distinct id up front and their record rows never collide.
        """
        self._guard()
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO traces (label, source) VALUES (?, ?)",
                (label, source))
        trace_id = cursor.lastrowid
        assert trace_id is not None
        self._phase_folds[trace_id] = {}
        self._trace_seq[trace_id] = 0
        self._trace_records[trace_id] = 0
        return trace_id

    def add_obs_record(self, trace_id: int,
                       record: Dict[str, object]) -> None:
        """Append one record; feeds the derived index tables as it goes."""
        self._guard()
        self._trace_records[trace_id] = (
            self._trace_records.get(trace_id, 0) + 1)
        kind = record.get("kind")
        if kind == "meta":
            # The header lives in the trace registry, not the row log.
            with self._conn:
                self._conn.execute(
                    "UPDATE traces SET level = ?, schema_version = ?, "
                    "clock = ? WHERE trace_id = ?",
                    (record.get("level"), record.get("schema"),
                     record.get("clock"), trace_id),
                )
            return
        seq = self._trace_seq.get(trace_id, 0) + 1
        self._trace_seq[trace_id] = seq
        self._obs_rows.append(record_to_row(trace_id, seq, record))
        name = str(record.get("name", ""))
        attrs = record.get("attrs")
        attrs = attrs if isinstance(attrs, dict) else {}
        if kind == "span" and name == "sim.phase":
            fold = self._phase_folds.setdefault(trace_id, {})
            phase = str(attrs.get("phase", len(fold)))
            entry = fold.setdefault(phase, [0, 0])
            entry[0] += 1
            entry[1] += int(record.get("dur_ns", 0))  # type: ignore[call-overload]
        elif kind == "event" and name.startswith("migration."):
            self._migrations.append((
                trace_id, seq, record.get("t_ns"), name,
                attrs.get("policy"), attrs.get("phase"),
                attrs.get("region"), attrs.get("pages"),
                attrs.get("source"), attrs.get("destination"),
                attrs.get("rule"), _compact(attrs) if attrs else None,
            ))

    def finish_trace(self, trace_id: int) -> None:
        """Materialize the trace's phase fold and final record count."""
        self._guard()
        fold = self._phase_folds.pop(trace_id, {})
        for phase, (count, total_ns) in fold.items():
            self._phase_metrics.append((trace_id, phase, count, total_ns))
        with self._conn:
            self._conn.execute(
                "UPDATE traces SET n_records = ? WHERE trace_id = ?",
                (self._trace_records.pop(trace_id, 0), trace_id),
            )
        self._trace_seq.pop(trace_id, None)
