"""Bring finished artifacts into the store: ``starnuma store ingest``.

This is the only way rows get in. Two artifact shapes land here:

* **JSONL obs traces** (``--obs-trace foo.jsonl`` output) stream in
  line by line -- the file is never materialized -- through
  :meth:`StoreWriter.add_obs_record`, which fills ``obs_records`` and
  the derived ``phase_metrics``/``migration_decisions`` tables as it
  goes.
* **Export directories** (``starnuma export --out DIR``): the
  ``manifest.json`` becomes a ``sweeps`` row and every result
  ``<id>.json`` a ``runs``/``run_rows``/``run_metrics`` group. A JSONL
  obs trace the manifest points at is ingested alongside.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.obs.summary import iter_trace
from repro.store.schema import is_sqlite_path
from repro.store.writer import StoreWriter

#: Files of an export directory that are not result tables.
_NON_RESULT_FILES = ("manifest.json", "checkpoint.json")


class StoreIngestError(ValueError):
    """An artifact cannot be ingested (shape, duplicate label, ...)."""


def _unique_label(conn: sqlite3.Connection, table: str, column: str,
                  label: str) -> None:
    row = conn.execute(
        f"SELECT 1 FROM {table} WHERE {column} = ?", (label,)
    ).fetchone()
    if row is not None:
        raise StoreIngestError(
            f"{table[:-1]} label {label!r} already exists in the store; "
            f"pick another with --label"
        )


def ingest_trace(writer: StoreWriter, path: Path,
                 label: Optional[str] = None) -> int:
    """Stream one JSONL obs trace into the store; returns ``trace_id``."""
    label = label or path.name
    trace_id = writer.begin_trace(source=str(path), label=label)
    for record in iter_trace(path):
        writer.add_obs_record(trace_id, record)
    writer.finish_trace(trace_id)
    return trace_id


def ingest_export_dir(writer: StoreWriter, directory: Path,
                      label: Optional[str] = None) -> int:
    """Ingest one export directory; returns ``sweep_id``.

    The manifest is optional (a directory of bare result JSON files
    still ingests); result files are every ``*.json`` that parses to
    the exported ``{experiment, notes, headers, rows}`` shape.
    """
    label = label or directory.resolve().name
    _unique_label(writer.connection, "sweeps", "label", label)
    manifest: Dict[str, object] = {}
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        loaded = json.loads(manifest_path.read_text(encoding="utf-8"))
        if isinstance(loaded, dict):
            manifest = loaded
    sweep_id = writer.begin_sweep(label, source=str(directory),
                                  manifest=manifest)
    n_results = 0
    for result_path in sorted(directory.glob("*.json")):
        if result_path.name in _NON_RESULT_FILES:
            continue
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreIngestError(
                f"{result_path} is not valid JSON: {exc}") from exc
        if not isinstance(result, dict) or "headers" not in result \
                or "rows" not in result:
            continue  # some other JSON artifact riding along
        writer.add_result(sweep_id, result)
        n_results += 1
    if n_results == 0:
        raise StoreIngestError(
            f"{directory} holds no exported result tables "
            f"(no *.json with headers/rows)"
        )
    trace_ref = manifest.get("obs_trace")
    if isinstance(trace_ref, str):
        trace_path = Path(trace_ref)
        if not trace_path.is_absolute():
            trace_path = directory / trace_path
        if trace_path.exists() and not is_sqlite_path(trace_path):
            ingest_trace(writer, trace_path, label=f"{label}:obs")
    return sweep_id


def ingest_path(writer: StoreWriter, path: Path,
                label: Optional[str] = None) -> Tuple[str, int]:
    """Dispatch one artifact path; returns ("sweep"|"trace", id)."""
    if path.is_dir():
        return ("sweep", ingest_export_dir(writer, path, label=label))
    if path.is_file():
        if is_sqlite_path(path):
            raise StoreIngestError(
                f"{path} is already a sqlite store; point --db at it "
                f"instead of ingesting it"
            )
        return ("trace", ingest_trace(writer, path, label=label))
    raise StoreIngestError(f"no such artifact: {path}")
