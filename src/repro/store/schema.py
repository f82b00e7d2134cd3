"""The store's on-disk format: one sqlite file, two schema halves.

The obs half holds what ``starnuma store ingest`` writes for a JSONL
trace:

``store_meta``
    The schema-version ledger (``obs_schema`` for the obs half,
    ``store_schema`` for the results half); a mismatch refuses with
    one line rather than guessing at a layout.
``traces`` / ``obs_records``
    One row per ingested trace (its ``meta`` header typed out), and
    every other record of it as one typed row, in emission order.

The results half adds the result tables and the derived index tables:

``sweeps``
    One ingested export directory: the manifest's identity fields plus
    its full JSON. ``label`` is unique -- queries name sweeps by label
    or id.
``runs`` / ``run_rows``
    One experiment result table per row of ``runs`` (headers + notes),
    with every result row stored verbatim as a JSON cell list in
    ``run_rows`` -- ``starnuma query table`` reproduces the exported
    JSON byte-for-value from these.
``run_metrics``
    The same rows exploded long-form: one (scenario, metric, value)
    row per numeric cell, which is what cross-sweep joins (diffs,
    top-N regressions) select on.
``phase_metrics``
    The materialized per-phase fold of ``sim.phase`` spans -- the
    index the timeline query reads.
``migration_decisions``
    Per-decision migration provenance (``migration.*`` events)
    extracted from the record log with its discriminating columns
    typed out.

Databases are opened in WAL mode with a busy timeout, so concurrent
writers (two sweep processes ingesting traces) serialize on the write
lock instead of surfacing ``database is locked`` to callers.
"""

from __future__ import annotations

import sqlite3
import urllib.parse
from pathlib import Path
from typing import Dict, Tuple, Union

#: Version of the obs half of the schema (``store_meta`` key
#: ``obs_schema``).
OBS_STORE_SCHEMA_VERSION = 1

#: Version of the results half of the schema (``store_meta`` key
#: ``store_schema``).
STORE_SCHEMA_VERSION = 1

#: Default busy timeout: how long a writer waits on the WAL write lock
#: before sqlite gives up (never surfaced in normal operation).
DEFAULT_BUSY_TIMEOUT_S = 10.0

#: Path suffixes the CLI treats as "this path is a sqlite store".
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: The 16-byte magic prefix of every sqlite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

CORE_DDL: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS store_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS traces (
        trace_id       INTEGER PRIMARY KEY AUTOINCREMENT,
        label          TEXT,
        source         TEXT NOT NULL,
        level          TEXT,
        schema_version INTEGER,
        clock          TEXT,
        n_records      INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS obs_records (
        trace_id    INTEGER NOT NULL,
        seq         INTEGER NOT NULL,
        kind        TEXT NOT NULL,
        name        TEXT,
        t_ns        INTEGER,
        dur_ns      INTEGER,
        metric_type TEXT,
        value       REAL,
        attrs       TEXT,
        payload     TEXT,
        PRIMARY KEY (trace_id, seq)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_obs_records_kind_name
        ON obs_records (trace_id, kind, name)
    """,
)

STORE_DDL: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS sweeps (
        sweep_id       INTEGER PRIMARY KEY AUTOINCREMENT,
        label          TEXT NOT NULL UNIQUE,
        source         TEXT NOT NULL,
        schema_version INTEGER,
        seed           INTEGER,
        n_phases       INTEGER,
        warmup_phases  INTEGER,
        git            TEXT,
        manifest       TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        run_id     INTEGER PRIMARY KEY AUTOINCREMENT,
        sweep_id   INTEGER NOT NULL,
        experiment TEXT NOT NULL,
        notes      TEXT,
        headers    TEXT NOT NULL,
        n_rows     INTEGER NOT NULL DEFAULT 0,
        UNIQUE (sweep_id, experiment)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS run_rows (
        run_id    INTEGER NOT NULL,
        row_index INTEGER NOT NULL,
        scenario  TEXT NOT NULL,
        data      TEXT NOT NULL,
        PRIMARY KEY (run_id, row_index)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS run_metrics (
        run_id    INTEGER NOT NULL,
        row_index INTEGER NOT NULL,
        scenario  TEXT NOT NULL,
        metric    TEXT NOT NULL,
        value     REAL NOT NULL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_run_metrics_lookup
        ON run_metrics (run_id, metric, scenario)
    """,
    """
    CREATE TABLE IF NOT EXISTS phase_metrics (
        trace_id     INTEGER NOT NULL,
        phase        TEXT NOT NULL,
        span_count   INTEGER NOT NULL,
        total_dur_ns INTEGER NOT NULL,
        PRIMARY KEY (trace_id, phase)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS migration_decisions (
        trace_id    INTEGER NOT NULL,
        seq         INTEGER NOT NULL,
        t_ns        INTEGER,
        name        TEXT NOT NULL,
        policy      TEXT,
        phase       INTEGER,
        region      INTEGER,
        pages       INTEGER,
        source      TEXT,
        destination TEXT,
        rule        TEXT,
        attrs       TEXT,
        PRIMARY KEY (trace_id, seq)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_migration_decisions_name
        ON migration_decisions (trace_id, name)
    """,
)

INSERT_OBS_RECORD = (
    "INSERT INTO obs_records (trace_id, seq, kind, name, t_ns, dur_ns, "
    "metric_type, value, attrs, payload) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)
INSERT_RUN_ROW = (
    "INSERT INTO run_rows (run_id, row_index, scenario, data) "
    "VALUES (?, ?, ?, ?)"
)
INSERT_RUN_METRIC = (
    "INSERT INTO run_metrics (run_id, row_index, scenario, metric, value) "
    "VALUES (?, ?, ?, ?, ?)"
)
INSERT_PHASE_METRIC = (
    "INSERT INTO phase_metrics (trace_id, phase, span_count, total_dur_ns) "
    "VALUES (?, ?, ?, ?)"
)
INSERT_MIGRATION_DECISION = (
    "INSERT INTO migration_decisions (trace_id, seq, t_ns, name, policy, "
    "phase, region, pages, source, destination, rule, attrs) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


#: Column order every record-reading SELECT must use with
#: :func:`repro.store.writer.row_to_record`.
OBS_RECORD_COLUMNS = ("kind", "name", "t_ns", "dur_ns", "metric_type",
                      "value", "attrs", "payload")

SELECT_OBS_RECORDS = (
    "SELECT " + ", ".join(OBS_RECORD_COLUMNS)
    + " FROM obs_records WHERE trace_id = ? ORDER BY seq"
)


class StoreSchemaError(ValueError):
    """The database's recorded schema is not one this code reads."""


def is_sqlite_path(path: Union[str, Path]) -> bool:
    """True when ``path`` is (or would be taken for) a sqlite store.

    An existing file answers by its magic bytes; a missing one by its
    suffix (``.sqlite``/``.sqlite3``/``.db``).
    """
    target = Path(path)
    try:
        with open(target, "rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return target.suffix.lower() in SQLITE_SUFFIXES


def connect(path: Union[str, Path], *, readonly: bool = False,
            busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
            ) -> sqlite3.Connection:
    """Open a store database: WAL mode, busy timeout armed.

    ``readonly`` opens with sqlite's ``mode=ro`` so queries can never
    create or mutate a store by accident.
    """
    target = Path(path)
    if readonly:
        if not target.is_file():
            raise FileNotFoundError(f"no such store: {target}")
        uri = "file:" + urllib.parse.quote(str(target)) + "?mode=ro"
        conn = sqlite3.connect(uri, uri=True, timeout=busy_timeout_s)
    else:
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(target), timeout=busy_timeout_s)
        # WAL lets a reader summarize a store mid-ingest and lets two
        # sweep processes append traces without blocking each other.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000.0)}")
    return conn


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create both schema halves; verify their recorded versions."""
    ledger = (("obs_schema", OBS_STORE_SCHEMA_VERSION),
              ("store_schema", STORE_SCHEMA_VERSION))
    with conn:
        for statement in CORE_DDL + STORE_DDL:
            conn.execute(statement)
        for key, version in ledger:
            conn.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) "
                "VALUES (?, ?)", (key, str(version)))
    recorded = schema_versions(conn)
    for key, version in ledger:
        if recorded.get(key) != str(version):
            raise StoreSchemaError(
                f"store records {key} {recorded.get(key)!r}; this "
                f"version reads {version} -- refusing to guess at an "
                f"unknown layout"
            )


def schema_versions(conn: sqlite3.Connection) -> Dict[str, str]:
    """Every ``store_meta`` schema ledger entry, keyed by name."""
    return {
        str(key): str(value)
        for key, value in conn.execute(
            "SELECT key, value FROM store_meta ORDER BY key"
        )
    }


def open_store(path: Union[str, Path], *, readonly: bool = False,
               busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
               ) -> sqlite3.Connection:
    """Open (creating if needed) a store with the full schema applied.

    ``readonly`` skips schema creation -- the file must already be a
    store; a bare sqlite file without the ledger is refused.
    """
    conn = connect(path, readonly=readonly, busy_timeout_s=busy_timeout_s)
    if readonly:
        ledger = conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name = 'store_meta'"
        ).fetchone()
        if ledger is None:
            conn.close()
            raise StoreSchemaError(
                f"{path} is a sqlite file but not a results store "
                f"(no store_meta schema ledger)"
            )
        return conn
    ensure_schema(conn)
    return conn
