"""Schema lifecycle: versions ledger, WAL mode, refusal semantics."""

import sqlite3

import pytest

from repro.store import STORE_SCHEMA_VERSION, StoreSchemaError, open_store
from repro.store.schema import ensure_schema, schema_versions


class TestOpenStore:
    def test_creates_versioned_schema(self, tmp_path):
        conn = open_store(tmp_path / "s.sqlite")
        versions = schema_versions(conn)
        conn.close()
        assert versions == {"obs_schema": "1",
                            "store_schema": str(STORE_SCHEMA_VERSION)}

    def test_wal_mode_and_busy_timeout_armed(self, tmp_path):
        conn = open_store(tmp_path / "s.sqlite")
        assert conn.execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute(
            "PRAGMA busy_timeout").fetchone()[0] == 10_000
        conn.close()

    def test_reopen_is_idempotent(self, tmp_path):
        db = tmp_path / "s.sqlite"
        open_store(db).close()
        conn = open_store(db)
        ensure_schema(conn)
        conn.close()

    def test_readonly_refuses_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store(tmp_path / "missing.sqlite", readonly=True)

    def test_readonly_refuses_foreign_sqlite_file(self, tmp_path):
        db = tmp_path / "foreign.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError, match="not a results store"):
            open_store(db, readonly=True)

    def test_readonly_cannot_write(self, tmp_path):
        db = tmp_path / "s.sqlite"
        open_store(db).close()
        conn = open_store(db, readonly=True)
        with pytest.raises(sqlite3.OperationalError):
            conn.execute("INSERT INTO store_meta VALUES ('x', 'y')")
        conn.close()


class TestVersionMismatch:
    def test_future_obs_schema_refused_with_one_line(self, tmp_path):
        db = tmp_path / "s.sqlite"
        conn = open_store(db)
        with conn:
            conn.execute("UPDATE store_meta SET value = '999' "
                         "WHERE key = 'obs_schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="obs_schema '999'"):
            open_store(db)

    def test_future_store_schema_refused(self, tmp_path):
        db = tmp_path / "s.sqlite"
        conn = open_store(db)
        with conn:
            conn.execute("UPDATE store_meta SET value = '999' "
                         "WHERE key = 'store_schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="store_schema '999'"):
            open_store(db)
