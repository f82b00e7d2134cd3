"""Microbenchmark of store ingestion throughput.

Measures appending one synthetic 20k-record obs trace into a fresh
store two ways: through the buffered batch writer (the shipping path --
rows accumulate in memory and land ``batch_size`` at a time in single
transactions) and row-at-a-time (every row its own transaction, the
naive baseline the buffer exists to beat). ``docs/store.md`` quotes the
ratio; the acceptance bar is the buffered path winning severalfold
(under WAL with ``synchronous=NORMAL`` a per-row commit is cheap but
still pays a journal round trip per record).

    PYTHONPATH=src python -m pytest benchmarks/test_bench_store.py \
        --benchmark-json bench-store.json
"""

import itertools

import pytest

from repro.store import StoreWriter
from repro.store.schema import INSERT_OBS_RECORD, connect, ensure_schema
from repro.store.writer import record_to_row

N_RECORDS = 20_000


@pytest.fixture(scope="module")
def records():
    """One synthetic trace: the span/event mix a real sweep emits."""
    out = []
    phases = itertools.cycle(range(12))
    for index in range(N_RECORDS):
        phase = next(phases)
        if index % 4 == 0:
            out.append({"kind": "span", "name": "sim.phase",
                        "t_ns": index * 10, "dur_ns": 1000,
                        "attrs": {"phase": phase}})
        else:
            out.append({"kind": "event", "name": "migration.decision",
                        "t_ns": index * 10,
                        "attrs": {"phase": phase, "pages": 64,
                                  "policy": "starnuma"}})
    return out


def test_bench_ingest_buffered(records, tmp_path_factory, benchmark):
    def ingest():
        db = tmp_path_factory.mktemp("buffered") / "s.sqlite"
        with StoreWriter(db) as writer:
            trace = writer.begin_trace(source="bench")
            for record in records:
                writer.add_obs_record(trace, record)
            writer.finish_trace(trace)
        return db

    db = benchmark.pedantic(ingest, rounds=3, iterations=1)
    conn = connect(db, readonly=True)
    assert conn.execute(
        "SELECT COUNT(*) FROM obs_records").fetchone()[0] == N_RECORDS
    conn.close()


def test_bench_ingest_row_at_a_time(records, tmp_path_factory, benchmark):
    def ingest():
        db = tmp_path_factory.mktemp("rowwise") / "s.sqlite"
        conn = connect(db)
        ensure_schema(conn)
        with conn:
            cursor = conn.execute(
                "INSERT INTO traces (source) VALUES ('bench')")
        trace_id = cursor.lastrowid
        for seq, record in enumerate(records, start=1):
            with conn:  # one transaction per row: the naive baseline
                conn.execute(INSERT_OBS_RECORD,
                             record_to_row(trace_id, seq, record))
        conn.close()
        return db

    db = benchmark.pedantic(ingest, rounds=1, iterations=1)
    conn = connect(db, readonly=True)
    assert conn.execute(
        "SELECT COUNT(*) FROM obs_records").fetchone()[0] == N_RECORDS
    conn.close()
