"""Read-side queries over the store: the engine behind ``starnuma query``.

Every function takes an open connection (see
:func:`repro.store.schema.open_store`) and returns plain
``(headers, rows)`` tables or dicts -- rendering is the CLI's job, so
this module needs no formatting stack and the service layer can reuse
it verbatim.

Sweeps and traces are referenced by integer id or by label; a bare
string that parses as an int is treated as an id.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.summary import summarize_records
from repro.store.schema import SELECT_OBS_RECORDS
from repro.store.writer import row_to_record, trace_meta_record

#: A reference to a sweep or trace: row id, or label.
Ref = Union[int, str]

#: (headers, rows) -- the shape every tabular query returns.
Table = Tuple[Tuple[str, ...], List[Tuple[object, ...]]]


class QueryError(ValueError):
    """The query cannot be answered (unknown sweep, missing table...)."""


def _has_table(conn: sqlite3.Connection, name: str) -> bool:
    return conn.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
        (name,),
    ).fetchone() is not None


def _require_results(conn: sqlite3.Connection) -> None:
    if not _has_table(conn, "sweeps"):
        raise QueryError(
            "store has no results tables yet; ingest an export "
            "directory first (starnuma store ingest --db DB DIR)"
        )


def resolve_sweep(conn: sqlite3.Connection, ref: Optional[Ref]) -> int:
    """A sweep reference -> ``sweep_id`` (None picks the only sweep)."""
    _require_results(conn)
    if ref is None:
        rows = conn.execute(
            "SELECT sweep_id, label FROM sweeps ORDER BY sweep_id"
        ).fetchall()
        if len(rows) == 1:
            return int(rows[0][0])
        labels = ", ".join(str(row[1]) for row in rows) or "none ingested"
        raise QueryError(
            f"store holds {len(rows)} sweeps ({labels}); pick one with "
            f"--sweep"
        )
    row = None
    text = str(ref)
    if text.isdigit():
        row = conn.execute(
            "SELECT sweep_id FROM sweeps WHERE sweep_id = ?", (int(text),)
        ).fetchone()
    if row is None:
        row = conn.execute(
            "SELECT sweep_id FROM sweeps WHERE label = ?", (text,)
        ).fetchone()
    if row is None:
        raise QueryError(f"no such sweep: {ref!r}")
    return int(row[0])


def resolve_trace(conn: sqlite3.Connection, ref: Optional[Ref]
                  ) -> Optional[int]:
    """A trace reference -> ``trace_id`` (None means every trace)."""
    if ref is None:
        return None
    row = None
    text = str(ref)
    if text.isdigit():
        row = conn.execute(
            "SELECT trace_id FROM traces WHERE trace_id = ?", (int(text),)
        ).fetchone()
    if row is None:
        row = conn.execute(
            "SELECT trace_id FROM traces WHERE label = ?", (text,)
        ).fetchone()
    if row is None:
        raise QueryError(f"no such trace: {ref!r}")
    return int(row[0])


# -- catalog ----------------------------------------------------------------

def list_sweeps(conn: sqlite3.Connection) -> Table:
    """Every sweep with its run count."""
    _require_results(conn)
    headers = ("sweep", "label", "seed", "phases", "runs", "source")
    rows = [tuple(row) for row in conn.execute(
        "SELECT s.sweep_id, s.label, s.seed, s.n_phases, "
        "       (SELECT COUNT(*) FROM runs r WHERE r.sweep_id = "
        "        s.sweep_id), s.source "
        "FROM sweeps s ORDER BY s.sweep_id"
    )]
    return headers, rows


def list_traces(conn: sqlite3.Connection) -> Table:
    """Every obs trace with its record count."""
    headers = ("trace", "label", "level", "records", "source")
    rows = [tuple(row) for row in conn.execute(
        "SELECT trace_id, label, level, n_records, source "
        "FROM traces ORDER BY trace_id"
    )]
    return headers, rows


def list_runs(conn: sqlite3.Connection,
              sweep: Optional[Ref] = None) -> Table:
    """Every result table of one sweep (or all sweeps)."""
    _require_results(conn)
    headers = ("sweep", "experiment", "rows", "notes")
    sql = ("SELECT s.label, r.experiment, r.n_rows, r.notes "
           "FROM runs r JOIN sweeps s ON s.sweep_id = r.sweep_id ")
    params: Tuple[object, ...] = ()
    if sweep is not None:
        sql += "WHERE r.sweep_id = ? "
        params = (resolve_sweep(conn, sweep),)
    sql += "ORDER BY r.sweep_id, r.experiment"
    return headers, [tuple(row) for row in conn.execute(sql, params)]


# -- exact result tables ----------------------------------------------------

def run_table(conn: sqlite3.Connection, sweep: Optional[Ref],
              experiment: str) -> Dict[str, object]:
    """One stored result, in the exported-JSON shape, byte-for-value.

    Returns ``{experiment, notes, headers, rows}`` exactly as the
    ``<id>.json`` export carried it -- rows come back from the verbatim
    JSON cells, not the long-form metric explosion.
    """
    sweep_id = resolve_sweep(conn, sweep)
    run = conn.execute(
        "SELECT run_id, notes, headers FROM runs "
        "WHERE sweep_id = ? AND experiment = ?",
        (sweep_id, experiment),
    ).fetchone()
    if run is None:
        known = [str(row[0]) for row in conn.execute(
            "SELECT experiment FROM runs WHERE sweep_id = ? "
            "ORDER BY experiment", (sweep_id,))]
        raise QueryError(
            f"sweep has no experiment {experiment!r} "
            f"(has: {', '.join(known) or 'none'})"
        )
    run_id, notes, headers_json = run
    rows = [json.loads(str(data)) for (data,) in conn.execute(
        "SELECT data FROM run_rows WHERE run_id = ? ORDER BY row_index",
        (run_id,),
    )]
    return {
        "experiment": experiment,
        "notes": notes,
        "headers": json.loads(str(headers_json)),
        "rows": rows,
    }


def _column(table: Dict[str, object], name: str) -> int:
    headers = table["headers"]
    assert isinstance(headers, list)
    if name not in headers:
        raise QueryError(
            f"experiment {table['experiment']!r} has no column {name!r} "
            f"(has: {', '.join(map(str, headers))})"
        )
    return headers.index(name)


# -- analysis ---------------------------------------------------------------

def degradation_curve(conn: sqlite3.Connection, sweep: Optional[Ref],
                      experiment: str = "fault-study",
                      metric: str = "speedup_over_baseline",
                      workload: Optional[str] = None) -> Table:
    """The fault-study degradation curve, straight from the store.

    One row per (workload, severity rung): the metric's value as the
    fault ladder escalates, ordered exactly as the experiment emitted
    it. ``workload`` narrows to one curve.
    """
    table = run_table(conn, sweep, experiment)
    workload_col = _column(table, "workload")
    severity_col = _column(table, "severity")
    scenario_col = _column(table, "scenario")
    value_col = _column(table, metric)
    headers = ("workload", "severity", "scenario", metric)
    rows: List[Tuple[object, ...]] = []
    table_rows = table["rows"]
    assert isinstance(table_rows, list)
    for cells in table_rows:
        if workload is not None and cells[workload_col] != workload:
            continue
        rows.append((cells[workload_col], cells[severity_col],
                     cells[scenario_col], cells[value_col]))
    if workload is not None and not rows:
        raise QueryError(f"no rows for workload {workload!r} in "
                         f"{experiment!r}")
    return headers, rows


def metric_values(conn: sqlite3.Connection, sweep: Ref,
                  experiment: str, metric: str
                  ) -> Dict[str, float]:
    """scenario -> value of one metric column in one sweep (indexed)."""
    sweep_id = resolve_sweep(conn, sweep)
    rows = conn.execute(
        "SELECT m.scenario, m.value FROM run_metrics m "
        "JOIN runs r ON r.run_id = m.run_id "
        "WHERE r.sweep_id = ? AND r.experiment = ? AND m.metric = ? "
        "ORDER BY m.row_index",
        (sweep_id, experiment, metric),
    ).fetchall()
    if not rows:
        raise QueryError(
            f"sweep has no numeric metric {metric!r} for experiment "
            f"{experiment!r}"
        )
    return {str(scenario): float(value) for scenario, value in rows}


def cross_sweep_diff(conn: sqlite3.Connection, sweep_a: Ref, sweep_b: Ref,
                     experiment: str, metric: str) -> Table:
    """Per-scenario values of one metric in two sweeps, with deltas.

    Rows: ``(scenario, a, b, delta, ratio)`` where ``delta = b - a``
    and ``ratio = b / a`` (None when a is 0). Scenarios present in only
    one sweep get a None on the missing side and no delta.
    """
    values_a = metric_values(conn, sweep_a, experiment, metric)
    values_b = metric_values(conn, sweep_b, experiment, metric)
    headers = ("scenario", "a", "b", "delta", "ratio")
    rows: List[Tuple[object, ...]] = []
    for scenario in list(values_a) + [key for key in values_b
                                      if key not in values_a]:
        a = values_a.get(scenario)
        b = values_b.get(scenario)
        if a is None or b is None:
            rows.append((scenario, a, b, None, None))
            continue
        rows.append((scenario, a, b, b - a, (b / a) if a else None))
    return headers, rows


def top_regressions(conn: sqlite3.Connection, sweep_a: Ref, sweep_b: Ref,
                    top: int = 10, experiment: Optional[str] = None,
                    metric: Optional[str] = None) -> Table:
    """The N largest relative drops from sweep A to sweep B.

    Joins every (experiment, scenario, metric) cell present in both
    sweeps and ranks by relative drop ``(a - b) / |a|`` -- for
    speedup-shaped metrics that is exactly "which scenarios regressed".
    ``experiment``/``metric`` narrow the join.
    """
    if top < 1:
        raise QueryError(f"top must be >= 1, got {top}")
    id_a = resolve_sweep(conn, sweep_a)
    id_b = resolve_sweep(conn, sweep_b)
    sql = (
        "SELECT ra.experiment, ma.scenario, ma.metric, ma.value, mb.value "
        "FROM run_metrics ma "
        "JOIN runs ra ON ra.run_id = ma.run_id AND ra.sweep_id = ? "
        "JOIN runs rb ON rb.sweep_id = ? AND rb.experiment = ra.experiment "
        "JOIN run_metrics mb ON mb.run_id = rb.run_id "
        "     AND mb.scenario = ma.scenario AND mb.metric = ma.metric "
    )
    params: List[object] = [id_a, id_b]
    clauses = []
    if experiment is not None:
        clauses.append("ra.experiment = ?")
        params.append(experiment)
    if metric is not None:
        clauses.append("ma.metric = ?")
        params.append(metric)
    if clauses:
        sql += "WHERE " + " AND ".join(clauses) + " "
    ranked: List[Tuple[object, ...]] = []
    for exp, scenario, name, a, b in conn.execute(sql, params):
        a = float(a)
        b = float(b)
        drop = (a - b) / abs(a) if a else 0.0
        ranked.append((exp, scenario, name, a, b, drop))
    ranked.sort(key=lambda row: (-float(row[5]), row[0], row[1], row[2]))  # type: ignore[arg-type]
    headers = ("experiment", "scenario", "metric", "a", "b", "drop")
    return headers, ranked[:top]


# -- obs-side queries -------------------------------------------------------

def _phase_fold(conn: sqlite3.Connection, trace_id: Optional[int]
                ) -> List[Tuple[str, int, float]]:
    """Per-phase (phase, span_count, total_ns), in phase order.

    Read from the ``phase_metrics`` index that ``starnuma store
    ingest`` fills as it streams a trace in.
    """
    if not _has_table(conn, "phase_metrics"):
        raise QueryError(
            "store has no phase_metrics index; rebuild it from the JSONL "
            "trace with 'starnuma store ingest'"
        )
    params: Tuple[object, ...] = ()
    clause = ""
    if trace_id is not None:
        clause = "WHERE trace_id = ? "
        params = (trace_id,)
    rows = conn.execute(
        "SELECT phase, SUM(span_count), SUM(total_dur_ns) "
        f"FROM phase_metrics {clause}"
        "GROUP BY phase ORDER BY CAST(phase AS INTEGER), phase",
        params,
    ).fetchall()
    return [(str(phase), int(count), float(total))
            for phase, count, total in rows]


def phase_timeline(conn: sqlite3.Connection,
                   trace: Optional[Ref] = None) -> Table:
    """Per-phase ``sim.phase`` totals: the phase timeline, indexed."""
    trace_id = resolve_trace(conn, trace)
    headers = ("phase", "spans", "total_ms")
    return headers, [
        (phase, count, total_ns / 1e6)
        for phase, count, total_ns in _phase_fold(conn, trace_id)
    ]


def migration_provenance(conn: sqlite3.Connection,
                         trace: Optional[Ref] = None,
                         name: Optional[str] = None,
                         limit: int = 50) -> Table:
    """Per-decision migration provenance rows, newest-phase last."""
    trace_id = resolve_trace(conn, trace)
    clauses = []
    params: List[object] = []
    if trace_id is not None:
        clauses.append("trace_id = ?")
        params.append(trace_id)
    if name is not None:
        clauses.append("name = ?")
        params.append(name)
    sql = ("SELECT trace_id, name, policy, phase, region, pages, "
           "source, destination, rule FROM migration_decisions ")
    if clauses:
        sql += "WHERE " + " AND ".join(clauses) + " "
    sql += "ORDER BY trace_id, seq LIMIT ?"
    params.append(max(1, limit))
    headers = ("trace", "event", "policy", "phase", "region", "pages",
               "source", "destination", "rule")
    return headers, [tuple(row) for row in conn.execute(sql, params)]


#: One ``traces`` row: id, then the ``meta`` header's level/schema/clock.
_TraceRow = Tuple[int, Optional[str], Optional[int], Optional[str]]


def _trace_records(conn: sqlite3.Connection, traces: List[_TraceRow]
                   ) -> Iterator[Dict[str, object]]:
    """Each trace's header, then its records, decoded one row at a time."""
    for trace_id, level, schema_version, clock in traces:
        if (level, schema_version, clock) != (None, None, None):
            yield trace_meta_record(level, schema_version, clock)
        for row in conn.execute(SELECT_OBS_RECORDS, (trace_id,)):
            yield row_to_record(row)


def summarize_store(conn: sqlite3.Connection,
                    trace: Optional[Ref] = None) -> Dict[str, object]:
    """The ``starnuma obs summary`` fold over stored traces.

    Reads the records back through the codec, in ``(trace_id, seq)``
    order with each trace's ``meta`` header first, and folds them with
    :func:`repro.obs.summary.summarize_records` -- the same fold a
    JSONL trace gets, so the two renderings cannot drift apart. With
    ``trace=None`` every trace in the store is folded together, which
    is how a resumed sweep's sessions read as one record set.
    """
    trace_id = resolve_trace(conn, trace)
    sql = "SELECT trace_id, level, schema_version, clock FROM traces "
    params: Tuple[object, ...] = ()
    if trace_id is not None:
        sql += "WHERE trace_id = ? "
        params = (trace_id,)
    traces = conn.execute(sql + "ORDER BY trace_id", params).fetchall()
    if not traces:
        raise QueryError("store holds no obs traces")
    return summarize_records(_trace_records(conn, traces))
