"""Summarize an obs trace: phase timeline plus per-metric tables.

:func:`summarize_records` is the one fold behind ``starnuma obs
summary``: a JSONL trace streams into it line by line, and a store
(:func:`repro.store.query.summarize_store`) reads its records back
into it row by row.

The rendering core is :mod:`repro.metrics.ascii_chart` (the same bars
``starnuma run fig8`` prints) plus the project's monospace table
formatter, so ``starnuma obs summary`` needs no plotting stack.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.metrics.ascii_chart import bar_chart
from repro.metrics.report import format_table

#: Span name whose instances form the phase timeline.
PHASE_SPAN = "sim.phase"


def iter_trace(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Yield the records of a JSONL trace one line at a time.

    This is the streaming entry point ``starnuma obs summary`` folds
    through: memory stays bounded by the summary state, not the trace
    size, so a multi-gigabyte sweep trace summarizes in constant space.
    Invalid JSON raises, exactly as :func:`read_trace` would.
    """
    with open(Path(path), encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse every record of a JSONL trace (invalid lines raise).

    Materializes the whole trace; prefer :func:`iter_trace` plus
    :func:`summarize_records` when only the summary is needed.
    """
    return list(iter_trace(path))


def summarize_records(
        records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Fold records into the structures :func:`render_summary` prints.

    Accepts any iterable -- a list, :func:`iter_trace`, or records read
    back from a store -- and holds only the folded state (per-name
    span/event aggregates, the phase timeline, and metric summary
    records), never the records themselves.

    The first ``meta`` header names the fold. Metric records that share
    a name (several traces' sessions folded together) merge: counters
    sum, gauges keep the last value and sum ``samples``, histograms
    with equal edges sum their buckets; a histogram whose edges differ
    keeps its first summary. Metrics come back sorted by name.
    """
    meta: Dict[str, object] = {}
    spans: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
    phase_ns: "OrderedDict[object, float]" = OrderedDict()
    events: "OrderedDict[str, int]" = OrderedDict()
    metrics: Dict[str, Dict[str, object]] = {}
    n_records = 0

    for record in records:
        n_records += 1
        kind = record.get("kind")
        if kind == "meta":
            meta = meta or record
        elif kind == "span":
            name = str(record.get("name"))
            entry = spans.setdefault(
                name, {"count": 0, "total_ns": 0.0}
            )
            entry["count"] += 1
            entry["total_ns"] += float(record.get("dur_ns", 0))
            if name == PHASE_SPAN:
                attrs = record.get("attrs") or {}
                phase = attrs.get("phase", len(phase_ns))
                phase_ns[phase] = (phase_ns.get(phase, 0.0)
                                   + float(record.get("dur_ns", 0)))
        elif kind == "event":
            name = str(record.get("name"))
            events[name] = events.get(name, 0) + 1
        elif kind == "metric":
            _merge_metric(metrics, record)

    return {
        "meta": meta,
        "n_records": n_records,
        "spans": spans,
        "phase_ns": phase_ns,
        "events": events,
        "metrics": [metrics[name] for name in sorted(metrics)],
    }


def _merge_metric(folded: Dict[str, Dict[str, object]],
                  record: Dict[str, object]) -> None:
    name = str(record.get("name"))
    existing = folded.get(name)
    if existing is None:
        folded[name] = dict(record)
        return
    metric_type = record.get("type")
    if metric_type == "counter":
        existing["value"] = (float(existing.get("value", 0.0))  # type: ignore[arg-type]
                             + float(record.get("value", 0.0)))  # type: ignore[arg-type]
    elif metric_type == "gauge":
        existing["value"] = record.get("value")
        existing["samples"] = (int(existing.get("samples", 0))  # type: ignore[call-overload]
                               + int(record.get("samples", 0)))  # type: ignore[call-overload]
    elif metric_type == "histogram":
        if existing.get("edges") == record.get("edges"):
            buckets = [int(a) + int(b) for a, b in
                       zip(existing.get("buckets", []),  # type: ignore[arg-type]
                           record.get("buckets", []))]  # type: ignore[arg-type]
            existing["buckets"] = buckets
            existing["count"] = (int(existing.get("count", 0))  # type: ignore[call-overload]
                                 + int(record.get("count", 0)))  # type: ignore[call-overload]
            existing["total"] = (float(existing.get("total", 0.0))  # type: ignore[arg-type]
                                 + float(record.get("total", 0.0)))  # type: ignore[arg-type]


def _format_ms(ns: float) -> float:
    return ns / 1e6


def render_summary(summary: Dict[str, object], width: int = 40) -> str:
    """The text report of ``starnuma obs summary``."""
    parts: List[str] = []
    meta = summary["meta"]
    parts.append(
        f"[obs] {summary['n_records']} records, level "
        f"{meta.get('level', '?')}, schema {meta.get('schema', '?')}"
    )

    phase_ns: Dict[object, float] = summary["phase_ns"]  # type: ignore
    if phase_ns:
        items: List[Tuple[str, float]] = [
            (f"phase {phase}", _format_ms(total))
            for phase, total in sorted(phase_ns.items(),
                                       key=lambda kv: str(kv[0]))
        ]
        parts.append("")
        parts.append(bar_chart(items, width=width,
                               title="phase timeline (eval ms):",
                               unit=" ms", max_label=24))

    spans: Dict[str, Dict[str, float]] = summary["spans"]  # type: ignore
    if spans:
        rows = [
            (name, int(entry["count"]), _format_ms(entry["total_ns"]),
             _format_ms(entry["total_ns"] / entry["count"]))
            for name, entry in sorted(spans.items())
        ]
        parts.append("")
        parts.append(format_table(
            ("span", "count", "total ms", "mean ms"), rows,
            title="spans:",
        ))

    events: Dict[str, int] = summary["events"]  # type: ignore
    if events:
        rows = [(name, count) for name, count in sorted(events.items())]
        parts.append("")
        parts.append(format_table(("event", "count"), rows,
                                  title="events:"))

    metrics: List[Dict[str, object]] = summary["metrics"]  # type: ignore
    if metrics:
        rows = []
        for metric in sorted(metrics, key=lambda m: str(m.get("name"))):
            if metric.get("type") == "histogram":
                count = int(metric.get("count", 0))
                total = float(metric.get("total", 0.0))
                mean = total / count if count else 0.0
                rows.append((metric["name"], "histogram",
                             f"n={count} mean={mean:.2f}"))
            else:
                rows.append((metric["name"], str(metric.get("type")),
                             f"{float(metric.get('value', 0.0)):g}"))
        parts.append("")
        parts.append(format_table(("metric", "type", "value"), rows,
                                  title="metrics:"))

    return "\n".join(parts)
