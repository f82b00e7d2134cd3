"""Pluggable emission backends of the obs pipeline.

Three sinks cover every use: :class:`NullSink` (the disabled pipeline;
every method is a no-op), :class:`MemorySink` (tests and the worker-side
capture buffer), and :class:`JsonlSink` (runs; one JSON object per line,
flushed per record so forked workers never inherit buffered bytes). A
JSONL trace enters the results & trace store through ``starnuma store
ingest`` (docs/store.md).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union


class Sink:
    """Interface: receives schema records, owns its own resources."""

    def emit(self, record: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class NullSink(Sink):
    """Swallows everything; the disabled pipeline's backend."""

    def emit(self, record: Dict[str, object]) -> None:
        pass


class MemorySink(Sink):
    """Keeps records in a list -- the test and capture backend."""

    def __init__(self,
                 records: Optional[List[Dict[str, object]]] = None) -> None:
        self.records: List[Dict[str, object]] = (
            records if records is not None else []
        )

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        return [record for record in self.records
                if record.get("kind") == kind]

    def named(self, name: str) -> List[Dict[str, object]]:
        return [record for record in self.records
                if record.get("name") == name]


class JsonlSink(Sink):
    """Appends one compact JSON object per record to a file.

    Records are written with sorted keys (deterministic field order) and
    flushed immediately: a sweep that forks workers right after a write
    must not leave half a line in a buffer both processes would flush.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, record: Dict[str, object]) -> None:
        if self._handle.closed:
            raise ValueError(f"JSONL sink {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True,
                                      separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
