"""Trace persistence and ingestion.

The paper's Step A writes per-thread instruction and memory traces to
files; this module provides the equivalent on-disk format so traces can
be generated once and reused, or imported from an external tracer (e.g. a
Pin tool) instead of the synthesizer:

* :func:`save_phase_traces` / :func:`load_phase_traces` -- a compressed
  ``.npz`` bundle of per-phase count matrices plus metadata;
* :func:`records_to_phase_trace` -- aggregate raw per-access records
  (socket, page, is_write) into the phase counts the pipeline consumes,
  which is all an external tracer needs to produce.

On disk a phase is a dense int64 matrix (format v1); in memory it is
sparse, indexed by the matrix's own nonzeros, so loading needs no
population.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from repro.trace.records import PhaseTrace, TraceRecord

_FORMAT_VERSION = 1


def save_phase_traces(traces: List[PhaseTrace],
                      path: Union[str, Path]) -> None:
    """Write a phase-trace bundle as compressed ``.npz``."""
    if not traces:
        raise ValueError("need at least one phase trace")
    shapes = {trace.index.shape for trace in traces}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent count shapes: {shapes}")
    arrays = {f"counts_{trace.phase}": trace.dense() for trace in traces}
    arrays["phases"] = np.array([trace.phase for trace in traces],
                                dtype=np.int64)
    arrays["instructions"] = np.array(
        [trace.instructions_per_thread for trace in traces], dtype=np.int64
    )
    arrays["version"] = np.array([_FORMAT_VERSION], dtype=np.int64)
    np.savez_compressed(Path(path), **arrays)


def load_phase_traces(path: Union[str, Path]) -> List[PhaseTrace]:
    """Read a bundle written by :func:`save_phase_traces`."""
    with np.load(Path(path)) as bundle:
        version = int(bundle["version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace bundle version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        phases = bundle["phases"]
        instructions = bundle["instructions"]
        traces = [
            PhaseTrace.from_dense(int(phase),
                                  bundle[f"counts_{int(phase)}"],
                                  int(instr))
            for phase, instr in zip(phases, instructions)
        ]
    traces.sort(key=lambda trace: trace.phase)
    return traces


def records_to_phase_trace(records: Iterable[TraceRecord], n_sockets: int,
                           n_pages: int, instructions_per_thread: int,
                           phase: int = 0) -> PhaseTrace:
    """Aggregate raw access records into one phase's counts.

    This is the ingestion point for external tracers: anything that can
    emit (socket, page) pairs for LLC-missing accesses can drive the
    pipeline.
    """
    counts = np.zeros((n_sockets, n_pages), dtype=np.int64)
    for record in records:
        if not 0 <= record.socket < n_sockets:
            raise ValueError(f"record socket {record.socket} out of range")
        if not 0 <= record.page < n_pages:
            raise ValueError(f"record page {record.page} out of range")
        counts[record.socket, record.page] += 1
    return PhaseTrace.from_dense(phase, counts, instructions_per_thread)
