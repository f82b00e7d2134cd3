"""Export experiment results to machine-readable files.

``starnuma export --out results/`` writes every table/figure as JSON and
CSV for downstream plotting, plus a manifest recording the run
parameters. Results are plain rows, so no plotting stack is required
here.

Exports run through :class:`~repro.runner.SweepRunner`: each experiment
is isolated (one crash doesn't kill the sweep), transient errors retry
with backoff, and a ``checkpoint.json`` in the output directory records
completed experiments so an interrupted export resumes with
``--resume DIR`` instead of recomputing everything.
"""

from __future__ import annotations

import csv
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from repro.experiments import EXPERIMENTS
from repro.experiments.context import ExperimentContext, ExperimentResult
from repro.obs import OBS
from repro.runner import RunFailure, SweepCheckpoint, SweepError, SweepRunner

#: Version of the ``manifest.json`` layout written next to every export.
MANIFEST_SCHEMA_VERSION = 2

#: Environment variables consulted (in order) for the source revision;
#: the harness never shells out to git itself, CI injects the answer.
_GIT_ENV_VARS = ("STARNUMA_GIT_DESCRIBE", "GITHUB_SHA")


def _git_describe() -> Optional[str]:
    for variable in _GIT_ENV_VARS:
        value = os.environ.get(variable)
        if value:
            return value
    return None


def _coerce(value):
    """Make one cell JSON-serializable."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def result_to_dict(result: ExperimentResult) -> Dict:
    return {
        "experiment": result.experiment,
        "notes": result.notes,
        "headers": list(result.headers),
        "rows": [[_coerce(cell) for cell in row] for row in result.rows],
    }


def write_result(result: ExperimentResult, out_dir: Path) -> None:
    """Write one experiment as <id>.json and <id>.csv."""
    stem = result.experiment.replace(":", "_")
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(result_to_dict(result), indent=2))
    with open(out_dir / f"{stem}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.headers)
        for row in result.rows:
            writer.writerow([_coerce(cell) for cell in row])


def _flatten(result) -> Iterable[ExperimentResult]:
    """Fig. 8 returns a composite; everything else a single result."""
    if isinstance(result, ExperimentResult):
        yield result
        return
    for attribute in ("speedup", "amat", "breakdown"):
        part = getattr(result, attribute, None)
        if isinstance(part, ExperimentResult):
            yield part


def sweep_params(context: ExperimentContext,
                 selected: List[str]) -> Dict[str, object]:
    """The checkpoint fingerprint of one export sweep."""
    return {
        "seed": context.seed,
        "n_phases": context.n_phases,
        "warmup_phases": context.warmup_phases,
        "workloads": context.workload_names,
        "experiments": selected,
    }


def export_all(out_dir: str, context: Optional[ExperimentContext] = None,
               experiments: Optional[Iterable[str]] = None, *,
               resume: bool = False,
               max_retries: int = 2,
               backoff_s: float = 0.5,
               timeout_s: Optional[float] = None,
               strict: bool = True,
               on_event: Optional[Callable[[str], None]] = None,
               jobs: int = 1,
               ) -> Dict[str, str]:
    """Run and export experiments; return {experiment id: file stem}.

    ``resume=True`` adopts an existing ``checkpoint.json`` in ``out_dir``
    (written by every export) and skips experiments it records as
    completed; the final outputs are identical to an uninterrupted run.
    With ``strict`` (the default) a :class:`~repro.runner.SweepError` is
    raised at the end if any experiment failed after retries; the
    completed ones are exported either way. ``jobs`` > 1 fans the
    experiments out over a process pool (each worker computes and writes
    its own result files; checkpoint and manifest writes stay in this
    process), producing byte-identical outputs to a sequential export.
    """
    context = context or ExperimentContext()
    started_monotonic = time.monotonic()
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    selected = list(experiments) if experiments else sorted(EXPERIMENTS)
    for name in selected:
        if name not in EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}")

    checkpoint = SweepCheckpoint(out_path / "checkpoint.json",
                                 sweep_params(context, selected))
    if resume:
        checkpoint.load()
        if checkpoint.corrupt_quarantined is not None and on_event:
            on_event(f"checkpoint was corrupt; quarantined it to "
                     f"{checkpoint.corrupt_quarantined} and starting "
                     f"fresh")
    else:
        checkpoint.reset()

    def run_one(name: str) -> Dict[str, object]:
        outcome = EXPERIMENTS[name](context)
        stems: Dict[str, str] = {}
        for result in _flatten(outcome):
            write_result(result, out_path)
            stems[result.experiment] = result.experiment.replace(":", "_")
        return {"stems": stems}

    runner = SweepRunner(run_one, max_retries=max_retries,
                         backoff_s=backoff_s, timeout_s=timeout_s,
                         checkpoint=checkpoint, on_event=on_event,
                         jobs=jobs)
    outcomes = runner.run(selected)

    written: Dict[str, str] = {}
    failures: List[RunFailure] = []
    for outcome in outcomes:
        if outcome.succeeded and outcome.payload:
            written.update(outcome.payload["stems"])
        elif outcome.failure is not None:
            failures.append(outcome.failure)

    from repro.config import baseline_config, starnuma_config

    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "seed": context.seed,
        "n_phases": context.n_phases,
        "warmup_phases": context.warmup_phases,
        "workloads": context.workload_names,
        "experiments": written,
        "presets": [baseline_config().name, starnuma_config().name],
        "git": _git_describe(),
        "wall_time_s": round(time.monotonic() - started_monotonic, 3),
        "obs_trace": OBS.trace_path,
    }
    (out_path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    if failures and strict:
        raise SweepError(failures)
    return written
