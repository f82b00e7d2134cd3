"""Workload table, paper references and output checks of the benchmark.

Plain Python with no import of the program, so the entry point
(``run.py``) and the per-repetition child (``sweep.py``) share it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: workload -> (experiments exported, --jobs). All run at the program's
#: default horizon (12 phases, 4 warm-up) over all 8 paper workloads.
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], int]] = {
    "fig8": (("fig8",), 1),
    "sensitivity": (("fig10", "fig11"), 1),
    "scale-faults": (("ext-scale32", "fault-study"), 2),
}

#: Exported files that legitimately differ between identical runs.
UNHASHED_FILES = ("manifest.json", "checkpoint.json")

#: Paper values quoted in the experiment notes (EXPERIMENTS.md).
PAPER = {
    "fig8.mean_t16": 1.54,
    "fig8.mean_t0": 1.35,
    "fig8.max_t16": 2.17,
    "fig8.amat_reduction": 0.48,
    "fig10.mean_100ns": 1.54,
    "fig10.mean_190ns": 1.34,
    "fig11.iso_bw": 1.14,
    "fig11.star_vs_2xbw": 1.12,
    "fig11.half_vs_iso": 1.11,
    # The healthy rung of the fault ladder is the default StarNUMA
    # system, i.e. Fig. 8a's T16 mean; ext-scale32's 16-socket column
    # holds Fig. 8a's TC speedup (paper 1.63x, quoted with Fig. 10).
    "fault-study.healthy_mean": 1.54,
    "ext-scale32.tc_16s": 1.63,
}

#: Lowest speedup the fault study may report for a dead pool.
POOL_DEAD_FLOOR = 0.98


def experiment_files(out_dir: Path, experiment: str) -> List[Path]:
    """The files one experiment exported (fig8 writes fig8a/b/c)."""
    return sorted(path for path in out_dir.iterdir()
                  if path.name not in UNHASHED_FILES
                  and (path.stem == experiment
                       or (experiment == "fig8"
                           and path.stem in ("fig8a", "fig8b", "fig8c"))))


def digest_files(paths: Sequence[Path]) -> str:
    """One sha256 over the names and bytes of ``paths``."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.name.encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def load_tables(out_dir: Path) -> Dict[str, dict]:
    """Exported JSON tables keyed by file stem."""
    return {path.stem: json.loads(path.read_text())
            for path in sorted(out_dir.glob("*.json"))
            if path.name not in UNHASHED_FILES}


def _columns(table: dict, names: Sequence[str]) -> List[List[float]]:
    index = [table["headers"].index(name) for name in names]
    return [[float(row[i]) for row in table["rows"]] for i in index]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def headline_numbers(experiment: str, tables: Dict[str, dict]
                     ) -> Dict[str, float]:
    """The sweep's numbers that have a paper reference."""
    if experiment == "fig8":
        t16, t0 = _columns(tables["fig8a"], ("speedup_t16", "speedup_t0"))
        (reduction,) = _columns(tables["fig8b"], ("amat_reduction",))
        return {"fig8.mean_t16": _mean(t16), "fig8.mean_t0": _mean(t0),
                "fig8.max_t16": max(t16),
                "fig8.amat_reduction": _mean(reduction)}
    if experiment == "fig10":
        low, high = _columns(tables["fig10"],
                             ("speedup@100ns", "speedup@190ns"))
        return {"fig10.mean_100ns": _mean(low),
                "fig10.mean_190ns": _mean(high)}
    if experiment == "fig11":
        iso, double, star, half = (_mean(column) for column in _columns(
            tables["fig11"], ("baseline_iso_bw", "baseline_2x_bw",
                              "starnuma", "starnuma_half_bw")))
        return {"fig11.iso_bw": iso, "fig11.star_vs_2xbw": star / double,
                "fig11.half_vs_iso": half / iso}
    if experiment == "fault-study":
        table = tables["fault-study"]
        severity, speedup = (table["headers"].index(name) for name in
                             ("severity", "speedup_over_baseline"))
        healthy = [float(row[speedup]) for row in table["rows"]
                   if float(row[severity]) == 0.0]
        return {"fault-study.healthy_mean": _mean(healthy)}
    if experiment == "ext-scale32":
        table = tables["ext-scale32"]
        column = table["headers"].index("speedup_16s")
        return {"ext-scale32.tc_16s": float(row[column])
                for row in table["rows"] if row[0] == "tc"}
    return {}


def paper_gap(numbers: Dict[str, float]) -> float:
    """Mean absolute relative deviation from the paper's values."""
    return _mean([abs(value / PAPER[name] - 1.0)
                  for name, value in numbers.items()])


#: experiment -> speedup columns that must be finite and positive.
SPEEDUP_COLUMNS = {
    "fig8a": ("speedup_t16", "speedup_t0"),
    "fig10": ("speedup@100ns", "speedup@190ns"),
    "fig11": ("baseline_iso_bw", "baseline_2x_bw", "starnuma",
              "starnuma_half_bw"),
    "ext-scale32": ("speedup_16s", "speedup_32s(switched pool)"),
    "fault-study": ("speedup_over_baseline",),
}


def row_problems(experiment: str, tables: Dict[str, dict]) -> List[str]:
    """Row invariants an experiment's export breaks (empty when sound)."""
    stems = ("fig8a", "fig8b", "fig8c") if experiment == "fig8" \
        else (experiment,)
    problems: List[str] = []
    for stem in stems:
        table = tables.get(stem)
        if table is None or not table["rows"]:
            problems.append(f"{stem}: no rows exported")
            continue
        speedups = SPEEDUP_COLUMNS.get(stem, ())
        for column, values in zip(speedups, _columns(table, speedups)):
            bad = [v for v in values if not (math.isfinite(v) and v > 0)]
            if bad:
                problems.append(f"{stem}.{column}: non-positive or "
                                f"non-finite speedup {bad[0]!r}")
        if stem == "fig8c":
            for row in table["rows"]:
                total = sum(float(cell) for cell in row[2:])
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"fig8c {row[0]}/{row[1]}: fractions "
                                    f"sum to {total!r}")
        if stem == "fault-study":
            severity, speedup = (table["headers"].index(name) for name in
                                 ("severity", "speedup_over_baseline"))
            for row in table["rows"]:
                if float(row[severity]) >= 1.0 \
                        and float(row[speedup]) < POOL_DEAD_FLOOR:
                    problems.append(f"fault-study {row[0]}: pool-dead "
                                    f"speedup {row[speedup]!r} < "
                                    f"{POOL_DEAD_FLOOR}")
    return problems
