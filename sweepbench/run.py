"""Figure-sweep benchmark: host time, memory and accuracy of three sweeps.

Sweeps run in fresh processes (``sweep.py``): import, build the
``ExperimentContext`` for ``--seed``, set up all 8 workloads, then
``export_all`` the workload's experiments with the program's defaults.
Outputs are checked (row invariants, and byte-identical exports across
every run of one seed) and the last stdout line is one JSON result.

With ``--trace 0`` one process sets up, then forks sweep after sweep
from its warm context while they fit in ``--seconds``; set-up alone
then repeats in fresh processes until there are ``MIN_SETUPS``
set-up samples. It reports medians of the end-to-end metrics, scaled
to a reference host speed by the median of the probes run before and
after every process (``probe.py``). With ``--trace 1`` it runs one
untraced and one traced sweep and reports the per-layer ledger.

Usage: python3 sweepbench/run.py --workload fig8 --seed 1 --seconds 30 \
           --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Scratch space inside the checkout: exports, worker ledgers, and the
#: digest record that makes later runs of a seed compare with earlier.
WORK = ROOT / ".sweepbench-work"
#: A run must end within 180 s; keep a margin for the last child.
RUN_BUDGET_S = 170.0
#: Set-up samples per timed run (the sweeping process counts as one).
MIN_SETUPS = 3

#: Layers in call order, outermost first.
LAYERS = ("harness.import", "workloads.build_population",
          "trace.synthesize", "runner", "experiments", "topology",
          "sim.step_b", "migration.decide", "sim.timing",
          "sim.classification", "experiments.export")


class RunFailed(RuntimeError):
    """A repetition could not be measured (crash or out of time)."""


def source_fingerprint() -> str:
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def run_child(argv, deadline: float) -> dict:
    """Run ``sweep.py`` in its own process group; return its report."""
    timeout = deadline - time.monotonic()
    if timeout < 1.0:
        raise RunFailed("out of time before the next repetition")
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "sweep.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"repetition exceeded {timeout:.0f}s") from None
    finally:
        # Kill anything the repetition left behind (forked workers),
        # then reap the child.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RunFailed(f"sweep.py exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


class DigestRecord:
    """Export digests of every seed seen in this checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.seen = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        """Record ``digest`` for ``key``; False if it differs from before."""
        return self.seen.setdefault(key, digest) == digest

    def save(self) -> None:
        temporary = self.path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(temporary, self.path)


def check_outputs(reports, experiments, record: DigestRecord, prefix: str):
    """Count failed experiments over all repetitions; print digests."""
    failed = 0
    for experiment in experiments:
        for index, report in enumerate(reports):
            check = report["checks"][experiment]
            if "error" in check:
                print(f"FAILED {experiment} (repetition {index}): "
                      f"{check['error']}", file=sys.stderr)
                failed += 1
                continue
            problems = list(check["problems"])
            if not record.check(f"{prefix}:{experiment}", check["digest"]):
                problems.append(
                    f"export digest {check['digest'][:16]} differs from "
                    f"an earlier run of this seed "
                    f"({record.seen[prefix + ':' + experiment][:16]})")
            for problem in problems:
                print(f"FAILED {experiment} (repetition {index}): "
                      f"{problem}", file=sys.stderr)
            failed += bool(problems)
        digest = record.seen.get(f"{prefix}:{experiment}")
        print(f"digest {experiment}: {digest}")
    return failed


def timed_metrics(reports, setups, probes):
    """Medians of the samples, at the reference host speed."""
    # One factor for the whole run: a single probe jitters by about 10%
    # from second to second, the slow spells it corrects last minutes.
    scale = probe.REFERENCE_S / statistics.median(probes)
    return {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "sweep_s": (statistics.median(
            report["sweep_s"] for report in reports) * scale, "s"),
        "peak_rss_mb": (statistics.median(
            report["peak_rss_mb"] for report in reports), "MB"),
    }


def layer_metrics(plain, traced, error_rate):
    """The per-layer ledger of the traced repetition."""
    parent = traced["ledger"]["parent"]
    workers = traced["ledger"]["workers"]
    wall = traced["wall_s"]
    worker_s = sum(workers["self_s"].values())
    claimed = sum(parent["self_s"].values())
    total = wall + worker_s
    metrics = {}
    print(f"{'layer':28s} {'parent_s':>9s} {'worker_s':>9s} "
          f"{'calls':>7s} {'share':>6s}")
    for layer in LAYERS:
        own = parent["self_s"].get(layer, 0.0)
        theirs = workers["self_s"].get(layer, 0.0)
        calls = parent["calls"].get(layer, 0) + workers["calls"].get(layer, 0)
        share = (own + theirs) / total
        print(f"{layer:28s} {own:9.3f} {theirs:9.3f} {calls:7d} "
              f"{share:6.1%}")
        metrics[f"{layer}.self_s"] = (own + theirs, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.share"] = (share, "ratio")
    unclaimed = wall - claimed
    overhead = wall / plain["wall_s"]
    print(f"coverage: named layers claim {claimed / wall:.1%} of the traced "
          f"wall_s {wall:.3f} s (unclaimed {unclaimed:.3f} s); workers "
          f"{workers['workers']} with {worker_s:.3f} s; tracing overhead "
          f"{overhead:.3f}x")

    def counter(name):
        return (parent["counters"].get(name, 0.0)
                + workers["counters"].get(name, 0.0))

    def distinct_ratio(layer):
        digests = set(parent["digests"].get(layer, ()))
        digests.update(workers["digests"].get(layer, ()))
        calls = parent["calls"].get(layer, 0) + workers["calls"].get(layer, 0)
        return len(digests) / calls if calls else 0.0

    metrics.update({
        "sim.fixed_point_iterations": (
            counter("sim.fixed_point_iterations"), "count"),
        "migration.pages_moved": (counter("migration.pages_moved"), "count"),
        "sim.classification.distinct_ratio": (
            distinct_ratio("sim.classification"), "ratio"),
        "sim.step_b.distinct_ratio": (distinct_ratio("sim.step_b"), "ratio"),
        "wall_s": (plain["wall_s"], "s"),
        "host.cpu_s": (plain["cpu_s"], "s"),
        "trace.unclaimed_s": (unclaimed, "s"),
        "trace.coverage": (claimed / wall, "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.worker_s": (worker_s, "s"),
        "error_rate": (error_rate, "ratio"),
        "paper_gap": (plain["paper_gap"] or 0.0, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in spec.WORKLOADS:
        print(f"sweepbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sweepbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    experiments, _jobs = spec.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [probe.probe_s()]

    def child(extra) -> dict:
        """One ``sweep.py`` process, then a probe of the host's speed."""
        begun = time.monotonic()
        try:
            report = run_child(base + ["--out", str(scratch / "out")] + extra,
                               deadline)
        finally:
            shutil.rmtree(scratch / "out", ignore_errors=True)
        probes.append(probe.probe_s())
        report["elapsed"] = time.monotonic() - begun
        return report

    try:
        if args.trace:
            reports = [child([]),
                       child(["--trace-dir", str(scratch / "trace")])]
        else:
            budget = args.seconds - (time.monotonic() - started)
            first = child(["--sweep-seconds", f"{budget:.3f}"])
            reports = [dict(sample, host=first["host"])
                       for sample in first["sweeps"]]
            setups = [first["setup_s"]]
            estimate = first["setup_s"] + 2.0
            # Top up to MIN_SETUPS past --seconds, but never into the
            # 180 s limit on a whole run.
            while len(setups) < MIN_SETUPS \
                    and time.monotonic() + 2 * estimate < deadline:
                report = child(["--setup-only"])
                setups.append(report["setup_s"])
                estimate = report["elapsed"]
    except RunFailed as error:
        print(f"sweepbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("host: " + json.dumps(reports[0]["host"], sort_keys=True))
    record = DigestRecord(WORK / "digests.json")
    failed = check_outputs(
        reports, experiments, record,
        f"{source_fingerprint()}:{args.workload}:{args.seed}")
    record.save()
    attempted = len(reports) * len(experiments)

    if args.trace:
        metrics = layer_metrics(reports[0], reports[1], failed / attempted)
    else:
        metrics = timed_metrics(reports, setups, probes)
        print("samples (unscaled): sweep_s "
              + " ".join(f"{report['sweep_s']:.3f}" for report in reports)
              + "; setup_s " + " ".join(f"{value:.3f}" for value in setups)
              + "; probe_s " + " ".join(f"{value:.4f}" for value in probes)
              + f"; {time.monotonic() - started:.1f} s in all")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
