"""Set-up and sweeps of one figure sweep, in a fresh process.

Imports the program from ``src/``, builds an ``ExperimentContext`` for
the seed, sets up every workload, then runs ``export_all`` on the warm
context, exactly as ``starnuma export`` does with default settings.
Prints one JSON line: timings, resource use, output digests, row
checks, headline numbers and (with ``--trace-dir``) the layer ledger.

With ``--sweep-seconds S`` each sweep runs in a forked copy of the
set-up process, so every sweep starts from the same warm context, and
sweeps repeat while the next one fits in ``S`` seconds from process
start (at least one). The report then lists them under ``sweeps``.

Usage: python3 sweepbench/sweep.py --workload fig8 --seed 1 --out DIR
       [--setup-only | --sweep-seconds S | --trace-dir DIR]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from ledger import Ledger, merge_workers  # noqa: E402

#: Thread settings that change how many BLAS/OpenMP threads numpy uses.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library (or None)."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libraries = {line.split()[-1] for line in handle
                         if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_context():
    import numpy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


# -- the layer table ----------------------------------------------------------


def _count_iterations(ledger, timing):
    ledger.counters["sim.fixed_point_iterations"] += \
        timing.fixed_point_iterations


def _count_pages(ledger, batch):
    ledger.counters["migration.pages_moved"] += batch.n_pages


def _hash_classification(ledger, result):
    ledger.digest(
        "sim.classification", result.demand.tobytes(),
        result.demand_writes.tobytes(), result.bt_socket.tobytes(),
        result.bt_pool.tobytes(), result.bt_pool_owner.tobytes(),
        repr((result.total_accesses, result.replicated_writes)).encode(),
    )


def _hash_checkpoints(ledger, checkpoints):
    parts = []
    for checkpoint in checkpoints:
        parts.append(repr(checkpoint.phase).encode())
        parts.append(checkpoint.page_map.locations.tobytes())
        for move in (checkpoint.batch.moves if checkpoint.batch else ()):
            parts.append(repr((move.source, move.destination)).encode())
            parts.append(move.pages.tobytes())
    ledger.digest("sim.step_b", *parts)


def install_layers(ledger):
    """Wrap each layer's public calls (the program itself is unchanged)."""
    from repro.experiments import EXPERIMENTS, export
    from repro.migration import BaselinePolicy, StarNumaPolicy
    from repro.runner import SweepRunner
    from repro.sim import engine, timing
    from repro.topology import RouteTable
    from repro.trace import TraceSynthesizer
    from repro.workloads.population import build_population

    ledger.patch_function(build_population, "workloads.build_population")
    ledger.patch_attr(TraceSynthesizer, "synthesize", "trace.synthesize")
    ledger.patch_attr(engine.Simulator, "checkpoints", "sim.step_b",
                      _hash_checkpoints)
    for policy in (StarNumaPolicy, BaselinePolicy):
        ledger.patch_attr(policy, "decide", "migration.decide",
                          _count_pages)
    ledger.patch_attr(timing, "classify_phase", "sim.classification",
                      _hash_classification)
    model = timing.PhaseTimingModel
    ledger.patch_attr(model, "evaluate", "sim.timing", _count_iterations)
    ledger.patch_attr(model, "phase_inputs", "sim.timing")
    ledger.patch_attr(model, "finish_phase", "sim.timing", _count_iterations)
    # Simulator construction compiles topology and routes; faulted
    # states recompile them mid-run, inside Simulator.run.
    ledger.patch_attr(engine.Simulator, "__init__", "topology")
    ledger.patch_attr(engine, "faulted_topology", "topology")
    ledger.patch_attr(RouteTable, "__init__", "topology")
    for name in list(EXPERIMENTS):
        ledger.patch_item(EXPERIMENTS, name, "experiments")
    ledger.patch_attr(export, "write_result", "experiments.export")
    ledger.patch_attr(SweepRunner, "run", "runner")


# -- one repetition -----------------------------------------------------------


def rusage_totals():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (own.ru_utime + own.ru_stime
           + children.ru_utime + children.ru_stime)
    # ru_maxrss is in KiB on Linux; children reports the largest worker.
    return cpu, (own.ru_maxrss + children.ru_maxrss) / 1024.0


def sweep(context, out: Path, experiments, jobs) -> dict:
    """``export_all`` on the set-up ``context``, then its output checks."""
    from repro.experiments.export import export_all
    from repro.runner import SweepError

    begun = time.perf_counter()
    failures = {}
    try:
        export_all(str(out), context, experiments, jobs=jobs)
    except SweepError as error:
        failures = {failure.task_id: f"{failure.error_type}: "
                    f"{failure.message}" for failure in error.failures}
    swept = time.perf_counter()
    cpu_s, peak_rss_mb = rusage_totals()

    tables = spec.load_tables(out)
    checks = {}
    numbers = {}
    for experiment in experiments:
        if experiment in failures:
            checks[experiment] = {"error": failures[experiment]}
            continue
        problems = spec.row_problems(experiment, tables)
        if not problems:
            numbers.update(spec.headline_numbers(experiment, tables))
        checks[experiment] = {
            "digest": spec.digest_files(
                spec.experiment_files(out, experiment)),
            "problems": problems,
        }
    return {
        "sweep_s": swept - begun,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "paper_gap": spec.paper_gap(numbers) if numbers else None,
    }


def forked(function) -> dict:
    """``function()``'s report, computed in a forked copy of this process.

    The copy starts with this process's memory, CPU times at zero and
    peak RSS at the current RSS, and it exits without running any of
    this process's exit handlers.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(function(), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"forked sweep {pid} ended with status {status}")
    return json.loads(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--sweep-seconds", type=float)
    mode.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)
    experiments, jobs = spec.WORKLOADS[args.workload]

    ledger = None
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        ledger = Ledger(worker_dir=args.trace_dir)
    from repro.experiments import ExperimentContext
    # The sweep's own imports count toward harness.import too.
    import repro.experiments.export  # noqa: F401
    import repro.runner  # noqa: F401
    imported = time.perf_counter()
    if ledger is not None:
        # The import layer runs from this module's first line, so the
        # benchmark's own small imports count with the program's.
        ledger.record("harness.import", imported - START)
        install_layers(ledger)

    context = ExperimentContext(seed=args.seed)
    for workload in context.workload_names:
        context.setup(workload)
    set_up = time.perf_counter()
    report = {"setup_s": set_up - START}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.sweep_seconds is not None:
        sweeps = []
        while True:
            begun = time.perf_counter()
            out = args.out / f"sweep-{len(sweeps)}"
            sweeps.append(forked(
                lambda: sweep(context, out, experiments, jobs)))
            shutil.rmtree(out, ignore_errors=True)
            ended = time.perf_counter()
            if ended - START + (ended - begun) > args.sweep_seconds:
                break
        report.update(sweeps=sweeps, host=host_context())
        print(json.dumps(report))
        return 0

    report.update(sweep(context, args.out, experiments, jobs))
    report.update(wall_s=report["setup_s"] + report["sweep_s"],
                  host=host_context())
    if ledger is not None:
        ledger.restore()
        report["ledger"] = {"parent": ledger.totals(),
                            "workers": merge_workers(args.trace_dir)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
