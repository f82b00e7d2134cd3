"""What a sweep keeps resident: the 8 seed-3 set-ups, by array kind.

Builds the set-ups of all 8 workloads at seed 3 (12 phases) as
``starnuma export`` does, then runs one fig8 Step B pass (the baseline,
T16 and T0 decision lists of every workload) and then the rest of fig8
(calibration and Step C). After each stage it walks everything the
context keeps and tallies the bytes of every array by kind: the class
and attribute that holds it (``PhaseTrace.values``,
``SharerIndex.sockets``, ...). A view counts once, under its base.

Each narrowed kind is also priced in the type it had before counts,
entry sockets, page-major order, page maps and moved page ids were
stored narrow (int32 counts, int64 sockets, order and moved pages,
int16 maps), and the test asserts the narrow types and the saving.
After fig8 it also asserts that at most one population's
``SharerIndex`` holds Step C's float64 tables (``membership_f64``,
``entry_bt_fraction``, ``entry_write_fraction``). The tallies go to the
benchmark JSON as ``extra_info``.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_resident.py -s \\
        --benchmark-json bench-resident.json
"""

import types
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.config import TrackerKind
from repro.experiments import ExperimentContext, fig08
from repro.workloads.cells import SharerIndex, narrowest_signed

SEED = 3
MB = 2 ** 20

#: Per narrowed kind, the item size it was stored in before.
WIDE_ITEMSIZE = {
    "PhaseTrace.values": 4,
    "SharerIndex.sockets": 8,
    "SharerIndex._page_major[0]": 8,
    "PageMap.locations": 2,
    "RegionMove.pages": 8,
}
#: Per narrowed kind, the type every array of it must have now.
NARROW = {
    "SharerIndex.sockets": np.int8,
    "SharerIndex._page_major[0]": np.int32,
    "PageMap.locations": np.int8,
    "RegionMove.pages": np.int32,
}
OPAQUE = (type, types.ModuleType, types.FunctionType,
          types.BuiltinFunctionType, types.MethodType)


def tally(root):
    """Kind -> the distinct base arrays of that kind reachable from root."""
    kinds = defaultdict(list)
    seen = set()
    stack = [(root, type(root).__name__)]
    while stack:
        obj, kind = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if base is obj or id(base) not in seen:
                seen.add(id(base))
                kinds[kind].append(base)
        elif isinstance(obj, dict):
            stack.extend((value, kind) for value in obj.values())
        elif isinstance(obj, tuple):
            stack.extend((value, f"{kind}[{position}]")
                         for position, value in enumerate(obj))
        elif isinstance(obj, (list, set, frozenset)):
            stack.extend((value, kind) for value in obj)
        else:
            owner = type(obj).__name__
            stack.extend((value, f"{owner}.{name}")
                         for name, value in getattr(obj, "__dict__",
                                                    {}).items())
    return kinds


def priced(kinds):
    """Kind -> (bytes now, bytes in the wide types)."""
    table = {}
    for kind, arrays in kinds.items():
        now = sum(array.nbytes for array in arrays)
        wide = WIDE_ITEMSIZE.get(kind)
        before = now if wide is None else sum(
            array.size * max(wide, array.itemsize) for array in arrays)
        table[kind] = (now, before)
    return table


def render(stage, table, top=12):
    rows = sorted(table.items(), key=lambda item: -item[1][1])[:top]
    now = sum(entry[0] for entry in table.values())
    before = sum(entry[1] for entry in table.values())
    lines = [f"{stage}: {now / MB:.1f} MB resident "
             f"({before / MB:.1f} MB in the wide types)"]
    lines += [f"  {kind:<40} {b / MB:8.2f} MB  (was {w / MB:8.2f})"
              for kind, (b, w) in rows]
    return "\n".join(lines)


def check_narrow(kinds):
    for kind, dtype in NARROW.items():
        assert {array.dtype for array in kinds.get(kind, [])} <= {
            np.dtype(dtype)}, kind
    for values in kinds["PhaseTrace.values"]:
        assert values.dtype == narrowest_signed(int(values.min()),
                                                int(values.max()))


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(seed=SEED)


def step_b(context):
    systems = (context.baseline_system(),
               context.starnuma_system(tracker=TrackerKind.T16),
               context.starnuma_system(tracker=TrackerKind.T0))
    for workload in context.workload_names:
        for system in systems:
            context.simulator(system, workload).checkpoints()


def test_bench_resident(context, benchmark, show):
    for workload in context.workload_names:
        context.setup(workload)
    stages = {"set-up": priced(tally(context))}
    benchmark.pedantic(step_b, args=(context,), rounds=1, iterations=1)
    stages["Step B"] = priced(tally(context))
    fig08.run(context)
    stages["fig8 run"] = priced(tally(context))
    kinds = tally(context)
    phase_types = Counter(str(values.dtype)
                          for values in kinds["PhaseTrace.values"])
    show("\n\n".join([render(stage, table)
                       for stage, table in stages.items()]
                      + [f"phase count types: {dict(phase_types)}"]))

    check_narrow(kinds)
    assert kinds["RegionMove.pages"], "fig8 moves pages"
    holders = [workload for workload in context.workload_names
               if set(SharerIndex.STEP_C_TABLES)
               & set(vars(context.setup(workload).population.index))]
    assert len(holders) <= 1, holders
    for name in SharerIndex.STEP_C_TABLES:
        assert len(kinds.get(f"SharerIndex.{name}", [])) <= 1, name
    assert len(kinds["PhaseTrace.values"]) == 8 * context.n_phases
    assert kinds["SharerIndex._page_major[0]"], "Step B reads page order"
    assert len(kinds["PageMap.locations"]) > 8 * context.n_phases
    for stage, table in stages.items():
        counts_now, counts_wide = table["PhaseTrace.values"]
        # At seed 3 all but one phase fit int16: at most half the bytes.
        assert counts_now <= counts_wide / 2, stage
        for kind in NARROW:
            if kind in table:
                now, wide = table[kind]
                assert now * WIDE_ITEMSIZE[kind] == wide * np.dtype(
                    NARROW[kind]).itemsize, (stage, kind)
    benchmark.extra_info.update({
        stage: {kind: {"bytes": now, "wide_bytes": wide}
                for kind, (now, wide) in table.items()}
        for stage, table in stages.items()})
