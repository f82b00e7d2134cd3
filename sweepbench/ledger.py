"""Per-layer time ledger: wraps public calls of the model from outside.

A :class:`Ledger` patches a layer's public functions with wrappers that
time each call and keep a stack of open spans, so a layer's *self* time
is its span time minus the time spent in wrapped children. Nothing in
the program is edited; :meth:`Ledger.restore` undoes every patch.

Forked workers inherit the patched functions and a copy of the ledger.
The first wrapped call in a new process clears that copy, so a worker
counts only its own work, and each time a worker's outermost span
closes (an ``EXPERIMENTS`` entry or a ``write_result`` returning) the
worker writes its running totals to ``worker-<pid>.json``; workers end
with ``os._exit``, so there is no later hook. The parent merges those
files with :func:`merge_workers`, keeping them apart from its own
totals.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: ``observe(ledger, result)`` runs inside the span, after the call returns.
Observer = Callable[["Ledger", object], None]


class Ledger:
    """Self time, call counts, counters and output digests per layer."""

    def __init__(self, worker_dir: Optional[Path] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.worker_dir = worker_dir
        self.clock = clock
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._patches: List[tuple] = []
        self._clear()

    def _clear(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.digests: Dict[str, set] = defaultdict(set)
        #: Open spans, innermost last: ``[layer, time in children]``.
        self._stack: List[list] = []

    def _own(self) -> None:
        """Drop totals copied from the parent by a fork."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._clear()

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        """``fn`` timed as one span of ``layer``.

        A call made while ``layer`` is already the innermost open span
        (a constructor calling another wrapped constructor of the same
        layer) runs inside that span instead of opening a second one.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            stack = self._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, result)
                return result
            finally:
                elapsed = self.clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.dump_worker()

        return wrapper

    def record(self, layer: str, seconds: float) -> None:
        """Book a span timed by the caller (no open span may enclose it)."""
        self.self_s[layer] += seconds
        self.calls[layer] += 1

    def digest(self, name: str, *parts: bytes) -> None:
        """Count one output of ``name`` by its content hash."""
        hasher = hashlib.blake2b(digest_size=16)
        for part in parts:
            hasher.update(part)
        self.digests[name].add(hasher.hexdigest())

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner: object, name: str, layer: str,
                   observe: Optional[Observer] = None) -> None:
        """Replace ``owner.name`` (a class method or module function)."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, observe))

    def patch_function(self, function: Callable, layer: str,
                       observe: Optional[Observer] = None,
                       package: str = "repro") -> int:
        """Rebind ``function`` in every loaded module of ``package``.

        Covers modules that imported it by name; returns how many
        bindings were replaced.
        """
        wrapper = self.wrap(layer, function, observe)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package
                                      or module_name.startswith(package + ".")):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, name, function))
                    setattr(module, name, wrapper)
                    replaced += 1
        return replaced

    def patch_item(self, mapping: dict, key: str, layer: str) -> None:
        """Wrap one registry entry (``EXPERIMENTS[key]``)."""
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(layer, original)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- totals --------------------------------------------------------------

    def totals(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "digests": {name: sorted(values)
                        for name, values in self.digests.items()},
        }

    def dump_worker(self) -> None:
        """Write this worker's running totals (no-op in the root process)."""
        if self.worker_dir is None or os.getpid() == self.root_pid:
            return
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.totals()))
        os.replace(temporary, path)


def merge_workers(worker_dir: Path) -> Dict[str, object]:
    """Sum the totals every worker dumped into ``worker_dir``."""
    merged: Dict[str, object] = {
        "self_s": defaultdict(float), "calls": defaultdict(int),
        "counters": defaultdict(float), "digests": defaultdict(set),
        "workers": 0,
    }
    for path in sorted(worker_dir.glob("worker-*.json")):
        totals = json.loads(path.read_text())
        merged["workers"] += 1
        for key in ("self_s", "calls", "counters"):
            for name, value in totals[key].items():
                merged[key][name] += value
        for name, values in totals["digests"].items():
            merged["digests"][name].update(values)
    merged["digests"] = {name: sorted(values)
                         for name, values in merged["digests"].items()}
    for key in ("self_s", "calls", "counters"):
        merged[key] = dict(merged[key])
    return merged
