"""Fork-safety: state that must not silently cross a process fork.

PR 5's chaos soak found the canonical bug this rule now catches
statically: a shared ``multiprocessing.Queue`` handed to forked
workers can be forked *while its feeder thread holds the internal send
lock*, deadlocking every child that touches it. The supervised pool
was rebuilt around per-worker ``SimpleQueue``/``Pipe`` pairs; this
rule keeps that lesson enforced.

Using the whole-program index, the rule partitions the call graph at
every fork site (``multiprocessing.Process(target=...)``,
``ctx.Process(...)``, ``os.fork()``): the *worker partition* is
everything reachable -- calls and escaped references -- from the
resolved ``target=`` entry points; everything else runs in the parent.
Three checks:

* ``multiprocessing.Queue``/``JoinableQueue`` created in a module that
  forks: the feeder-thread lock makes them fork-hostile; per-worker
  ``SimpleQueue``/``Pipe`` (what the supervisor uses) have no feeder
  thread and are exempt.
* synchronization primitives and file handles bound to module-level
  names at import time (pre-fork) and referenced from the worker
  partition: the child inherits a *copy* whose lock state is whatever
  the parent's happened to be at fork time.
* a module-level name rebound (``global``) or mutated in place by
  *distinct* functions on both sides of the partition: after fork the
  two sides write separate copies that silently diverge. Routing all
  writes through one shared helper is the sanctioned fix -- a single
  writer never trips this check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.graph import ProgramIndex
from repro.lint.graph.callgraph import MODULE_BODY, FunctionInfo
from repro.lint.module import LintProject
from repro.lint.registry import LintRule, register

#: Calls that fork the process (or create a forked child).
FORK_CALLS = frozenset({
    "multiprocessing.Process",
    "multiprocessing.context.Process",
    "os.fork",
})

#: Attribute-call labels treated as fork sites when the receiver is
#: dynamic (``ctx.Process(...)`` where ``ctx = mp.get_context(...)``).
FORK_LABELS = frozenset({"Process"})

#: Queue types with a feeder thread: fork-hostile by construction.
FEEDER_QUEUES = frozenset({
    "multiprocessing.Queue",
    "multiprocessing.JoinableQueue",
})

#: Constructors whose product must not be created pre-fork and shared.
#: A thread pool made before a fork has none of its threads in the
#: child, so a child that submits to it waits forever.
PREFORK_HAZARDS = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "multiprocessing.Queue": "queue",
    "multiprocessing.JoinableQueue": "queue",
    "concurrent.futures.ThreadPoolExecutor": "thread pool",
    "open": "file handle",
}


@register
class ForkSafetyRule(LintRule):
    name = "fork-safety"
    severity = Severity.ERROR
    description = (
        "flags feeder-thread queues, pre-fork primitives, and module "
        "state written from both sides of a process fork"
    )
    uses_graph = True

    def check_graph(self, project: LintProject,
                    index: ProgramIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        fork_sites = _fork_sites(index)
        if not fork_sites:
            return findings
        forking_modules = {info.module for info, _ in fork_sites}
        workers = _worker_entries(index, fork_sites)
        worker_partition = index.reachable(workers, follow_refs=True)

        self._check_feeder_queues(index, forking_modules, findings)
        self._check_prefork_state(index, fork_sites, forking_modules,
                                  worker_partition, findings)
        self._check_split_writes(index, forking_modules,
                                 worker_partition, findings)
        return findings

    # -- checks --------------------------------------------------------------

    def _check_feeder_queues(self, index: ProgramIndex,
                             forking_modules: Set[str],
                             findings: List[Finding]) -> None:
        for info in index.functions.values():
            if info.module not in forking_modules:
                continue
            for canonical, node in info.external_calls:
                if canonical in FEEDER_QUEUES:
                    module = index.project.module(info.module)
                    if module is None:
                        continue
                    findings.append(self.finding(
                        module, node,
                        f"{canonical} created in a module that forks "
                        f"workers; its feeder thread can be forked "
                        f"holding the send lock and deadlock the child "
                        f"-- use per-worker SimpleQueue/Pipe instead",
                    ))

    def _check_prefork_state(self, index: ProgramIndex,
                             fork_sites: "List[Tuple[FunctionInfo, ast.Call]]",
                             forking_modules: Set[str],
                             worker_partition: Set[str],
                             findings: List[Finding]) -> None:
        passed = _names_passed_to_fork(fork_sites)
        for module_name in sorted(forking_modules):
            module = index.project.module(module_name)
            body = index.calls.module_body(module_name)
            if module is None or body is None:
                continue
            for name, kind, node in _module_level_hazards(
                    index, module_name, module.tree):
                if kind == "queue":
                    continue  # already flagged by the feeder-queue check
                users = _worker_readers(index, worker_partition,
                                        module_name, name)
                if name in passed.get(module_name, set()):
                    users = users | {"fork-site args"}
                if users:
                    sample = ", ".join(sorted(users)[:2])
                    findings.append(self.finding(
                        module, node,
                        f"module-level {kind} '{name}' is created at "
                        f"import time (pre-fork) and reachable from "
                        f"worker code ({sample}); the child inherits a "
                        f"copy with undefined state -- create it "
                        f"after the fork, in the worker",
                    ))

    def _check_split_writes(self, index: ProgramIndex,
                            forking_modules: Set[str],
                            worker_partition: Set[str],
                            findings: List[Finding]) -> None:
        writers: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        for info in index.functions.values():
            if info.module not in forking_modules:
                continue
            if info.name == MODULE_BODY:
                continue  # import-time init predates any fork
            for name in set(info.global_writes) | set(info.mutations):
                writers.setdefault((info.module, name), []).append(info)
        for (module_name, name), funcs in sorted(writers.items()):
            inside = [f for f in funcs if f.qual in worker_partition]
            outside = [f for f in funcs if f.qual not in worker_partition]
            if not inside or not outside:
                continue
            module = index.project.module(module_name)
            if module is None:
                continue
            for writer in outside:
                findings.append(self.finding(
                    module, writer.node,
                    f"module-level '{name}' is written by worker-side "
                    f"code ({inside[0].name}) and parent-side code "
                    f"({writer.name}); after fork these are separate "
                    f"copies that silently diverge -- route every "
                    f"write through one shared helper",
                ))


# -- graph probes ------------------------------------------------------------


def _fork_sites(index: ProgramIndex,
                ) -> List[Tuple[FunctionInfo, ast.Call]]:
    """Every call that forks, with the function it occurs in."""
    sites: List[Tuple[FunctionInfo, ast.Call]] = []
    for info in index.functions.values():
        for canonical, node in info.external_calls:
            if canonical in FORK_CALLS:
                sites.append((info, node))
        for label, node in info.dynamic_calls:
            if label in FORK_LABELS:
                sites.append((info, node))
    sites.sort(key=lambda pair: (pair[0].module, pair[1].lineno))
    return sites


def _worker_entries(index: ProgramIndex,
                    sites: List[Tuple[FunctionInfo, ast.Call]],
                    ) -> Set[str]:
    """Resolved ``target=`` entry points of every fork site."""
    entries: Set[str] = set()
    for info, node in sites:
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            target = index.resolve_in(info.qual, keyword.value)
            if target is not None \
                    and index.function_for(target) is not None:
                entries.add(index.function_for(target).qual)
    return entries


def _names_passed_to_fork(sites: List[Tuple[FunctionInfo, ast.Call]],
                          ) -> Dict[str, Set[str]]:
    """Bare names handed to fork sites via ``args=``/``kwargs=``.

    A module-level queue passed as ``Process(args=(Q,))`` reaches the
    worker as a parameter, so the worker never names the global; the
    fork site itself is the evidence it crosses.
    """
    passed: Dict[str, Set[str]] = {}
    for info, node in sites:
        for keyword in node.keywords:
            if keyword.arg not in ("args", "kwargs"):
                continue
            for child in ast.walk(keyword.value):
                if isinstance(child, ast.Name) \
                        and isinstance(child.ctx, ast.Load):
                    passed.setdefault(info.module, set()).add(child.id)
    return passed


def _module_level_hazards(index: ProgramIndex, module_name: str,
                          tree: ast.Module,
                          ) -> List[Tuple[str, str, ast.stmt]]:
    """``(name, kind, stmt)`` for hazardous import-time bindings."""
    body_qual = f"{module_name}.{MODULE_BODY}"
    hazards: List[Tuple[str, str, ast.stmt]] = []
    for stmt in tree.body:
        target_name: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target_name = stmt.targets[0].id
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            target_name = stmt.target.id
            value = stmt.value
        if target_name is None or not isinstance(value, ast.Call):
            continue
        canonical = index.calls.resolve_in(body_qual, value.func)
        if canonical in PREFORK_HAZARDS:
            hazards.append((target_name, PREFORK_HAZARDS[canonical], stmt))
    return hazards


def _worker_readers(index: ProgramIndex, worker_partition: Set[str],
                    module_name: str, global_name: str) -> Set[str]:
    """Worker-partition functions that reference a module-level name."""
    canonical = f"{module_name}.{global_name}"
    readers: Set[str] = set()
    for qual in worker_partition:
        info = index.functions.get(qual)
        if info is None or info.name == MODULE_BODY:
            continue
        if info.module == module_name:
            for node in ast.walk(info.node):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load) \
                        and node.id == global_name:
                    readers.add(info.name)
                    break
        else:
            for node in ast.walk(info.node):
                if isinstance(node, ast.Attribute) \
                        and index.resolve_in(qual, node) == canonical:
                    readers.add(info.name)
                    break
    return readers
