"""Layering: the declared module-dependency contract, enforced.

The reproduction is layered so the *model* (config, topology,
interconnect, sim...) never knows about the *harness* (runner, cli,
experiments) or the *tooling* (lint): headline numbers must be
computable from the model layers alone, and the lint package must be
importable into any checkout without dragging the simulator in.

``CONTRACT`` below is the declared intent -- for each top-level unit
under ``repro``, the units it may import from. It is checked against
the **real** import graph every lint run: an ``import`` statement
creating an edge the contract does not allow is flagged at its line.
DESIGN.md carries the same contract as a diagram; this rule is the
executable copy.

Two historical back-edges are sanctioned explicitly rather than
papered over: ``topology <-> interconnect`` (link indexing lives with
the topology, load accounting with the interconnect) and ``topology ->
faults`` (degraded-link state is part of the topology view). New
cycles do not get this treatment -- tightening an entry here is always
allowed, loosening one needs a DESIGN.md update in the same commit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.lint.findings import Finding, Severity
from repro.lint.graph import ProgramIndex
from repro.lint.module import LintProject
from repro.lint.registry import LintRule, register

#: The project namespace the contract governs.
ROOT = "repro"

#: Unit -> units it may import from. Units are the first path segment
#: under :data:`ROOT` (``repro.sim.timing`` -> ``sim``; ``repro.cli``
#: -> ``cli``; the ``repro/__init__`` facade itself is ``<root>``).
CONTRACT: Dict[str, Set[str]] = {
    # -- foundation: pure data, no project imports --------------------------
    "config": set(),
    "workloads": set(),
    "lint": set(),
    # -- model layers -------------------------------------------------------
    "tracking": {"config", "workloads"},
    "cache": {"config"},
    "trace": {"workloads"},
    "topology": {"config", "interconnect", "faults"},
    "interconnect": {"config", "topology"},
    "coherence": {"topology"},
    "placement": {"topology"},
    "migration": {"config", "obs", "placement", "topology", "tracking"},
    "faults": {"migration", "obs", "placement", "topology"},
    "memory": {"config", "interconnect"},
    "metrics": {"config", "topology", "workloads"},
    "replication": {"config", "workloads"},
    "replay": {"cache", "coherence", "config", "memory", "placement",
               "topology", "trace"},
    "sim": {"config", "faults", "interconnect", "metrics", "migration",
            "obs", "placement", "replication", "topology", "trace",
            "tracking", "workloads"},
    "analysis": {"config", "interconnect", "sim", "topology", "trace",
                 "workloads"},
    # -- observability: metrics only, so any layer may emit -----------------
    "obs": {"metrics"},
    # -- persistence: reads obs traces and exported results; the sim
    #    never imports it, so headline numbers need no database ---------------
    "store": {"config", "obs"},
    # -- harness: may see the model, never the other way around -------------
    "runner": {"obs"},
    "experiments": {"config", "faults", "metrics", "obs", "replication",
                    "runner", "sim", "topology", "trace", "workloads"},
    # -- service: generic job machinery over the runner; the CLI
    #    injects the experiment catalog and scenario runner, so serve
    #    never imports sim/experiments/migration directly ---------------------
    "serve": {"config", "obs", "runner"},
    "cli": {"config", "experiments", "lint", "metrics", "obs", "runner",
            "serve", "store", "topology", "workloads"},
    "__main__": {"cli"},
    # -- the package facade re-exports the public surface --------------------
    "<root>": {"config", "experiments", "sim", "topology", "workloads"},
}


def unit_of_module(name: str) -> Optional[str]:
    """The contract unit a module belongs to, or None outside ROOT."""
    if name == ROOT:
        return "<root>"
    if not name.startswith(ROOT + "."):
        return None
    return name.split(".")[1]


@register
class LayeringRule(LintRule):
    name = "layering"
    severity = Severity.ERROR
    description = (
        "checks the real import graph against the declared "
        "module-dependency contract (model never imports harness)"
    )
    uses_graph = True

    def check_graph(self, project: LintProject,
                    index: ProgramIndex) -> Iterable[Finding]:
        findings: List[Finding] = []
        for edge in index.imports.edges:
            importer_unit = unit_of_module(edge.importer)
            imported_unit = unit_of_module(edge.imported)
            if importer_unit is None or imported_unit is None:
                continue
            if importer_unit == imported_unit:
                continue  # intra-unit imports are always allowed
            module = project.module(edge.importer)
            if module is None:
                continue
            allowed = CONTRACT.get(importer_unit)
            if allowed is None:
                findings.append(Finding(
                    rule=self.name, severity=self.severity,
                    module=module.name, path=module.path,
                    line=edge.lineno, col=edge.col + 1,
                    message=(f"unit '{importer_unit}' is not in the "
                             f"module-dependency contract; declare its "
                             f"allowed imports in "
                             f"repro.lint.rules.layering and DESIGN.md"),
                ))
            elif imported_unit not in allowed:
                findings.append(Finding(
                    rule=self.name, severity=self.severity,
                    module=module.name, path=module.path,
                    line=edge.lineno, col=edge.col + 1,
                    message=(f"'{importer_unit}' may not import "
                             f"'{imported_unit}' (contract allows: "
                             f"{', '.join(sorted(allowed)) or 'nothing'}); "
                             f"loosening the contract requires a DESIGN.md "
                             f"update"),
                ))
        return findings
