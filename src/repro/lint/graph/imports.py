"""Project import graph and per-module symbol tables.

For every :class:`~repro.lint.module.LintModule` this builds

* the set of *project-internal* modules it imports (the import graph's
  adjacency), each edge keeping the AST node that created it so rules
  can attach findings to the offending ``import`` line; and
* a symbol table mapping the module's local names to canonical dotted
  targets -- ``from repro.runner.sweep import _attempt_task`` binds
  ``_attempt_task`` to ``repro.runner.sweep._attempt_task``, ``import
  multiprocessing as mp`` binds ``mp`` to ``multiprocessing``.

``from pkg import name`` is ambiguous between a submodule and a symbol;
it resolves against the project's module set (if ``pkg.name`` is a
project module the binding is a module binding, otherwise a symbol of
``pkg``). Relative imports resolve against the importing module's
package. Imports of modules outside the project are kept in the symbol
table (external analyses need ``mp`` -> ``multiprocessing``) but create
no graph edge.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lint.module import LintModule, LintProject


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import: ``importer`` imports ``imported``."""

    importer: str
    imported: str
    lineno: int
    col: int


@dataclass
class ModuleSymbols:
    """Local name -> canonical dotted target for one module."""

    module: str
    #: Names bound to modules (project or external): ``mp`` ->
    #: ``multiprocessing``, ``timing`` -> ``repro.sim.timing``.
    modules: Dict[str, str] = field(default_factory=dict)
    #: Names bound to symbols of other modules: ``_attempt_task`` ->
    #: ``repro.runner.sweep._attempt_task``.
    symbols: Dict[str, str] = field(default_factory=dict)

    def canonical(self, name: str) -> Optional[str]:
        """The dotted target bound to a bare local name, if any."""
        if name in self.symbols:
            return self.symbols[name]
        return self.modules.get(name)

    def resolve_dotted(self, dotted: str) -> Optional[str]:
        """Canonicalize ``a.b.c`` through this module's import bindings.

        Only the head is rewritten: ``mp.Queue`` -> ``multiprocessing.
        Queue``. Unbound heads come back unchanged (the caller decides
        whether a bare builtin like ``print`` is interesting).
        """
        head, _, rest = dotted.partition(".")
        canonical = self.canonical(head)
        if canonical is None:
            return None
        return f"{canonical}.{rest}" if rest else canonical


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute form of a ``from ...x import y`` relative import."""
    parts = module.split(".")
    # Level 1 anchors at the containing package -- which, for a package
    # __init__, is the module itself; every extra level climbs one up.
    anchor = parts if is_package else parts[:-1]
    if level > 1:
        anchor = anchor[:len(anchor) - (level - 1)]
    if not anchor:
        return None  # beyond the project root
    base = ".".join(anchor)
    if target:
        return f"{base}.{target}" if base else target
    return base or None


class ImportGraph:
    """Adjacency of project-internal imports, plus symbol tables."""

    def __init__(self, project: LintProject):
        self._names: Set[str] = {module.name for module in project}
        self._packages: Set[str] = self._find_packages(project)
        self.edges: List[ImportEdge] = []
        self.imports: Dict[str, Set[str]] = {m.name: set() for m in project}
        self.symbols: Dict[str, ModuleSymbols] = {}
        for module in project:
            self._scan(module)

    def _find_packages(self, project: LintProject) -> Set[str]:
        """Module names that are packages (some other module nests under)."""
        packages: Set[str] = set()
        for module in project:
            parts = module.name.split(".")
            for i in range(1, len(parts)):
                packages.add(".".join(parts[:i]))
        return packages

    def is_project_module(self, name: str) -> bool:
        return name in self._names

    def _module_or_ancestor(self, name: str) -> Optional[str]:
        """The longest project-module prefix of a dotted name."""
        parts = name.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self._names:
                return candidate
        return None

    def _add_edge(self, importer: str, imported: str, node: ast.AST) -> None:
        if imported == importer:
            return
        self.imports[importer].add(imported)
        self.edges.append(ImportEdge(
            importer=importer, imported=imported,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        ))

    def _scan(self, module: LintModule) -> None:
        table = ModuleSymbols(module.name)
        self.symbols[module.name] = table
        is_package = module.name in self._packages \
            or module.path.endswith("__init__.py")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bound = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    table.modules[local] = bound
                    target = self._module_or_ancestor(alias.name)
                    if target is not None:
                        self._add_edge(module.name, target, node)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(module.name, is_package,
                                             node.level, node.module)
                    if base is None:
                        continue
                else:
                    base = node.module
                    if base is None:
                        continue
                base_target = self._module_or_ancestor(base)
                if base_target is not None:
                    self._add_edge(module.name, base_target, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    full = f"{base}.{alias.name}"
                    if full in self._names:
                        # Submodule import: from repro.sim import timing
                        table.modules[local] = full
                        self._add_edge(module.name, full, node)
                    else:
                        table.symbols[local] = full

    # -- queries -------------------------------------------------------------

    def edges_from(self, name: str) -> List[ImportEdge]:
        return [edge for edge in self.edges if edge.importer == name]

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with more than one module.

        Tarjan over the project import graph; each cycle comes back as
        a sorted module list, and the result is sorted for stable
        golden assertions.
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        result: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for neighbor in sorted(self.imports.get(node, ())):
                if neighbor not in index:
                    strongconnect(neighbor)
                    lowlink[node] = min(lowlink[node], lowlink[neighbor])
                elif neighbor in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbor])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    result.append(sorted(component))

        for name in sorted(self.imports):
            if name not in index:
                strongconnect(name)
        return sorted(result)

    def transitive_imports(self, name: str) -> Set[str]:
        """Every project module reachable from ``name`` via imports."""
        seen: Set[str] = set()
        frontier: List[str] = [name]
        while frontier:
            current = frontier.pop()
            for target in self.imports.get(current, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen


def dotted_expr(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_expr(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


