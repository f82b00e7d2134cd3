"""Resolved project call graph with conservative dynamic fallbacks.

Every function, method, and module body in the project becomes a
:class:`FunctionInfo` node keyed by its dotted qualified name
(``repro.runner.supervisor.SupervisedPool.run``; module bodies use the
pseudo-name ``<module>``). Call edges are resolved through each
module's symbol table (:mod:`repro.lint.graph.imports`):

* bare names resolve to local/nested defs, module-level defs, then
  imported symbols;
* ``self.method()`` resolves inside the enclosing class;
* ``module.func()`` resolves through module bindings into other
  project modules;
* instantiating a project class adds an edge to its ``__init__``.

Anything else is a *dynamic* call. Dynamic calls are never dropped:
each is recorded on the caller with its best-effort label (the
attribute or variable name) so rules can stay conservative --
signal-safety, for example, flags dynamic calls whose method name
matches a blocking primitive (``acquire``, ``write``...) even though
the receiver's type is unknown. Calls into modules outside the project
are recorded as *external* calls under their canonical dotted name
(``multiprocessing.Queue``, ``signal.signal``, ``print``).

References that are not calls (``target=_worker_main`` in a
``Process(...)`` constructor, callbacks stored in variables) are kept
as ``ref`` edges; reachability can include them, because a function
whose reference escapes into a context may well be invoked there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.lint.graph.imports import ImportGraph, dotted_expr
from repro.lint.module import LintModule, LintProject

#: Pseudo-function name for a module's top-level (and class-body) code.
MODULE_BODY = "<module>"

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class FunctionInfo:
    """One node of the call graph."""

    qual: str
    module: str
    name: str
    cls: Optional[str]
    node: ast.AST
    lineno: int
    #: Positional parameter names, in order (``self``/``cls`` included).
    params: Tuple[str, ...] = ()
    #: Resolved project-internal callees (function quals).
    calls: Set[str] = field(default_factory=set)
    #: Project functions referenced without being called directly.
    refs: Set[str] = field(default_factory=set)
    #: Calls leaving the project: (canonical dotted name, Call node).
    external_calls: List[Tuple[str, ast.Call]] = field(default_factory=list)
    #: Unresolvable calls: (best-effort label, Call node).
    dynamic_calls: List[Tuple[str, ast.Call]] = field(default_factory=list)
    #: Module-level names this function rebinds via ``global``.
    global_writes: Set[str] = field(default_factory=set)
    #: Module-level containers this function mutates in place
    #: (subscript stores, ``append``/``update``/... method calls).
    mutations: Set[str] = field(default_factory=set)


#: In-place mutator methods that count as writes to a shared container.
_MUTATOR_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "put", "put_nowait",
})


class _ModuleScan:
    """Per-module pass: register defs, then resolve every body."""

    def __init__(self, graph: "CallGraph", module: LintModule):
        self.graph = graph
        self.module = module
        self.symbols = graph.imports.symbols[module.name]
        #: Top-level defs: bare name -> qual (functions and classes).
        self.toplevel: Dict[str, str] = {}
        #: Names assigned at module level (shared-state candidates).
        self.module_names: Set[str] = set()

    # -- pass 1: registration ------------------------------------------------

    def register(self) -> None:
        prefix = self.module.name
        for stmt in self.module.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                qual = f"{prefix}.{stmt.name}"
                self.toplevel[stmt.name] = qual
                self.graph._register_function(qual, self.module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                class_qual = f"{prefix}.{stmt.name}"
                self.toplevel[stmt.name] = class_qual
                methods: Dict[str, str] = {}
                for item in stmt.body:
                    if isinstance(item, _FUNCTION_NODES):
                        method_qual = f"{class_qual}.{item.name}"
                        methods[item.name] = method_qual
                        self.graph._register_function(
                            method_qual, self.module, item, stmt.name)
                self.graph.classes[class_qual] = methods
            else:
                for target in _assigned_names(stmt):
                    self.module_names.add(target)
        body_qual = f"{prefix}.{MODULE_BODY}"
        self.graph._register_function(body_qual, self.module,
                                      self.module.tree, None)

    # -- pass 2: body resolution ---------------------------------------------

    def scan_bodies(self) -> None:
        prefix = self.module.name
        body_info = self.graph.functions[f"{prefix}.{MODULE_BODY}"]
        body_stmts: List[ast.stmt] = []
        for stmt in self.module.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                self._scan_function(self.graph.functions[
                    f"{prefix}.{stmt.name}"], locals_chain={})
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCTION_NODES):
                        self._scan_function(self.graph.functions[
                            f"{prefix}.{stmt.name}.{item.name}"],
                            locals_chain={})
                    else:
                        # Class-level state (a lock created at import
                        # time, say) executes with the module body.
                        body_stmts.append(item)
            else:
                body_stmts.append(stmt)
        self._scan_stmts(body_info, body_stmts, locals_chain={},
                         local_binds=set())

    def _scan_function(self, info: FunctionInfo,
                       locals_chain: Dict[str, str]) -> None:
        node = info.node
        assert isinstance(node, _FUNCTION_NODES)
        local_binds: Set[str] = {arg.arg for arg in _all_args(node.args)}
        # Nested defs are callable by bare name inside this body.
        nested: Dict[str, str] = dict(locals_chain)
        direct_nested = [stmt for stmt in node.body
                         if isinstance(stmt, _FUNCTION_NODES)]
        for child in direct_nested:
            child_qual = f"{info.qual}.{child.name}"
            nested[child.name] = child_qual
            local_binds.add(child.name)
            self.graph._register_function(child_qual, self.module, child,
                                          info.cls)
        self._scan_stmts(info,
                         [s for s in node.body
                          if not isinstance(s, _FUNCTION_NODES)],
                         locals_chain=nested, local_binds=local_binds)
        for child in direct_nested:
            child_info = self.graph.functions[f"{info.qual}.{child.name}"]
            self._scan_function(child_info, locals_chain=nested)

    def _scan_stmts(self, info: FunctionInfo, stmts: List[ast.stmt],
                    locals_chain: Dict[str, str],
                    local_binds: Set[str]) -> None:
        for stmt in _scoped_statements(stmts):
            if isinstance(stmt, ast.Global):
                info.global_writes.update(stmt.names)
            local_binds.update(_assigned_names(stmt))
        local_binds -= info.global_writes
        resolver = self._make_resolver(info, locals_chain, local_binds)
        self.graph._resolvers[info.qual] = resolver
        collector = _CallCollector(self, info, resolver, local_binds)
        for stmt in stmts:
            collector.visit(stmt)

    # -- name resolution -----------------------------------------------------

    def _make_resolver(self, info: FunctionInfo,
                       locals_chain: Dict[str, str],
                       local_binds: Set[str],
                       ) -> Callable[[ast.AST], Optional[str]]:
        """Resolve an expression to a canonical dotted target.

        Returns a project function/class qual, an external canonical
        dotted name, or ``None`` for anything dynamic. Locally bound
        names (parameters, assignments) shadow module-level targets and
        resolve to ``None`` -- their values are unknown.
        """
        def resolve(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Name):
                name = expr.id
                if name in locals_chain:
                    return locals_chain[name]
                if name in local_binds:
                    return None
                if name in self.toplevel:
                    return self.toplevel[name]
                canonical = self.symbols.canonical(name)
                if canonical is not None:
                    return canonical
                if name in self.module_names:
                    return None  # a module-level value, not a def
                return name  # builtin or undefined: external canonical
            if isinstance(expr, ast.Attribute):
                dotted = dotted_expr(expr)
                if dotted is None:
                    return None
                head, _, rest = dotted.partition(".")
                if head == "self" and info.cls is not None and rest:
                    class_qual = f"{info.module}.{info.cls}"
                    methods = self.graph.classes.get(class_qual, {})
                    if "." not in rest and rest in methods:
                        return methods[rest]
                    return None  # instance state: dynamic
                if head in local_binds:
                    return None
                if head in self.toplevel and rest:
                    # ClassName.method / ClassName.attr in this module
                    return f"{self.toplevel[head]}.{rest}"
                canonical = self.symbols.resolve_dotted(dotted)
                if canonical is not None:
                    return canonical
                if head in self.module_names:
                    return None
                return dotted
            return None
        return resolve


class _CallCollector(ast.NodeVisitor):
    """Collect call/ref/mutation facts for one function body."""

    def __init__(self, scan: _ModuleScan, info: FunctionInfo,
                 resolver: Callable[[ast.AST], Optional[str]],
                 local_binds: Set[str]):
        self.scan = scan
        self.graph = scan.graph
        self.info = info
        self.resolve = resolver
        self.local_binds = local_binds

    # Nested defs are scanned as their own functions.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        if target is None:
            label = _call_label(node.func)
            self.info.dynamic_calls.append((label, node))
            if label in _MUTATOR_METHODS:
                self._note_mutation(node.func)
            # The callee's subexpressions still need visiting
            # (x().y() chains); resolution consumed nothing.
            self.visit(node.func)
        else:
            self.graph._raw_calls.append((self.info.qual, target, node))
        for child in ast.iter_child_nodes(node):
            if child is not node.func:
                self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            target = self.resolve(node)
            if target is not None:
                self.graph._raw_refs.append((self.info.qual, target))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.generic_visit(node)

    def _check_store(self, target: ast.AST) -> None:
        """Subscript stores on module-level names are shared mutations."""
        if isinstance(target, (ast.Subscript,)) \
                and isinstance(target.value, ast.Name):
            self._note_mutation(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)

    def _note_mutation(self, func_expr: ast.AST) -> None:
        """Record in-place mutation of a module-level container."""
        base = func_expr
        if isinstance(base, ast.Attribute):
            base = base.value
        if isinstance(base, ast.Name) \
                and base.id not in self.local_binds \
                and base.id in self.scan.module_names:
            self.info.mutations.add(base.id)


class CallGraph:
    """Every function in the project, with resolved call edges."""

    def __init__(self, project: LintProject, imports: ImportGraph):
        self.project = project
        self.imports = imports
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, Dict[str, str]] = {}
        self._resolvers: Dict[str, Callable[[ast.AST], Optional[str]]] = {}
        self._raw_calls: List[Tuple[str, str, ast.Call]] = []
        self._raw_refs: List[Tuple[str, str]] = []
        scans = [_ModuleScan(self, module) for module in project]
        for scan in scans:
            scan.register()
        for scan in scans:
            scan.scan_bodies()
        self._finalize()

    # -- construction helpers ------------------------------------------------

    def _register_function(self, qual: str, module: LintModule,
                           node: ast.AST, cls: Optional[str]) -> None:
        params: Tuple[str, ...] = ()
        if isinstance(node, _FUNCTION_NODES):
            params = tuple(arg.arg for arg in node.args.posonlyargs
                           ) + tuple(arg.arg for arg in node.args.args)
        self.functions[qual] = FunctionInfo(
            qual=qual,
            module=module.name,
            name=qual.rsplit(".", 1)[-1],
            cls=cls,
            node=node,
            lineno=getattr(node, "lineno", 1),
            params=params,
        )

    def _finalize(self) -> None:
        """Classify raw targets into project calls vs external calls."""
        for caller, target, node in self._raw_calls:
            info = self.functions[caller]
            resolved = self._as_function(target)
            if resolved is not None:
                info.calls.add(resolved)
            elif target in self.classes:
                pass  # a class with no __init__: nothing to reach
            elif self._in_project_namespace(target):
                # A project-shaped name we could not pin to a def:
                # conservative fallback, recorded as dynamic.
                info.dynamic_calls.append((target, node))
            else:
                info.external_calls.append((target, node))
        for caller, target in self._raw_refs:
            info = self.functions[caller]
            resolved = self._as_function(target)
            if resolved is not None and resolved != caller:
                info.refs.add(resolved)
        self._raw_calls = []
        self._raw_refs = []

    def _as_function(self, target: str) -> Optional[str]:
        """Map a canonical target to a function qual, if it names one."""
        if target in self.functions:
            return target
        methods = self.classes.get(target)
        if methods is not None:
            # Instantiation: reach the constructor when it exists,
            # otherwise the class itself contributes no body.
            return methods.get("__init__")
        if target in self.classes:
            return None
        # module.<module> pseudo-functions are never call targets.
        return None

    def _in_project_namespace(self, target: str) -> bool:
        parts = target.split(".")
        for i in range(len(parts), 0, -1):
            if self.imports.is_project_module(".".join(parts[:i])):
                return True
        return False

    # -- queries -------------------------------------------------------------

    def resolve_in(self, function_qual: str,
                   expr: ast.AST) -> Optional[str]:
        """Resolve ``expr`` in the naming context of ``function_qual``."""
        resolver = self._resolvers.get(function_qual)
        return resolver(expr) if resolver is not None else None

    def function_for(self, target: str) -> Optional[FunctionInfo]:
        qual = self._as_function(target)
        return self.functions.get(qual) if qual is not None else None

    def module_body(self, module: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{module}.{MODULE_BODY}")

    def reachable(self, roots: "List[str] | Set[str]",
                  follow_refs: bool = False) -> Set[str]:
        """Function quals reachable from ``roots`` along call edges.

        ``follow_refs`` additionally follows reference edges -- a
        function whose reference escapes into reachable code may be
        invoked there, so conservative rules (fork-safety partitions,
        signal-handler walks) turn this on.
        """
        seen: Set[str] = set()
        frontier = [qual for qual in roots if qual in self.functions]
        seen.update(frontier)
        while frontier:
            info = self.functions[frontier.pop()]
            neighbors = set(info.calls)
            if follow_refs:
                neighbors |= info.refs
            for target in neighbors:
                if target not in seen and target in self.functions:
                    seen.add(target)
                    frontier.append(target)
        return seen


def _call_label(func_expr: ast.AST) -> str:
    """Best-effort label of a dynamic call (attr or variable name)."""
    if isinstance(func_expr, ast.Attribute):
        return func_expr.attr
    if isinstance(func_expr, ast.Name):
        return func_expr.id
    dotted = dotted_expr(func_expr)
    return dotted if dotted is not None else "<dynamic>"


def _assigned_names(stmt: ast.stmt) -> List[str]:
    """Bare names a statement binds (assignment targets, with/for/etc.)."""
    names: List[str] = []

    def collect(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        elif isinstance(target, ast.Starred):
            collect(target.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            collect(target)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                collect(item.optional_vars)
    return names


def _scoped_statements(stmts: List[ast.stmt]) -> List[ast.stmt]:
    """All statements in these blocks, minus nested def/class scopes."""
    result: List[ast.stmt] = []
    frontier = list(stmts)
    while frontier:
        stmt = frontier.pop()
        if isinstance(stmt, _FUNCTION_NODES) or isinstance(stmt,
                                                           ast.ClassDef):
            continue
        result.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                frontier.append(child)
    return result


def _all_args(args: ast.arguments) -> List[ast.arg]:
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        every.append(args.vararg)
    if args.kwarg is not None:
        every.append(args.kwarg)
    return every
