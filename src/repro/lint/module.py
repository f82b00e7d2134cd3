"""Parsed-source units handed to lint rules.

A :class:`LintModule` is one parsed Python file plus the metadata rules
key on: its dotted module name (``repro.sim.timing``), its display path,
and its raw source lines (for baseline fingerprints). A
:class:`LintProject` is the whole set of modules under analysis, so
project-level rules (frozen-key, config-drift) can cross-reference
definitions and uses across files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence


def module_name_for(path: Path) -> str:
    """Derive the dotted import name of ``path`` from its package tree.

    Walks up through directories containing ``__init__.py``; a file
    outside any package is addressed by its bare stem.
    """
    path = path.resolve()
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


@dataclass
class LintModule:
    """One parsed source file."""

    name: str
    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, name: str, source: str,
                    path: str = "<memory>") -> "LintModule":
        return cls(
            name=name,
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )

    @classmethod
    def from_path(cls, path: Path) -> "LintModule":
        source = path.read_text(encoding="utf-8")
        return cls.from_source(module_name_for(path), source, str(path))

    def line_text(self, line: int) -> str:
        """The stripped source text of 1-indexed ``line`` ('' if absent)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def in_package(self, prefixes: Iterable[str]) -> bool:
        """Whether this module lives under any of the dotted ``prefixes``."""
        for prefix in prefixes:
            if self.name == prefix or self.name.startswith(prefix + "."):
                return True
        return False


class LintProject:
    """Every module of one lint run, indexed by dotted name."""

    def __init__(self, modules: Sequence[LintModule]):
        self.modules: List[LintModule] = sorted(modules,
                                                key=lambda m: m.name)
        self._by_name: Dict[str, LintModule] = {
            module.name: module for module in self.modules
        }

    def __iter__(self) -> Iterator[LintModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, name: str) -> Optional[LintModule]:
        return self._by_name.get(name)
