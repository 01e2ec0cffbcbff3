"""What ``perfbench/`` uses of the package still exists.

The benchmark's traced replay drives the library's stages through its
module-level names, so a refactor that renames one breaks the benchmark
while every other test passes.  These tests parse ``perfbench/*.py``
with ``ast`` and check, without running the benchmark:

- every ``from spack.<mod> import <name>`` (and ``import spack...``)
  resolves;
- every keyword passed to a function or dataclass imported from
  ``spack`` is a parameter of it;
- every ``options.<attr>`` read is a ``ColorOptions`` field.
"""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from spack.colorer import ColorOptions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trees() -> list[tuple[str, ast.Module]]:
    return [(p.name, ast.parse(p.read_text())) for p in sorted(PERFBENCH.glob("*.py"))]


def _spack_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every ``from spack... import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spack"
        for alias in node.names
    ]


def test_perfbench_spack_imports_resolve():
    missing = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "spack":
                        importlib.import_module(alias.name)
        for module, attr in _spack_imports(tree):
            if not hasattr(importlib.import_module(module), attr):
                missing.append(f"{name}: from {module} import {attr}")
    assert missing == []


def test_perfbench_keywords_are_parameters():
    unknown = []
    keywords = 0
    for name, tree in _trees():
        imported = {
            attr: getattr(importlib.import_module(module), attr)
            for module, attr in _spack_imports(tree)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            target = imported.get(node.func.id)
            if not (inspect.isfunction(target) or dataclasses.is_dataclass(target)):
                continue
            params = inspect.signature(target).parameters
            for kw in node.keywords:
                keywords += 1
                if kw.arg is not None and kw.arg not in params:
                    unknown.append(f"{name}: {node.func.id}({kw.arg}=...)")
    assert keywords > 0
    assert unknown == []


def test_perfbench_reads_only_color_options_fields():
    fields = {f.name for f in dataclasses.fields(ColorOptions)}
    read = {
        (name, node.attr)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "options"
    }
    assert read
    assert sorted((name, attr) for name, attr in read if attr not in fields) == []
