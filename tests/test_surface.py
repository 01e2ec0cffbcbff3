"""The package's public surface: no library code that only tests call.

``test_every_public_name_has_a_caller`` parses ``src/spack/*.py`` and
collects every public module-level function and class and every public
method.  Each must be named somewhere in the non-test code: the other
modules of ``src/spack`` (``__init__.py`` excluded, since re-exporting
is not calling), ``scripts/`` or ``perfbench/``.  A name counts as used
when it appears as an identifier, an attribute or an imported name.
The scan compares names, not bindings, so it cannot see a dead function
whose name collides with a live attribute or local: a module-level
``potential`` function would pass, because ``state.potential`` is used.

``test_every_public_property_is_read_outside_tests`` does the same for
computed attributes: every public ``property`` or ``cached_property`` on
a class of ``src/spack``, decorated or assigned, must be read as an
attribute in that non-test code.

``test_no_module_imports_a_name_it_never_uses`` stands in for a linter's
unused-import rule: every name a module of ``src/spack`` other than
``__init__.py`` binds by a module-level import must be read in that
module.

``test_no_module_reads_the_environment`` keeps the package's settings
in its parameters: no module of ``src/spack`` names ``os.environ`` or
``os.getenv``.

``test_every_private_helper_is_referenced`` catches what a deletion
leaves behind: every private (``_``-prefixed, not dunder) module-level
function, class or assigned name (a constant or table) of
``src/spack``, and every private method, must be named as an
identifier somewhere in the package outside its own definition.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import spack

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spack"

# Called from outside the repository's code: the console-script entry
# point that pyproject.toml declares.
ENTRY_POINTS = {"cli.console"}

EXPORTS = [
    "ChiRhoResult",
    "ColorClass",
    "ColorOptions",
    "ColorResult",
    "CubicComponentError",
    "DecisionOutcome",
    "FormatError",
    "Graph",
    "GraphError",
    "MoveBudgetExceededError",
    "PackingColoring",
    "Status",
    "StuckError",
    "VerifyResult",
    "build_graph",
    "chi_rho",
    "color_graph",
    "coloring_from_json",
    "coloring_to_json",
    "decide",
    "derive_subdivision_coloring",
    "encode_edge_list",
    "encode_graph6",
    "parse_edge_list",
    "parse_graph6",
    "subdivide",
    "verify",
    "verify_sequence_shape",
]


def _public_definitions() -> list[str]:
    """``module.name`` and ``module.Class.method`` for every public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append(f"{path.stem}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    out.extend(
                        f"{path.stem}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    )
    return out


def _public_properties(source: str) -> list[str]:
    """``Class.name`` for each public property or cached_property in ``source``.

    Both spellings count: a decorated method, and a class attribute
    assigned ``property(...)`` or ``cached_property(...)``, which the
    method scan above does not see.
    """
    out = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and any(map(_is_property, item.decorator_list)):
                names = [item.name]
            elif isinstance(item, ast.Assign) and _is_property(getattr(item.value, "func", None)):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                names = []
            out.extend(f"{cls.name}.{name}" for name in names if not name.startswith("_"))
    return out


def _is_property(node: ast.expr | None) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("property", "cached_property")


def _files_outside_tests() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return files


def _identifiers(tree: ast.AST) -> list[str]:
    """Every name, attribute and imported name in ``tree``, with repeats."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.rpartition(".")[2])
    return out


def _names_used_outside_tests() -> set[str]:
    return {name for path in _files_outside_tests() for name in _identifiers(ast.parse(path.read_text()))}


def test_every_public_name_has_a_caller():
    used = _names_used_outside_tests()
    unused = [
        name
        for name in _public_definitions()
        if name.rpartition(".")[2] not in used and name not in ENTRY_POINTS
    ]
    assert unused == []


def test_every_public_property_is_read_outside_tests():
    read = {
        node.attr
        for path in _files_outside_tests()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = [
        f"{path.stem}.{prop}"
        for path in sorted(PACKAGE.glob("*.py"))
        for prop in _public_properties(path.read_text())
    ]
    assert "graph.Graph.edge_count" in found
    assert [prop for prop in found if prop.rpartition(".")[2] not in read] == []


def test_the_property_scan_sees_an_assigned_cached_property():
    source = (
        "class Map:\n"
        "    def _pairs(self):\n"
        "        return {}\n"
        "    pairs = cached_property(_pairs)\n"
        "    @functools.cached_property\n"
        "    def size(self):\n"
        "        return 0\n"
    )
    assert _public_properties(source) == ["Map.pairs", "Map.size"]


def test_all_is_pinned():
    assert sorted(spack.__all__) == EXPORTS


def test_star_import_binds_every_name():
    namespace: dict[str, object] = {}
    exec("from spack import *", namespace)
    assert [name for name in EXPORTS if name not in namespace] == []


def _unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each module-level import binding the module never reads."""
    tree = ast.parse(path.read_text())
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert [dead for path in modules for dead in _unused_imports(path)] == []


def test_no_module_reads_the_environment():
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.alias) and node.name in ("environ", "getenv"))
    ]
    assert readers == []


def _private_definitions(tree: ast.Module):
    """``(name, node)`` for each private definition of ``tree``.

    That is each private module-level function, class or assigned name,
    and each private method; ``node`` is the statement that defines it.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (
                (item.name, item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and _is_private(item.name)
            )
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if _is_private(name))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _orphaned_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private definition named nowhere outside itself."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    total = Counter(name for tree in trees.values() for name in _identifiers(tree))
    return [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name, node in _private_definitions(tree)
        if total[name] == _identifiers(node).count(name)
    ]


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert sum(1 for text in sources.values() for _ in _private_definitions(ast.parse(text))) > 40
    assert _orphaned_private_helpers(sources) == []


def test_the_private_helper_scan_sees_an_orphan():
    sources = {
        "a": "_TABLE = (1, 2)\n_ORPHAN_TABLE: tuple = (3,)\n\n"
        "def _used():\n    return _TABLE[0]\n\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n\n"
        "class C:\n    def _method(self):\n        return 0\n    def __init__(self):\n        pass\n",
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    assert _orphaned_private_helpers(sources) == ["a._ORPHAN_TABLE", "a._recursive", "a._method"]
