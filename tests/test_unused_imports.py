"""No module of the package imports a name it never uses, and no private
module-level function or constant goes unreferenced.

No linter is part of the toolchain, so this test stands in for the
unused-name rules of one. ``__init__.py`` is exempt from the import
rule: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "routeboost"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import Mapping, Sequence\n"
        "def f(x: Sequence) -> None:\n    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["Mapping", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_name(stmt: ast.stmt) -> str | None:
    """The ``_name`` a module-level def or assignment binds, if any."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        name = stmt.name
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return None
        name = targets[0].id
    else:
        return None
    return name if name.startswith("_") and not name.startswith("__") else None


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level function or constant
    that no statement other than its own definition reads, in any module."""
    defined = []  # (module, name, statement)
    readers = []  # (statement, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            readers.append((stmt, names))
            if (name := _private_name(stmt)) is not None:
                defined.append((module, name, stmt))
    return sorted(
        f"{module}:{name}"
        for module, name, own in defined
        if not any(name in names for stmt, names in readers if stmt is not own)
    )


def test_checker_finds_unused_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n_UNUSED = 4\n"
            "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
            "def _helper():\n    return 1\n"
        ),
        "b": "from .a import _helper\nimport a\nx = a._LIMIT\n",
    }
    assert unused_private_names(sources) == ["a:_UNUSED", "a:_walk"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_private_names(sources) == []
