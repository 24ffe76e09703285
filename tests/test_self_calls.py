"""No function of the package calls itself.

A recursive walk of a tree goes as deep as the tree, so the package
walks trees with loops. This test keeps it so: a new self-call fails
it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "routeboost"
SELF_CALLING: set[str] = set()


def self_calling(module: str, source: str) -> set[str]:
    """``module:name`` for each function, nested or not, whose body calls
    its own name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == node.name
                for call in ast.walk(node)
            ):
                found.add(f"{module}:{node.name}")
    return found


def test_checker_finds_self_calls():
    source = (
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "def flat(n):\n    return [n]\n"
        "class T:\n    def depth(self):\n"
        "        def inner(n):\n            return inner(n.left)\n"
        "        return inner(self)\n"
    )
    assert self_calling("m", source) == {"m:walk", "m:inner"}


def test_self_calling_functions():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= self_calling(path.stem, path.read_text(encoding="utf-8"))
    assert found == SELF_CALLING
