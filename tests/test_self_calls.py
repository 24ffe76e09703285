"""The package's functions that call themselves, by name.

A recursive walk of a tree goes as deep as the tree; each one that is
left must be bounded by ``MAX_TREE_DEPTH`` or by the data it walks.
This test lists them so that a new one is a deliberate choice.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "routeboost"

# build and descend are nested in learners._fit_tree and
# TreeLearner.predict_matrix.
SELF_CALLING = {
    "config:_check_type",
    "learners:_node_from_dict",
    "learners:build",
    "learners:descend",
}


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
