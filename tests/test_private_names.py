"""Each private (_-prefixed) module-level function or class of src/crystile
is used somewhere in src/crystile outside its own definition.  A helper
that only its definition names is dead code, whatever the tests import."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystile"


def _private_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _uses(tree):
    """(name, line) of every name and attribute read in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_private_helpers_are_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {(file, name, line) for file, tree in trees.items() for name, line in _uses(tree)}
    defined, unused = 0, []
    for file, tree in trees.items():
        for node in _private_definitions(tree):
            defined += 1
            if not any(name == node.name and not (f == file and node.lineno <= line <= node.end_lineno)
                       for f, name, line in uses):
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert defined > 50 and unused == []
