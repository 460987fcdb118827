"""Each public module-level function or class of src/crystile has a
caller outside the tests: code in src/crystile reads it outside its own
definition, a script or the benchmark names it (the tracer lists names as
strings), or crystile/__init__.py exports it.  A public name that only
the tests call is a second implementation no pipeline runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crystile"


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _uses(tree):
    """(name, line) of every name and attribute read in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _named_outside():
    """Every word of the scripts and the benchmark code."""
    text = "".join(path.read_text() for folder in ("scripts", "bench")
                   for path in sorted((ROOT / folder).glob("*.py")))
    return set(re.findall(r"\w+", text))


def test_public_names_have_a_caller_outside_the_tests():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    uses = {(file, name, line) for file, tree in trees.items() for name, line in _uses(tree)}
    outside = _exported() | _named_outside()
    defined, unused = 0, []
    for file, tree in trees.items():
        for node in _public_definitions(tree):
            defined += 1
            if node.name in outside:
                continue
            if not any(name == node.name and not (f == file and node.lineno <= line <= node.end_lineno)
                       for f, name, line in uses):
                unused.append(f"{file}:{node.lineno} {node.name}")
    assert defined > 50 and unused == []
