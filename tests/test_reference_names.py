"""Each old_* or table_* reference of the test modules is defined at module
level in one module only, and some test module reads it outside its own
definition: one reference per replaced function, and none that no test runs."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_old_references_are_defined_once_and_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(TESTS.glob("*.py"))}
    reads = {(file, node.id, node.lineno) for file, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Name)}
    defined = {}
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("old_", "table_")):
                defined.setdefault(node.name, []).append((file, node))
    twice = sorted(f"{name}: {', '.join(f for f, _ in where)}"
                   for name, where in defined.items() if len(where) > 1)
    unread = [f"{file}:{node.lineno} {name}" for name, [(file, node), *_] in defined.items()
              if not any(n == name and not (f == file and node.lineno <= line <= node.end_lineno)
                         for f, n, line in reads)]
    assert len(defined) > 30 and twice == [] and unread == []
