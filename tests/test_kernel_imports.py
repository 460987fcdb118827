"""The polytope kernel runs its set logic on int rows: polytope.py imports
none of linalg's rational routines, whose elimination forms a Q per entry
(the wrappers stay in linalg for the benchmark's tracer, which names them)."""

import ast
from pathlib import Path

POLYTOPE = Path(__file__).resolve().parents[1] / "src" / "crystile" / "polytope.py"
RATIONAL_ROUTINES = {"vdot", "mat_rank", "solve_linear", "nullspace", "mat_inv"}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_polytope_imports_no_rational_routine():
    tree = ast.parse(POLYTOPE.read_text(), str(POLYTOPE))
    names = set(_imported_names(tree))
    assert "int_rref" in names and names & RATIONAL_ROUTINES == set()
    # nor reads one through a module attribute (linalg.mat_rank)
    assert not any(isinstance(node, ast.Attribute) and node.attr in RATIONAL_ROUTINES
                   for node in ast.walk(tree))
