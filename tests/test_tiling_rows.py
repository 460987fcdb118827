"""A tiling's int cell rows are formed in one place: PeriodicTiling's
__post_init__ forms _ints from the cell tiles, and validation, Aut, images,
candidates and the writer read them.  No other code in src/crystile passes
an expression that reads .cell_tiles to _int_vertices, which would rebuild
rows the tiling holds; besides that formation, only patch, whose tiles are
no tiling's, calls _int_vertices."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystile"
FORMATION = ("tiling.py", "PeriodicTiling.__post_init__")


class _Calls(ast.NodeVisitor):
    """(file, qualified name of the enclosing definition, reads .cell_tiles)
    of every call of _int_vertices, by name or as an attribute."""

    def __init__(self, file):
        self.file, self.where, self.found = file, [], []

    def _enter(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "_int_vertices":
            args = node.args + [k.value for k in node.keywords]
            cells = any(isinstance(a, ast.Attribute) and a.attr == "cell_tiles"
                        for arg in args for a in ast.walk(arg))
            self.found.append((self.file, ".".join(self.where), cells))
        self.generic_visit(node)


def _calls():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Calls(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return found


def test_only_the_formation_of_ints_reads_cell_tiles_into_int_vertices():
    assert [(f, w) for f, w, cells in _calls() if cells] == [FORMATION]


def test_int_vertices_has_two_callers():
    assert sorted((f, w) for f, w, _ in _calls()) == [FORMATION, ("tiling.py", "patch")]
