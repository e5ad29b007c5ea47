"""Rules on the package source that a run of the code cannot see.

- No module imports scipy: numpy is the one runtime dependency.
- No float is summed with the builtin `sum()`, whose bits changed in
  CPython 3.12.  The one call allowed, in `moments._from_residues`, adds
  Python integers.
- Every name a module assigns at its top level, dunders aside, is read
  somewhere in the package: a constant left behind by a deleted code
  path fails here.
"""

import ast
from pathlib import Path

import pathscape

SRC = Path(pathscape.__file__).resolve().parent
SUM_ALLOWED = {("moments", "_from_residues")}


class _Breaches(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = (module,)
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, self.scope + (node.name,)
        self.generic_visit(node)
        self.scope = outer

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] == "scipy":
                self.found.append(f"{self.scope}: import {alias.name}")

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] == "scipy":
            self.found.append(f"{self.scope}: from {node.module} import")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            if self.scope not in SUM_ALLOWED:
                self.found.append(f"{self.scope}: builtin sum() at line {node.lineno}")
        self.generic_visit(node)


def _breaches(source: str, module: str) -> list:
    visitor = _Breaches(module)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_no_scipy_import_and_no_builtin_sum_of_floats():
    files = sorted(SRC.glob("*.py"))
    assert {p.stem for p in files} >= {"moments", "stats", "hypercube"}
    for path in files:
        assert _breaches(path.read_text(), path.stem) == [], path.name
    # the walker sees each kind of breach, also inside a function
    bad = "import scipy.special\ndef f(x):\n    from scipy import special\n    return sum(x)\n"
    assert len(_breaches(bad, "stats")) == 3
    assert _breaches("def _from_residues(r):\n    return sum(r)\n", "moments") == []


def _names_never_read(sources: dict) -> list:
    # module-level assignment targets that no module loads as a name or
    # reads as an attribute
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                unread += [f"{module}.{n}" for n in names if not n.startswith("__") and n not in read]
    return unread


def test_every_module_level_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _names_never_read(sources) == []
    # the walker sees a name read in another module, by attribute or by
    # name inside a function, and one that nothing reads
    a = "import b\n_A = 1\n_B: int = 2\n_C, _D = 3, 4\n__version__ = '1'\nX = b.Y\n"
    b = "import a\nY = 5\ndef f():\n    return a._A + _C\n"
    assert _names_never_read({"a": a, "b": b}) == ["a._B", "a._D", "a.X"]
