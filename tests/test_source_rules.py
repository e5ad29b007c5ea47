"""Rules on the package source that a run of the code cannot see.

- No module imports scipy: numpy is the one runtime dependency.
- No float is summed with the builtin `sum()`, whose bits changed in
  CPython 3.12.  The one call allowed, in `moments._from_residues`, adds
  Python integers.
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
