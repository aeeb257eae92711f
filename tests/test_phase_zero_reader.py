"""The phase-zero rule of an oscillatory tail has one reader.

``quadrature.OscillatoryTail._zero`` is the one place that calls a tail's
``phase_zero_rule``: it reads an arithmetic error of the rule as inf, and
checks the zero it reads against the one before when it is given that.  So
every read of the attribute ``phase_zero_rule`` in ``src/`` must be that
one call: a second call site, or the rule bound to a name and called later,
would read the rule past the check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paramint"


class _Reads(ast.NodeVisitor):
    """(module, enclosing qualified name, called there) of each read of
    ``.phase_zero_rule``."""

    def __init__(self, module: str):
        self.module, self.scope, self.calls, self.found = module, [], set(), []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        self.calls.add(id(node.func))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == "phase_zero_rule":
            self.found.append((self.module, ".".join(self.scope), id(node) in self.calls))
        self.generic_visit(node)


def test_phase_zero_rule_is_called_only_by_the_zero_reader():
    found = []
    for path in sorted(SRC.glob("*.py")):
        reads = _Reads(path.name)
        reads.visit(ast.parse(path.read_text(), str(path)))
        found += reads.found
    assert found == [("quadrature.py", "OscillatoryTail._zero", True)]
