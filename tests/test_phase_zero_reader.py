"""The phase-zero rule of an oscillatory tail, and its rate, each have one reader.

``quadrature.OscillatoryTail._zero`` is the one place that calls a tail's
``phase_zero_rule``: it reads an arithmetic error of the rule as inf, and
checks the zero it reads against the one before when it is given that.
``OscillatoryTail._rate`` is the one place that calls its ``zero_rate``:
it refuses a rate that is not finite and positive.  So every read of either
attribute in ``src/`` must be that one call: a second call site, or the
rule bound to a name and called later, would read it past the check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paramint"


class _Reads(ast.NodeVisitor):
    """(module, enclosing qualified name, called there) of each read of
    the attribute ``attr``."""

    def __init__(self, module: str, attr: str):
        self.module, self.attr, self.scope, self.calls, self.found = module, attr, [], set(), []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        self.calls.add(id(node.func))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == self.attr:
            self.found.append((self.module, ".".join(self.scope), id(node) in self.calls))
        self.generic_visit(node)


def _reads(attr: str) -> list:
    found = []
    for path in sorted(SRC.glob("*.py")):
        reads = _Reads(path.name, attr)
        reads.visit(ast.parse(path.read_text(), str(path)))
        found += reads.found
    return found


def test_phase_zero_rule_is_called_only_by_the_zero_reader():
    assert _reads("phase_zero_rule") == [("quadrature.py", "OscillatoryTail._zero", True)]


def test_zero_rate_is_called_only_by_the_rate_reader():
    assert _reads("zero_rate") == [("quadrature.py", "OscillatoryTail._rate", True)]
