"""A family's ``d_alpha`` is read in one place.

``engine._d_alpha`` is the engine's only source of d f/d alpha: it hands
the family's rule to ``deriv_under_integral``, ``domination_scan`` and a
numeric rhs of ``reconstruct``, and refuses a family without one.  The
engine takes no derivative of its own, so no other function of
``engine.py`` may load an attribute ``d_alpha`` (as ``P.d_alpha`` or by
``getattr``): one that did would be a second path to d f/d alpha, such as
a difference of the integrand standing in for a missing rule.
"""

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parent.parent / "src" / "paramint" / "engine.py"


class _Reads(ast.NodeVisitor):
    """The enclosing qualified name of each load of an attribute ``d_alpha``
    (``x.d_alpha``, ``getattr(x, "d_alpha")``, ``hasattr``), with what read it."""

    def __init__(self):
        self.scope, self.reads = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        if node.attr == "d_alpha" and isinstance(node.ctx, ast.Load):
            self.reads.append((".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)

    def visit_Call(self, node):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        key = node.args[1] if len(node.args) >= 2 else None
        if (name in ("getattr", "hasattr") and isinstance(key, ast.Constant)
                and key.value == "d_alpha"):
            self.reads.append((".".join(self.scope), name))
        self.generic_visit(node)


def _reads() -> list[tuple[str, str]]:
    found = _Reads()
    found.visit(ast.parse(ENGINE.read_text(), str(ENGINE)))
    return found.reads


def test_d_alpha_is_read_only_by_its_reader():
    reads = _reads()
    assert reads and {scope for scope, _ in reads} == {"_d_alpha"}
    assert {what for _, what in reads} == {"P.d_alpha"}
