"""An integrand's offset form ``near`` is read once, where it is wrapped.

``quadrature.integrate_singular`` and ``quadrature.integrate_improper``
each read ``getattr(f, "near", None)`` once and hand it to the wrapper
``_Counted``, which carries it as data from then on: the kernels read the
wrapper's ``near``, and the mirror of (-inf, b] builds its own offset form
where it is wrapped.  So in ``quadrature.py`` a ``getattr`` or ``hasattr``
of ``"near"`` may appear only in those two entries, and the only statement
that sets an attribute named ``near`` is ``_Counted``'s constructor: one
that patched ``near`` onto a function or a wrapper would be a second home
for the offset form.
"""

import ast
from pathlib import Path

QUADRATURE = Path(__file__).resolve().parent.parent / "src" / "paramint" / "quadrature.py"


class _Near(ast.NodeVisitor):
    """The enclosing qualified name of each by-name read of ``"near"``
    (``getattr``, ``hasattr``) and of each store to an attribute ``near``
    (assignment or ``setattr``), with what read or stored it."""

    def __init__(self):
        self.scope, self.reads, self.stores = [], [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        key = node.args[1] if len(node.args) >= 2 else None
        if isinstance(key, ast.Constant) and key.value == "near":
            if name in ("getattr", "hasattr"):
                self.reads.append((".".join(self.scope), name))
            elif name == "setattr":
                self.stores.append((".".join(self.scope), "setattr"))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr == "near" and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.stores.append((".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)


def _scan() -> _Near:
    found = _Near()
    found.visit(ast.parse(QUADRATURE.read_text(), str(QUADRATURE)))
    return found


def test_near_is_read_by_name_only_where_f_is_wrapped():
    assert _scan().reads == [
        ("integrate_singular", "getattr"),
        ("integrate_improper", "getattr"),
    ]


def test_near_is_set_only_by_the_wrapper_constructor():
    assert _scan().stores == [("_Counted.__init__", "self.near")]
