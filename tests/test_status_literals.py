"""The engine states ``converged`` outright only for an exact result.

``quadrature._status`` is the one place where an estimate is held against
the tolerance at a value.  So a ``QuadResult`` that ``engine.py`` builds
with the literal status ``QuadStatus.CONVERGED`` must carry the literal
estimate ``0.0``: the value at the anchor itself, which is exact.  Any
other result takes its status from ``_status`` or from a kernel.  No call
in the module may set ``status=QuadStatus.CONVERGED`` on anything else
either (a ``dataclasses.replace``, say).
"""

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parent.parent / "src" / "paramint" / "engine.py"
_FIELDS = ("value", "abs_err_est", "n_evals", "status")


def _is_converged(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "CONVERGED"
        and isinstance(node.value, ast.Name)
        and node.value.id == "QuadStatus"
    )


def _is_exact(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.0


def test_a_literal_converged_result_is_exact():
    tree = ast.parse(ENGINE.read_text(), str(ENGINE))
    exact, bad = [], []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        fields = {k.arg: k.value for k in call.keywords}
        if isinstance(call.func, ast.Name) and call.func.id == "QuadResult":
            fields.update(zip(_FIELDS, call.args))
            if _is_converged(fields.get("status")):
                (exact if _is_exact(fields.get("abs_err_est")) else bad).append(call.lineno)
        elif _is_converged(fields.get("status")):
            bad.append(call.lineno)
    assert exact  # reconstruct's and the grid's value at the anchor
    assert bad == []
