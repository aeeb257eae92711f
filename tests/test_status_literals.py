"""The kernels and the engine state ``converged`` outright only for an exact result.

``quadrature._status`` is the one place where an estimate is held against
the tolerance at a value.  So a ``QuadResult`` that ``quadrature.py`` or
``engine.py`` builds with the literal status ``QuadStatus.CONVERGED`` must
carry the literal estimate ``0.0``: in the engine, the value at the anchor
itself, which is exact.  Any other result takes its status from
``_status`` or from a kernel.  No call in either module may set
``status=QuadStatus.CONVERGED`` on anything else either (a
``dataclasses.replace``, say), and no ``if`` block outside ``_status``
assigns ``QuadStatus.CONVERGED``: a kernel that judges its own result
beside ``_status`` is a second home for the rule.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "paramint"
_FIELDS = ("value", "abs_err_est", "n_evals", "status")


def _tree(module: str) -> ast.Module:
    path = SRC / module
    return ast.parse(path.read_text(), str(path))


def _is_converged(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "CONVERGED"
        and isinstance(node.value, ast.Name)
        and node.value.id == "QuadStatus"
    )


def _is_exact(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.0


def _literal_converged(module: str) -> tuple[list[int], list[int]]:
    """Lines of the literal converged results built in ``module``: those
    with the literal estimate 0.0, and the rest."""
    exact, bad = [], []
    for call in ast.walk(_tree(module)):
        if not isinstance(call, ast.Call):
            continue
        fields = {k.arg: k.value for k in call.keywords}
        if isinstance(call.func, ast.Name) and call.func.id == "QuadResult":
            fields.update(zip(_FIELDS, call.args))
            if _is_converged(fields.get("status")):
                (exact if _is_exact(fields.get("abs_err_est")) else bad).append(call.lineno)
        elif _is_converged(fields.get("status")):
            bad.append(call.lineno)
    return exact, bad


def test_a_literal_converged_result_is_exact():
    exact, bad = _literal_converged("engine.py")
    assert exact  # reconstruct's and the grid's value at the anchor
    assert bad == []


def test_the_kernels_build_no_literal_converged_result():
    assert _literal_converged("quadrature.py") == ([], [])


def _converged_assigned_in_if(tree: ast.AST) -> list[int]:
    """Lines of each assignment in an ``if`` block, outside ``_status``,
    whose value, or one item of whose value tuple, is QuadStatus.CONVERGED."""
    found = []

    def visit(node: ast.AST, in_if: bool) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "_status":
            return
        if in_if and isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            items = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
            if any(map(_is_converged, items)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_if or isinstance(node, ast.If))

    visit(tree, False)
    return found


@pytest.mark.parametrize("module", ["engine.py", "quadrature.py"])
def test_only_status_judges_converged(module):
    assert _converged_assigned_in_if(_tree(module)) == []


def test_the_if_rule_catches_a_kernel_judging_itself():
    # the three-way block _tanh_sinh once ended with
    judged = ast.parse(
        "def _tanh_sinh():\n"
        "    if est <= tol:\n"
        "        status = QuadStatus.CONVERGED\n"
        "    elif level_diff > tol and allowance <= tol:\n"
        "        status = QuadStatus.MAX_DEPTH\n"
        "    else:\n"
        "        status = QuadStatus.TAIL_TRUNCATED\n")
    assert _converged_assigned_in_if(judged) == [3]
    assert _converged_assigned_in_if(ast.parse(
        "def _status():\n    if ok:\n        s = QuadStatus.CONVERGED\n")) == []
