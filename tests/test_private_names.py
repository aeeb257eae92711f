"""Every module-level private name in the package is used somewhere in it.

A ``_name`` defined at the top level of ``src/paramint/*.py`` is private
to the package, so a name that no code in the package loads is dead: a
helper whose last caller went away, or a constant nothing reads.
Imports do not count as uses; the importing module must load the name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paramint"


def _top_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_module_name_is_used():
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            defined += [
                (path.name, n)
                for n in _top_level_names(stmt)
                if n.startswith("_") and not n.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert [f"{mod}:{name}" for mod, name in defined if name not in used] == []
