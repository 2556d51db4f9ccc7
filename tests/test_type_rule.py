"""``serialize.typed`` is the one owner of the rule for a value's type.

A bool is an int to ``isinstance``, so any check that tells the two apart is
a type rule of its own. Only ``serialize.py`` may hold one: every other module
states the annotation it expects and calls ``typed``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cicle"


def bool_checks(path: Path) -> list[int]:
    """Line numbers of the ``isinstance(x, ...)`` calls in ``path`` whose
    class argument names ``bool``, alone or in a tuple."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            classes = node.args[1]
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                lines.append(node.lineno)
    return lines


def test_only_serialize_tells_a_bool_from_an_int():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {f"{path.name}:{line}" for path in modules if path.name != "serialize.py"
             for line in bool_checks(path)}
    assert found == set()
    assert bool_checks(SRC / "serialize.py")
