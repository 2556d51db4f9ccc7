"""``serialize.typed`` is the one owner of the rule for a value's type.

A bool is an int to ``isinstance``, so any check that tells the two apart is
a type rule of its own, and so is an exact-type test such as ``type(x) is
int``. Only ``serialize.py`` may hold one: every other module states the
annotation it expects and calls ``typed``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cicle"

# the classes an exact-type test may not name outside serialize.py
_NUMERIC = {"bool", "int", "float"}


def _names(node) -> set[str]:
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id for n in elts if isinstance(n, ast.Name)}


def _is_type_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type" and len(node.args) == 1)


def type_rules(source: str) -> list[int]:
    """Line numbers of the type rules in ``source``: ``isinstance(x, ...)`` calls
    whose class argument names ``bool``, alone or in a tuple, and ``is``,
    ``is not``, ``==`` or ``!=`` comparisons of ``type(x)`` with ``bool``,
    ``int`` or ``float``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "bool" in _names(node.args[1])):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Compare)
              and all(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                      for op in node.ops)):
            operands = [node.left, *node.comparators]
            if (any(_is_type_call(n) for n in operands)
                    and any(isinstance(n, ast.Name) and n.id in _NUMERIC for n in operands)):
                lines.append(node.lineno)
    return lines


def test_only_serialize_tells_a_bool_from_an_int():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {f"{path.name}:{line}" for path in modules if path.name != "serialize.py"
             for line in type_rules(path.read_text(encoding="utf-8"))}
    assert found == set()
    assert type_rules((SRC / "serialize.py").read_text(encoding="utf-8"))


def test_type_rules_finds_each_form():
    found = ["isinstance(x, bool)", "isinstance(x, (int, bool))", "type(x) is int",
             "type(x) is not float", "bool is type(x)", "type(x) == int"]
    ignored = ["isinstance(x, int)", "type(x) is str", "type(x) is tp", "x is None",
               "type(x) < int"]
    assert [bool(type_rules(s)) for s in found] == [True] * len(found)
    assert [bool(type_rules(s)) for s in ignored] == [False] * len(ignored)
