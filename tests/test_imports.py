"""Every name a module of the program imports is used there, and every public
function, class and method is used by the program, not only by tests.

Three bindings are the exception: ``conformal.predict_proba_many``,
``pipeline.stack`` and ``pipeline.transform`` are imported only so that the
benchmark's tracer (``perfbench/spans.py``) finds the names it wraps. They go
when the tracer stops wrapping names (ROADMAP item 3(b)), and the expected
sets of both tests shrink with them.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cicle"


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_imported_name_is_used():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {(path.name, name) for path in modules for name in unused_imports(path)}
    assert found == {("conformal.py", "predict_proba_many"),
                     ("pipeline.py", "stack"),
                     ("pipeline.py", "transform")}


def public_definitions(tree: ast.Module):
    """Yield each public top-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def referenced_names(node: ast.AST) -> collections.Counter:
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_is_used_by_the_program():
    # ``transform`` is also the reference that ``transform_many`` is tested against
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), collections.Counter())
    unused = {f"{module}.{node.name}" for module, tree in trees.items()
              for node in public_definitions(tree)
              if everywhere[node.name] == referenced_names(node)[node.name]}
    assert unused == {"vectorize.transform", "vectorize.stack"}
