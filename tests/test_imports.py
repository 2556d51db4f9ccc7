"""Every name a module of the program imports is used there.

Three bindings are the exception: ``conformal.predict_proba_many``,
``pipeline.stack`` and ``pipeline.transform`` are imported only so that the
benchmark's tracer (``perfbench/spans.py``) finds the names it wraps. They go
when the tracer stops wrapping names (ROADMAP item 3(b)), and this test's
expected set shrinks with them.
"""

import ast
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
