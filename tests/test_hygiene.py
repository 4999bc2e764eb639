"""Source hygiene: no unused imports in `qes`."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qes").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names the module imports but neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # a quoted forward reference, e.g. "QuadScalar"
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_is_used_or_exported():
    found = {path.name: unused_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_import_check_sees_an_unused_name():
    assert unused_imports("from typing import List, Union\nx: List[int] = []\n") == ["Union"]
