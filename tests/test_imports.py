"""Every name a module of the package imports is used by that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ugrestore"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\n"
    src += "__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(src) == ["b (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
