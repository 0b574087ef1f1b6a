"""Static checks of the package source, made on its syntax trees."""

import ast

import pytest

from conftest import SRC

MODULES = sorted((SRC / "fogcache").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never reads.  A name counts as read
    where the code names it or where the module's ``__all__`` lists it."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import contextlib\nimport os.path\nimport numpy as np\n"
        "from typing import List, Optional\nfrom .cache import Partition\n"
        "__all__ = ['Partition']\n"
        "def f(x: Optional[int]) -> List[int]:\n    return np.arange(x)\n"
    )
    assert unused_imports(source) == [(2, "contextlib"), (3, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
