"""Every module of the package reads each name it imports.

Stdlib ``ast`` only: a module's imported names (``import a.b`` binds ``a``)
against the names it loads anywhere, annotations included.  ``__init__.py``
imports to re-export, and ``from __future__`` binds nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "treedual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []  # (line, bound name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport bisect\nimport os.path\n"
              "from dataclasses import dataclass, replace\n"
              "@dataclass\nclass A:\n    x: 'int'\n\ny = os.path.join\n")
    assert unused_imports(source) == ["line 2: bisect", "line 4: replace"]
