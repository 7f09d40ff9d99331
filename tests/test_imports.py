"""Every module of the package reads each name it imports.

Stdlib ``ast`` only: a module's imported names (``import a.b`` binds ``a``)
against the names it loads anywhere, annotations included.  ``__init__.py``
imports to re-export, and ``from __future__`` binds nothing.
"""

import ast
import os
import subprocess
import sys
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


def test_package_and_cli_price_do_not_load_scipy():
    # scipy serves only the brute-force oracles, which import it when run;
    # it is most of the import time
    market = Path(__file__).parent / "data" / "quote_pinned_4x4_2a.json"
    code = ("import sys, treedual\n"
            "assert 'scipy' not in sys.modules, 'import treedual'\n"
            "from treedual import cli\n"
            "for u in ('exp:gamma=1,C=2', 'twopower:a=0.5,b=1,C=1'):\n"
            f"    assert cli.run(['price', '--market', {str(market)!r}, '--utility', u,\n"
            "                    '--claim', 'claim']) == 0\n"
            "assert 'scipy' not in sys.modules, 'cli price'\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
