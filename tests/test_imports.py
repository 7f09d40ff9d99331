"""Every module of the package reads each name it imports, and the package
reads each name its modules define.

Stdlib ``ast`` only: a module's imported names (``import a.b`` binds ``a``)
against the names it loads anywhere, annotations included.  ``__init__.py``
imports to re-export, and ``from __future__`` binds nothing.  A module-level
function, class or constant is read when some module of the package loads
it by name, as an attribute or by a ``from`` import; ``__init__.py`` defines
nothing of its own, and ``simplex.py`` is the LP oracle that only tests read.
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


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level function, class or constant of
    the sources (module name to text) that none of them reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in names if name not in read]
    return unread


def test_package_reads_every_name_its_modules_define():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    unread = unread_definitions(sources)
    assert [n for n in unread if n.split(".")[0] not in ("__init__", "simplex")] == []


def test_unread_definitions_are_found():
    sources = {"a": ("import os\nLIMIT = 3\nSPARE: int = 4\n"
                     "def f():\n    return LIMIT\n"
                     "def g():\n    return f()\nclass C:\n    pass\nclass D:\n    pass\n"),
               "b": "from a import C\nimport a\nx = a.g\n"}
    assert unread_definitions(sources) == ["a.SPARE", "a.D", "b.x"]


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


def charged_set_violations(source: str, module: str) -> list[str]:
    """Expressions that decide the charged set or a conditional expectation
    from float masses: a comparison of ``q_hat`` or of a subtree sum with
    0, and, outside ``market``, an ``np.divide`` or ``/`` by a subtree sum.
    A subtree sum is a ``subtree_sums(...)`` call, a name assigned from one
    (tuple targets included) or a subscript of either."""
    tree = ast.parse(source)

    def called(node, name):
        f = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (getattr(f, "id", None),
                                                       getattr(f, "attr", None))

    sums = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and called(node.value, "subtree_sums"):
            for target in node.targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                sums.update(t.id for t in elts if isinstance(t, ast.Name))

    def is_sum(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return called(node, "subtree_sums") or (isinstance(node, ast.Name) and node.id in sums)

    def is_q_hat(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return "q_hat" in (getattr(node, "id", None), getattr(node, "attr", None))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if (any(isinstance(s, ast.Constant) and s.value == 0 for s in sides)
                    and any(is_q_hat(s) or is_sum(s) for s in sides)):
                found.append(f"line {node.lineno}: compares with 0")
        elif module != "market" and (
                (called(node, "divide") and len(node.args) > 1 and is_sum(node.args[1]))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and is_sum(node.right))):
            found.append(f"line {node.lineno}: divides by a subtree sum")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_charged_set_and_expectations_read_node_log_masses(path):
    assert charged_set_violations(path.read_text(), path.stem) == []


def test_charged_set_violations_are_found():
    source = ("def f(tree, sol, q, x):\n"
              "    on = sol.q_hat > 0\n"
              "    mass, total = tree.subtree_sums(q)\n"
              "    a = np.divide(x, mass, where=mass[1:] > 0.0)\n"
              "    b = x / tree.subtree_sums(q)[0]\n"
              "    c = 0 == q_hat[1]\n"
              "    return q > 0, x / total, np.divide(mass, x), sol.q_hat @ x\n")
    found = ["line 2: compares with 0", "line 4: divides by a subtree sum",
             "line 4: compares with 0", "line 5: divides by a subtree sum",
             "line 6: compares with 0", "line 7: divides by a subtree sum"]
    assert sorted(charged_set_violations(source, "pricing")) == sorted(found)
    assert sorted(charged_set_violations(source, "market")) == [
        "line 2: compares with 0", "line 4: compares with 0", "line 6: compares with 0"]
