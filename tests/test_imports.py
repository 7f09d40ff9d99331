"""Every module of the package reads each name it imports, and the package
reads each name its modules define.

Stdlib ``ast`` only: a module's imported names (``import a.b`` binds ``a``)
against the names it loads anywhere, annotations included.  ``__init__.py``
imports to re-export, and ``from __future__`` binds nothing.  A module-level
function, class or constant is read when some module of the package loads
it by name, as an attribute or by a ``from`` import; ``__init__.py`` defines
nothing of its own.  The same ``ast`` reading keeps ``DualSolution`` built
in one place, every scalar root on one root-finder and every mass that
enters the package a log mass, and finds every package name the benchmark
in ``perfbench/`` reads, which must resolve in the package.
"""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treedual
import treegen
from treedual import exponential_utility, solve_dual, two_power_utility
from treedual.dual import DualSolution
from treedual.utility import UtilityPair

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
    assert [n for n in unread if n.split(".")[0] != "__init__"] == []


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


def test_the_battery_certifies_without_double_description():
    # the support checks read the support pass's certificates; the vertex
    # enumeration and the dense constraint matrix serve the CLI, the
    # oracles and the tests
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names}
    assert names & {"vertex_enumerate", "build_constraints", "CapExceededError"} == set()


MASS_NAMES = {"y", "ys", "mass", "masses"}


def float_mass_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter named as a float mass
    (``MASS_NAMES``) of a public function of ``source``: module level, no
    leading underscore.  ``UtilityPair``'s methods evaluate the conjugate
    at a point y, a density, and are not read."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_":
            args = node.args
            found += [f"{node.name}({a.arg})" for a in args.posonlyargs + args.args
                      + args.kwonlyargs if a.arg in MASS_NAMES]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_masses_enter_the_package_as_log_masses(path):
    # ln y is exact where y leaves the float range, and one form at the
    # boundary needs one check (dual._log_grid)
    assert float_mass_parameters(path.read_text()) == []


def test_float_mass_parameters_are_found():
    source = ("def solve_dual_fixed_mass(tree, pair, endow, y):\n    pass\n"
              "def dual_value_curve(sol, ys, *, log=False):\n    pass\n"
              "def dual_derivative(tree, pair, endow, y: float) -> float:\n    pass\n"
              "def f(mass, /, *, masses=()):\n    pass\n"
              "def _check_masses(ys):\n    pass\n"
              "def g(log_mass, log_masses, y0):\n    def h(y):\n        pass\n"
              "class C:\n    def v_point(self, y):\n        pass\n")
    assert float_mass_parameters(source) == [
        "solve_dual_fixed_mass(y)", "dual_value_curve(ys)", "dual_derivative(y)", "f(mass)",
        "f(masses)"]


def top_down_loops(source: str) -> list[str]:
    """``line n: function`` for each loop, comprehensions included, over
    ``zip(x[1:...], x[2:...])``: a hand-written walk down the levels of a
    level-start sequence ``x``."""
    def walks_down(it):
        if not (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "zip"
                and len(it.args) == 2
                and all(isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Slice)
                        and isinstance(a.slice.lower, ast.Constant) for a in it.args)):
            return False
        first, second = it.args
        return ((first.slice.lower.value, second.slice.lower.value) == (1, 2)
                and ast.dump(first.value) == ast.dump(second.value))

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.comprehension)) and walks_down(child.iter):
                found.append(f"line {child.iter.lineno}: {func}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(ast.parse(source), None)
    return found


# path_sums is the one walk down the levels; _build_layout builds the layout
# it reads, and _arbitrage scales a node by its parent's scaled gain, which
# is not a path sum
_TOP_DOWN_LOOPS = {"market": {"path_sums", "_build_layout"}, "geometry": {"_arbitrage"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_top_down_accumulation_goes_through_path_sums(path):
    allowed = _TOP_DOWN_LOOPS.get(path.stem, set())
    assert [f for f in top_down_loops(path.read_text())
            if f.split(": ")[1] not in allowed] == []


def test_top_down_loops_are_found():
    source = ("def f(lay, x):\n"
              "    for a, b in zip(lay.level_starts[1:], lay.level_starts[2:]):\n"
              "        x[a:b] += x[lay.parent[a:b]]\n"
              "    for a, b in zip(lay.level_starts, lay.level_starts[1:]):\n"
              "        pass\n"
              "    for a, b in zip(ends[-3::-1], ends[-2::-1]):\n"
              "        pass\n"
              "class C:\n"
              "    def g(self, s):\n"
              "        return [b for a, b in zip(s[1:-1], s[2:])]\n"
              "for a, b in zip(s[1:], t[2:]):\n"
              "    pass\n"
              "for a, b in zip(s[1:-2], s[2:-1]):\n"
              "    pass\n")
    assert top_down_loops(source) == ["line 2: f", "line 10: g", "line 13: None"]


def view_rebuilds(source: str) -> list[str]:
    """``line n: function`` for each hand-built piece of the layout's
    per-node view outside ``TreeLayout``: one read of the prices (``prices``
    or ``price``, bare or subscripted) minus another, or padded children,
    ``np.arange(...)`` added to an expression over a ``first_child`` (or
    ``first``) subscript."""
    def names(node, wanted):
        node = node.value if isinstance(node, ast.Subscript) else node
        return (getattr(node, "id", None) or getattr(node, "attr", None)) in wanted

    def arange(node):
        return isinstance(node, ast.Call) and names(node.func, {"arange"})

    def over_first(node):
        return any(isinstance(n, ast.Subscript) and names(n, {"first_child", "first"})
                   for n in ast.walk(node))

    def builds_view(op):
        sides = (op.left, op.right)
        if isinstance(op.op, ast.Sub):
            return (all(names(s, {"prices", "price"}) for s in sides)
                    and any(isinstance(s, ast.Subscript) for s in sides))
        return isinstance(op.op, ast.Add) and any(
            arange(a) and over_first(b) for a, b in (sides, sides[::-1]))

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "TreeLayout":
                continue
            if isinstance(child, ast.BinOp) and builds_view(child):
                found.append(f"line {child.lineno}: {func}")
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_the_per_node_view_is_built_in_the_layout_alone(path):
    # each node's children, increments and per-asset scale come from
    # TreeLayout's step, kids, on and top
    assert view_rebuilds(path.read_text()) == []


def test_view_rebuilds_are_found():
    source = ("class TreeLayout:\n"
              "    def __post_init__(self):\n"
              "        step = self.prices - self.prices[self.parent]\n"
              "        kids = self.first_child[:, None] + np.arange(3)\n"
              "def f(lay, price, first, node, m):\n"
              "    a = lay.prices[1:] - lay.prices[lay.parent[1:]]\n"
              "    b = lay.prices - lay.prices[lay.parent]\n"
              "    c = price[first[node, None] + np.arange(m)] - price[node, None]\n"
              "    d = np.arange(m) + lay.first_child[node, None] - 1\n"
              "    e = lay.prices[1:] - lay.step[1:]\n"
              "    f = lay.lo[:, None] + np.arange(m)\n"
              "    g = lay.prices - lay.prices\n"
              "    return lay.first_child - 1, lay.prices[0] + lay.prices[1]\n")
    assert view_rebuilds(source) == ["line 6: f", "line 7: f", "line 8: f", "line 8: f",
                                     "line 9: f"]


def pinning_caches(source: str) -> list[str]:
    """``line n: function`` for each function decorated with
    ``functools.lru_cache`` or ``functools.cache`` (bare, called or as an
    attribute) whose first parameter is ``tree`` or ``geo``: a module-level
    table that would keep every tree it sees, and what is derived from it,
    alive past the tree."""
    def caches(dec):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        return (getattr(dec, "id", None) or getattr(dec, "attr", None)) in {"lru_cache", "cache"}

    return [f"line {node.lineno}: {node.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.args.args and node.args.args[0].arg in {"tree", "geo"}
            and any(caches(d) for d in node.decorator_list)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_derived_data_is_kept_on_its_tree(path):
    # market.per_owner keeps a tree's derived structures on the tree (or on
    # its support structure), so they are freed with it
    assert pinning_caches(path.read_text()) == []


def test_pinning_caches_are_found():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=256)\ndef a(tree):\n    pass\n"
              "@functools.lru_cache\ndef b(geo, k):\n    pass\n"
              "@cache\ndef c(tree):\n    pass\n"
              "@functools.cache\ndef d(geo):\n    pass\n"
              "@lru_cache(maxsize=None)\ndef e(k):\n    pass\n"
              "@cache\ndef f():\n    pass\n"
              "@per_owner\ndef g(tree):\n    pass\n"
              "def h(tree):\n    pass\n")
    assert pinning_caches(source) == ["line 4: a", "line 7: b", "line 10: c", "line 13: d"]


def scopes_where(source: str, module: str, match) -> set[str]:
    """Qualified names (``module.f``, ``module.C.f``; ``module`` at module
    level) of the scopes in ``source`` that hold a node for which
    ``match(node)`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def calls(name: str):
    """Matches a call of ``name(...)``, by name or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def is_midpoint(node) -> bool:
    """A bisection midpoint of two names: ``0.5 * (x + y)`` (either factor
    order) or ``(x + y) / 2``."""
    def two_names(expr):
        return (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add)
                and isinstance(expr.left, ast.Name) and isinstance(expr.right, ast.Name))

    def const(expr, value):
        return isinstance(expr, ast.Constant) and expr.value == value

    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ((const(node.left, 0.5) and two_names(node.right))
                or (const(node.right, 0.5) and two_names(node.left)))
    return isinstance(node.op, ast.Div) and const(node.right, 2) and two_names(node.left)


def _package_scopes(match) -> set[str]:
    found = set()
    for path in MODULES:
        found |= scopes_where(path.read_text(), path.stem, match)
    return found


def test_every_optimum_is_built_by_the_one_builder():
    # an optimum is its exact form, and dual._solution alone writes it
    assert _package_scopes(calls("DualSolution")) == {"dual._solution"}


def test_constructors_are_found():
    source = ("from treedual import dual\nX = DualSolution(1)\n"
              "def f():\n    return dual.DualSolution(2)\n"
              "class C:\n    def g(self):\n        return [DualSolution(3)]\n"
              "def h():\n    return DualSolution\n")
    assert scopes_where(source, "m", calls("DualSolution")) == {"m", "m.f", "m.C.g"}


def test_the_package_keeps_one_root_finder():
    # every scalar root of the package is found by dual._bracketed_newton;
    # the oracle's batched bisection stays independent of it on purpose
    assert _package_scopes(is_midpoint) == {"dual._bracketed_newton", "oracle._mass_profile"}
    assert _package_scopes(calls("_bracketed_newton")) == {
        "pricing._cash_root", "pricing._least_gap", "dual._budget_root"}


def test_the_dense_fits_keep_their_callers():
    # the dense constraint matrix reaches the Newton core through one
    # layout of its rows, whole tree and subtrees alike, and serves the
    # CLI's geometry and the oracles; its QR fits serve the core alone.  W''
    # is a backward pass over the levels and the battery's per-node fits a
    # pseudo-inverse: neither reads them
    assert _package_scopes(calls("build_constraints")) == {
        "dual._subtree_rows", "cli._cmd_geometry", "oracle._polytope_frame",
        "oracle.brute_force_primal"}
    assert _package_scopes(calls("_subtree_rows")) == {
        "dual._core_solutions", "dual._subtree_solves"}
    assert _package_scopes(calls("_newton_core")) == {
        "dual._core_solutions", "dual._subtree_solves"}
    assert _package_scopes(calls("_scaled_fits")) == {"dual._newton_core.fit"}
    assert _package_scopes(calls("_qr_fits")) == {"dual._scaled_fits"}


DENSE_CORE = {"_newton_core", "_strategy_basis", "_qr_fits", "_scaled_fits", "_complete_rows",
              "build_constraints"}


def dense_core_reads(source: str) -> list[str]:
    """The names of ``DENSE_CORE`` that ``source`` imports or reads as an
    attribute (``dual._newton_core``), sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sorted(names & DENSE_CORE)


@pytest.mark.parametrize("module", ["recovery", "checks"])
def test_recovery_and_the_battery_read_no_dense_core(module):
    # dual picks the solver of every subtree problem and lays out the core's
    # rows; the dynamic dual and the battery's fits know neither
    assert dense_core_reads((PACKAGE / f"{module}.py").read_text()) == []


def test_dense_core_reads_are_found():
    source = ("from .dual import _qr_fits, solve_dual\nfrom . import dual\n"
              "import numpy as np\ndef f(a):\n    return dual._newton_core(a)\n"
              "def g(a):\n    return a.build_constraints + np.linalg.pinv(a)\n")
    assert dense_core_reads(source) == ["_newton_core", "_qr_fits", "build_constraints"]


def test_the_level_batches_keep_their_callers():
    # every backward pass reads the structural batches; only the passes that
    # start at the exponential fit build that start, so W'' builds none
    assert _package_scopes(calls("_live_levels")) == {
        "dual._log_partition", "dual._cash_weight", "dual._complete_solutions",
        "dual._exponential_start"}
    assert _package_scopes(calls("_exponential_start")) == {
        "dual._log_partition", "dual._complete_solutions"}


def test_bisection_midpoints_are_found():
    source = ("def a(lo, hi):\n    return 0.5 * (lo + hi)\n"
              "def b(lo, hi):\n    return (lo + hi) * 0.5\n"
              "def c(lo, hi):\n    return (lo + hi) / 2\n"
              "class C:\n    def d(self, x, y):\n        m = 0.5 * (x + y)\n"
              "def e(lo, hi):\n    return 0.5 * (hi - lo), 0.25 * (lo + hi), (lo + hi) / 3\n"
              "def f(x):\n    return 0.5 * (x + 1.0), 0.5 * (x.a + x.b)\n")
    assert scopes_where(source, "m", is_midpoint) == {"m.a", "m.b", "m.c", "m.C.d"}


PERFBENCH = Path(__file__).parent.parent / "perfbench"
BENCH_MODULES = ("workloads", "run", "layers", "tracer")
# the benchmark's tables of qualified package functions, and the part of each
# literal that names them
QUALIFIED_TABLES = {"HOOKS": "keys", "DUAL_SOLVES": "elts", "CACHED": "values",
                    "EXTRA": "keys"}


def benchmark_reads(sources: dict[str, str]) -> set[str]:
    """The package names the benchmark's sources (module name to text) read:
    ``name`` for each ``td.name``, ``module.name`` for each qualified
    function of the tables :data:`QUALIFIED_TABLES`,
    ``DualSolution.name`` for each ``sol.name`` and ``UtilityPair.name``
    for each keyword of a ``dataclasses.replace`` call."""
    reads = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "td":
                    reads.add(node.attr)
                elif node.value.id == "sol":
                    reads.add(f"DualSolution.{node.attr}")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dataclasses.replace":
                reads.update(f"UtilityPair.{k.arg}" for k in node.keywords)
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and getattr(node.targets[0], "id", None) in QUALIFIED_TABLES):
                part = getattr(node.value, QUALIFIED_TABLES[node.targets[0].id])
                reads.update(c.value for c in part)
    return reads


def unresolved(reads: set[str]) -> list[str]:
    """The names of :func:`benchmark_reads` that the package does not
    define: a ``DualSolution`` field or attribute, a ``UtilityPair`` field
    that ``dataclasses.replace`` can set, an attribute of a package
    module, or one of the package itself."""

    def resolves(name):
        owner, _, attr = name.rpartition(".")
        if owner == "DualSolution":
            return (attr in {f.name for f in dataclasses.fields(DualSolution)}
                    or hasattr(DualSolution, attr))
        if owner == "UtilityPair":
            return any(f.name == attr and f.init for f in dataclasses.fields(UtilityPair))
        try:
            module = importlib.import_module(f"treedual.{owner}") if owner else treedual
        except ModuleNotFoundError:
            return False
        return hasattr(module, attr)

    return sorted(name for name in reads if not resolves(name))


def test_every_name_the_benchmark_reads_resolves():
    # the benchmark runs the package from outside: a name it reads that is
    # gone fails every run of a workload, not a test
    sources = {m: (PERFBENCH / f"{m}.py").read_text() for m in BENCH_MODULES}
    reads = benchmark_reads(sources)
    assert {"solve_dual", "dual.solve_dual_fixed_mass", "geometry._support_structure",
            "DualSolution.iterations", "UtilityPair._cache"} <= reads
    assert unresolved(reads) == []
    # layers reads sol.iterations[-1]["steps"] as an int, of every solver
    trinomial, binomial = (treegen.product_market([m] * 2) for m in ([1.2, 1.0, 0.85], [1.2, 0.9]))
    for tree, pair in ((trinomial, exponential_utility(1.0, 2.0)),
                       (binomial, two_power_utility(0.5, 1.0, 1.0)),
                       (trinomial, two_power_utility(0.5, 1.0, 1.0))):
        assert type(solve_dual(tree, pair, 0.1).iterations[-1]["steps"]) is int


def test_benchmark_reads_are_found():
    source = ('HOOKS = {"dual.solve_dual": (f, None), "dual.gone": (f, None)}\n'
              'DUAL_SOLVES = ("dual.solve_dual",)\n'
              'CACHED = {"metric": "geometry.build_constraints"}\n'
              'EXTRA = {"nomodule.f": "span"}\n'
              "def f(td, sol, pair, self):\n"
              "    self.td.gone2, sol.iterations[-1], sol.gone3\n"
              "    return td.solve_dual, td.gone4, dataclasses.replace(pair, _cache={}, gone5=1)\n")
    reads = benchmark_reads({"m": source})
    assert reads == {"dual.solve_dual", "dual.gone", "geometry.build_constraints", "nomodule.f",
                     "DualSolution.iterations", "DualSolution.gone3", "solve_dual", "gone4",
                     "UtilityPair._cache", "UtilityPair.gone5"}
    assert unresolved(reads) == ["DualSolution.gone3", "UtilityPair.gone5", "dual.gone", "gone4",
                                 "nomodule.f"]
