"""Which functions choose by the utility's family.

The family picks the solver in one place, ``dual._solutions``, and each
price's method in its search (the entropic penalty's too: a closed form for
the exponential family); the other readers are the exponential-only
Snell envelope, the battery's family-specific checks and the pair's own
description.  A solution answers the same question itself: its
log-partition ``_log_l`` is set for the exponential family alone, so
``sol._log_l is not None`` is a second test of the family, and its readers
are pinned too.  Stdlib ``ast`` only: the qualified name
(``module.Class.f``) of each function whose body reads an attribute named
``family`` (or ``_log_l``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "treedual"

READERS = {
    "dual._solutions",
    "pricing._bid",
    "pricing._certainty_equivalent",
    "pricing._penalty",
    "pricing.entropic_penalty",
    "recovery.snell_envelope_exponential",
    "checks.run_battery",
    "utility.UtilityPair.describe",
}

LOG_PARTITION_READERS = {
    "dual.DualSolution.terminal_gain",
    "dual.DualSolution.mass_curvature",
    "dual.dual_value_curve",
    "recovery._conditional_duals",
    "recovery.recover",
}


def attribute_readers(source: str, module: str, attr: str) -> set[str]:
    """Qualified names of the functions (and classes, at class level) in
    ``source`` whose bodies load an attribute named ``attr``."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                readers.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return readers


def family_readers(source: str, module: str) -> set[str]:
    return attribute_readers(source, module, "family")


def test_family_is_read_only_where_a_method_is_chosen():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= family_readers(path.read_text(), path.stem)
    assert found == READERS


def test_log_partition_is_read_only_by_the_known_readers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= attribute_readers(path.read_text(), path.stem, "_log_l")
    assert found == LOG_PARTITION_READERS


def test_family_readers_are_found():
    source = ("class P:\n    family = 'x'\n    def f(self):\n        return self.family\n"
              "def g(pair):\n    def inner():\n        return pair.family\n    return inner\n"
              "def h(pair):\n    pair.family = 'y'\n    return getattr(pair, 'family')\n")
    assert family_readers(source, "m") == {"m.P.f", "m.g.inner"}
