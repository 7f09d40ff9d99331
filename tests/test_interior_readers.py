"""Which functions read the support pass's interior measure.

``SupportStructure.log_interior`` is the interior measure as node log
masses, finite on every live leaf, where exp of it can underflow to 0 (the
caterpillar of ``treegen``).  The support (``live``) reads the log form;
the equivalent martingale measure and the two-power cold start take exp of
its leaf slice.  A new reader, above all a float one, is added here on
purpose.  Stdlib ``ast`` only, as in ``test_family_readers``.
"""

from test_family_readers import PACKAGE, attribute_readers

READERS = {
    "geometry.SupportStructure.live",
    "geometry.find_equivalent_mm",
    "dual._core_solutions",
}


def interior_readers(source: str, module: str) -> set[str]:
    return attribute_readers(source, module, "log_interior")


def test_interior_measure_is_read_only_by_the_known_readers():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= interior_readers(path.read_text(), path.stem)
    assert found == READERS


def test_interior_readers_are_found():
    source = ("import numpy as np\n"
              "class S:\n    def log_interior(self):\n        return 0.0\n"
              "    def live(self):\n        return self.log_interior > -np.inf\n"
              "def radius(tree, geo):\n    q = np.exp(geo.log_interior[-tree.n_leaves:])\n"
              "    return q.sum()\n"
              "def outer(geo):\n    def inner():\n        return geo.log_interior\n"
              "    return inner\n"
              "def by_name(geo):\n    return getattr(geo, 'log_interior')\n"
              "def store(geo):\n    geo.log_interior = None\n")
    assert interior_readers(source, "m") == {"m.S.live", "m.radius", "m.outer.inner"}
