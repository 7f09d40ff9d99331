"""The float subtree-ratio form of conditional expectations, kept as the
test oracle of the node-log-mass form in ``treedual.market``.

Each expectation divides subtree sums of a leaf measure: exact where the
masses are normal floats, NaN (0/0) where a node's mass is 0, and short of
bits where it is subnormal.
"""

import numpy as np


def one_step(tree, x, q):
    """E_q[x_child | n] (..., n[, k]) at the non-leaf nodes, for ``x`` (N,)
    or (N, k) in layout order and a leaf measure or stack ``q`` (..., L)."""
    lay, x = tree.layout, np.asarray(x, dtype=float)
    mass = tree.subtree_sums(q)
    tail = (...,) + (None,) * (x.ndim - 1)
    num = np.add.reduceat(mass[..., 1:][tail] * x[1:], lay.first_child - 1,
                          axis=mass.ndim - 1)
    with np.errstate(invalid="ignore"):
        return num / mass[..., :lay.level_starts[-2]][tail]


def conditional(tree, v, q):
    """E_q[v | n] (..., N) at every node for a leaf array ``v``."""
    with np.errstate(invalid="ignore"):
        return tree.subtree_sums(np.asarray(q) * v) / tree.subtree_sums(q)
