"""Equality-form linear programs on HiGHS: the test oracle for the geometry.

Solves ``min c.x  s.t.  A x = b, x >= 0`` with the HiGHS solver shipped in
SciPy (``scipy.optimize.linprog(method="highs")``).  The tests compare the
support, interior measure and no-arbitrage bounds of the backward pass in
``geometry`` against it; in the package only ``geometry``'s arbitrage
certificate calls it, for the one-step separators of a degenerate
market, and imports it there.  A run
that ends in neither an optimum nor a proof of infeasibility or
unboundedness (iteration limit, numerical trouble) raises
:class:`NonconvergedError`; it is never reported as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import NonconvergedError

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass
class LpResult:
    status: str            # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float | None


def solve_lp(c, A, b) -> LpResult:
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if c.shape != (A.shape[1],) or b.shape != (A.shape[0],):
        raise ValueError("inconsistent LP dimensions")
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    status = _STATUS.get(res.status)
    if status is None:
        raise NonconvergedError(f"HiGHS stopped with status {res.status}: {res.message}")
    if status != "optimal":
        return LpResult(status, None, None)
    return LpResult(status, res.x, float(res.fun))
