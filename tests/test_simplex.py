import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from treedual import NonconvergedError, simplex
from treedual.simplex import solve_lp


def test_basic_optimal():
    # min -x - y s.t. x + y = 1, x,y >= 0 -> any vertex, value -1
    res = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=1e-12)


def test_vertex_selection():
    # min -2x - y on the simplex: all mass on x
    res = solve_lp([-2.0, -1.0], [[1.0, 1.0]], [1.0])
    assert res.x == pytest.approx([1.0, 0.0])


def test_infeasible():
    # x + y = -1 with x, y >= 0
    res = solve_lp([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x s.t. x - y = 0: ray x = y -> -inf
    res = solve_lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert res.status == "unbounded"


def test_redundant_rows_dropped():
    A = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    res = solve_lp([1.0, 2.0, 3.0], A, [1.0, 2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)


def test_negative_rhs_normalization():
    # -x - y = -1 equals the simplex constraint
    res = solve_lp([1.0, 3.0], [[-1.0, -1.0]], [-1.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)


def test_degenerate_cycling_guard():
    # Beale's example in slack form, on which Dantzig's pivoting rule cycles
    from scipy.optimize import linprog

    A = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.value == pytest.approx(ref.fun, abs=1e-10)
    assert res.value == pytest.approx(-0.05, abs=1e-10)


def _best_basic_solution(c, A, b):
    """Least c.x over the feasible basic solutions, by enumerating bases."""
    from itertools import combinations

    m, n = A.shape
    best = np.inf
    for cols in combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if np.all(xb >= -1e-10):
            best = min(best, float(c[list(cols)] @ xb))
    return best


def test_random_agreement_with_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(42)
    for _ in range(25):
        m, n = rng.integers(1, 4), rng.integers(3, 8)
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.1, 1.0, size=n)
        b = A @ x_feas  # feasible by construction
        c = rng.normal(size=n)
        mine = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if mine.status == "optimal":
            assert ref.status == 0
            assert mine.value == pytest.approx(ref.fun, abs=1e-7)
            assert mine.value == pytest.approx(_best_basic_solution(c, A, b), abs=1e-7)
            assert np.abs(A @ mine.x - b).max() <= 1e-9
            assert mine.x.min() >= -1e-9
        else:
            assert mine.status == "unbounded" and ref.status == 3


@pytest.mark.parametrize("status", [1, 4])
def test_other_highs_status_raises_nonconverged(monkeypatch, status):
    # an iteration limit (1) or numerical trouble (4) is no verdict on the LP
    def stopped(*args, **kwargs):
        return OptimizeResult(status=status, message="stopped", x=None, fun=None)

    monkeypatch.setattr(simplex, "linprog", stopped)
    with pytest.raises(NonconvergedError, match=f"status {status}"):
        solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])


def test_inconsistent_dimensions_rejected():
    with pytest.raises(ValueError):
        solve_lp([1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0])
