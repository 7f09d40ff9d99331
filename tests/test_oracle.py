import numpy as np
import pytest

import treegen
from treedual import (DimensionError, GapDetectedError, brute_force_dual,
                      brute_force_primal, check_duality_gap,
                      exponential_utility, polytope_dimension, recover,
                      solve_dual, strategy_dimension, two_power_utility)

BIN1_MASS = 3.0 * 2.0 ** (-5.0 / 3.0)


def test_dimensions(bin1, tri1):
    assert polytope_dimension(bin1) == 0
    assert polytope_dimension(tri1) == 1
    assert strategy_dimension(tri1) == 1
    three = treegen.product_market([[2.0, 1.0, 0.5]] * 2)
    assert polytope_dimension(three) == 4
    assert strategy_dimension(three) == 4


def test_brute_dual_bin1_mass_only(bin1, exp_pair_raw):
    # zero-dimensional polytope: the oracle reduces to the mass search
    bd = brute_force_dual(bin1, exp_pair_raw, 0.0)
    assert bd == pytest.approx(-BIN1_MASS, abs=1e-9)


def test_brute_dual_matches_solver_tri1(tri1, exp_pair_raw):
    sol = solve_dual(tri1, exp_pair_raw, 0.0)
    bd = brute_force_dual(tri1, exp_pair_raw, 0.0, points_per_dim=129, rounds=8)
    assert bd == pytest.approx(sol.value, abs=1e-6)
    assert bd >= sol.value - 1e-9   # grid minima never undercut the infimum


def test_brute_dual_refinement_monotone(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    vals = [brute_force_dual(tri1, exp_pair, e, points_per_dim=n, rounds=1)
            for n in (9, 17, 33)]  # nested grids
    assert vals[0] >= vals[1] - 1e-14
    assert vals[1] >= vals[2] - 1e-14
    sol = solve_dual(tri1, exp_pair, e)
    assert vals[2] >= sol.value - 1e-9


def test_brute_dual_grid_mode_refuses_high_dimension():
    tree = treegen.product_market([[2.0, 1.0, 0.5]] * 2)
    with pytest.raises(DimensionError):
        brute_force_dual(tree, exponential_utility(1.0, 2.0), 0.0, mode="grid")


def test_brute_dual_sample_mode():
    tree = treegen.product_market([[2.0, 1.0, 0.5]] * 2)
    pair = exponential_utility(1.0, 2.0)
    sol = solve_dual(tree, pair, 0.0)
    bd = brute_force_dual(tree, pair, 0.0, mode="sample", n_samples=4096, seed=1)
    assert bd >= sol.value - 1e-9
    assert bd <= sol.value + 0.05  # weaker evidence, documented as such


def test_brute_dual_sample_mode_lets_enumeration_faults_through(monkeypatch):
    # only an exceeded vertex cap falls back to the Gaussian samples
    import treedual.oracle as om

    def broken(*args, **kwargs):
        raise ValueError("broken enumeration")

    monkeypatch.setattr(om, "vertex_enumerate", broken)
    tree = treegen.product_market([[2.0, 1.0, 0.5]] * 2)
    with pytest.raises(ValueError, match="broken enumeration"):
        brute_force_dual(tree, exponential_utility(1.0, 2.0), 0.0, mode="sample",
                         n_samples=16)


def test_brute_primal_matches_recovered_value(tri1, exp_pair):
    e = {"a": 0.3, "b": -0.2, "c": 0.1}
    sol = solve_dual(tri1, exp_pair, e)
    ps = recover(tri1, exp_pair, e, sol)
    bp = brute_force_primal(tri1, exp_pair, e)
    assert bp == pytest.approx(ps.value, abs=1e-7)


def test_brute_primal_dimension_guard():
    tree = treegen.product_market([[2.0, 0.5]] * 4)  # 15 non-leaf nodes
    with pytest.raises(DimensionError):
        brute_force_primal(tree, exponential_utility(1.0, 2.0), 0.0)


def test_weak_duality_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(6):
        tree = treegen.random_market(rng, max_periods=2)
        e = treegen.random_endowment(rng, tree)
        pair = exponential_utility(1.0, 2.0)
        bd = brute_force_dual(tree, pair, e, mode="sample", n_samples=512,
                              seed=int(rng.integers(1 << 30)))
        if strategy_dimension(tree) <= 12:
            bp = brute_force_primal(tree, pair, e, n_starts=8)
            assert bp <= bd + 1e-6  # weak duality holds between the oracles


def test_check_duality_gap_ok(tri1, exp_pair, tp_pair):
    for pair in (exp_pair, tp_pair):
        rep = check_duality_gap(tri1, pair, {"a": 0.3, "b": -0.2, "c": 0.1})
        assert rep.regime == "OK"
        assert rep.gap_solver <= 1e-7
        assert rep.gap_brute_dual <= 1e-5
        assert rep.gap_brute_primal <= 1e-5


def test_check_duality_gap_regimes(exp_pair, tp_pair):
    rep = check_duality_gap(treegen.arbitrage_market(), exp_pair, 0.0)
    assert rep.regime == "NO_MM"
    rep = check_duality_gap(treegen.dead_leaf_market(), tp_pair, 0.0)
    assert rep.regime == "INFEASIBLE_ENTROPY"
    rep = check_duality_gap(treegen.dead_leaf_market(), exp_pair, 0.0)
    assert rep.regime == "OK"
    assert rep.solver_primal is None  # degenerate: no primal optimizer


def test_gap_detected_on_mismatched_values(tri1, exp_pair, monkeypatch):
    # force a wrong solver value and make sure the oracle flags it
    import treedual.oracle as om

    real = om.solve_dual

    def crooked(tree, pair, endow, **kw):
        sol = real(tree, pair, endow, **kw)
        object.__setattr__(sol, "value", sol.value - 1e-3)
        return sol

    monkeypatch.setattr(om, "solve_dual", crooked)
    with pytest.raises(GapDetectedError) as exc:
        check_duality_gap(tri1, exp_pair, 0.0)
    assert exc.value.report is not None
