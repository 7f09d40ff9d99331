"""Node log masses and the conditional expectations that weigh by them,
against the float subtree-ratio form of ``ratios``.

Where every mass is a normal float the two forms agree to 1e-13; where a
path mass underflows to 0 the ratio form has nothing to divide, and the log
form still reads a finite value at every charged node.
"""

import numpy as np
import pytest

import ratios
import treegen
from treedual import (build_constraints, exponential_utility, optimal_measure_price_process,
                      solve_dual, two_power_utility, vertex_enumerate)
from treedual.market import log_masses

PAIRS = (exponential_utility(1.0, 2.0), two_power_utility(0.5, 1.0, 1.0))
TOL = 1e-13


def _instance(seed):
    """A seeded random_market tree, a claim, both families' optima, and the
    leaf measures (k, L) with their node log masses: the optima (their exact
    form) stacked on the tree's vertex measures; and the nodes whose
    subtree masses are all normal floats or 0, with positive total."""
    rng = np.random.default_rng(seed)
    tree = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    e = treegen.random_endowment(rng, tree)
    sols = [solve_dual(tree, pair, e) for pair in PAIRS]
    verts = vertex_enumerate(build_constraints(tree))
    q = np.vstack([sol.q_hat for sol in sols] + [verts])
    ell = np.vstack([sol.node_log_q for sol in sols]
                    + [tree.log_subtree_sums(log_masses(verts))])
    off = (q > 0) & (q < np.finfo(float).tiny)
    normal = (tree.subtree_sums(off) == 0) & (tree.subtree_sums(q) > 0)
    return tree, rng.uniform(0.0, 1.0, tree.n_leaves), sols, q, ell, normal


@pytest.mark.parametrize("seed", range(8))
def test_node_log_masses_are_the_logs_of_the_subtree_sums(seed):
    tree, _, _, q, ell, normal = _instance(seed)
    mass = tree.subtree_sums(q)
    assert normal.any()
    assert np.abs(ell[normal] - np.log(mass[normal])).max() <= TOL
    assert ((ell > -np.inf) == (mass > 0)).all()


@pytest.mark.parametrize("seed", range(8))
def test_conditional_expectations_match_the_subtree_ratios(seed):
    tree, b, _, q, ell, normal = _instance(seed)
    lay, inner = tree.layout, len(tree.nonleaf_ids)
    x = np.random.default_rng(seed).normal(size=len(lay.ids))
    on, dead = normal[:, :inner], ell[:, :inner] == -np.inf
    for proc in (x, lay.prices):
        got, want = tree.one_step_expectation(proc, ell), ratios.one_step(tree, proc, q)
        assert np.abs(got - want)[on].max() <= TOL * (1.0 + np.abs(want[on]).max())
        assert (np.isnan(got).reshape(dead.shape + (-1,)) == dead[..., None]).all()
    got, want = tree.conditional_expectation(b, ell), ratios.conditional(tree, b, q)
    assert np.abs(got - want)[normal].max() <= TOL
    assert (np.isnan(got) == (ell == -np.inf)).all()


@pytest.mark.parametrize("seed", range(8))
def test_optimal_measure_price_process_matches_the_subtree_ratios(seed):
    tree, b, sols, _, _, normal = _instance(seed)
    for sol, on in zip(sols, normal):
        want = ratios.conditional(tree, b, sol.q_hat)
        assert np.abs(optimal_measure_price_process(sol, b) - want)[on].max() <= TOL


def test_log_form_is_finite_where_a_path_mass_is_zero():
    # the caterpillar's optimal path masses reach ~1e-400: q_hat is 0 on its
    # deepest leaves, so the ratio form divides 0 by 0 below some nodes
    tree = treegen.caterpillar_market()
    sol = solve_dual(tree, PAIRS[0], 0.0)
    lay, inner = tree.layout, len(tree.nonleaf_ids)
    assert (tree.subtree_sums(sol.q_hat) == 0).any()
    assert sol.charged.all() and np.isfinite(sol.node_log_q).all()
    b = np.linspace(0.0, 1.0, tree.n_leaves)
    assert np.isnan(ratios.conditional(tree, b, sol.q_hat)).any()
    full = tree.conditional_expectation(b, sol.node_log_q)
    assert np.isfinite(full).all() and np.isfinite(optimal_measure_price_process(sol, b)).all()
    # the prices are a martingale under q_hat at every node, the deepest too
    step = tree.one_step_expectation(lay.prices, sol.node_log_q)
    assert np.isfinite(step).all()
    assert (np.abs(step - lay.prices[:inner]) / (1.0 + np.abs(lay.prices[:inner]))).max() <= 1e-10
