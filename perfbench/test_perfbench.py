"""Self-tests of the benchmark's own parts.

Run with ``python -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import markets  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerRun  # noqa: E402

SHAPES = [((3,), 1), ((2, 2, 2), 1), ((4, 3), 1), ((3, 3), 2), ((4, 4), 2), ((3, 3, 3), 2)]


def _draw(seed):
    """Draws from base ``seed``, moved as a run's seed moves them."""
    return markets.Draw(np.random.default_rng(seed), np.random.default_rng([seed, 1]),
                        workloads.JITTER)


def _angular_gap(vectors):
    angles = np.sort(np.arctan2(vectors[:, 1], vectors[:, 0]))
    gaps = np.diff(np.concatenate([angles, angles[:1] + 2 * math.pi]))
    return float(gaps.max())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("branching,n_assets", SHAPES)
def test_equivalent_markets_have_positive_one_step_weights(seed, branching, n_assets):
    m = markets.build_market(_draw(seed), branching, n_assets)
    assert m.label == markets.EQUIVALENT
    for node, kids in enumerate(m.children):
        if not kids:
            continue
        w = markets.one_step_weights(m, node)
        assert w is not None and np.all(w > 0)
        d_s = np.array([m.prices[c] - m.prices[node] for c in kids])
        assert np.abs(w @ d_s).max() <= 1e-9
        if n_assets == 2:
            assert _angular_gap(d_s) < math.pi


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("branching,n_assets,depth",
                         [((3, 3), 1, 0), ((2, 2, 2), 1, 1), ((3, 3), 2, 0), ((4, 3), 2, 1)])
def test_degenerate_markets_kill_exactly_the_labelled_leaves(seed, branching, n_assets, depth):
    m = markets.build_market(_draw(seed), branching, n_assets, depth)
    assert m.label == markets.DEGENERATE
    for node, kids in enumerate(m.children):
        if kids:
            has_weights = markets.one_step_weights(m, node) is not None
            assert has_weights == (node != m.degenerate_node)
    flat = m.live[m.degenerate_node]
    assert len(flat) == 1
    assert np.array_equal(m.prices[flat[0]], m.prices[m.degenerate_node])
    n_dead = (branching[depth] - 1) * int(np.prod(branching[depth + 1:]))
    assert len(m.dead_leaves()) == n_dead


def test_generator_is_deterministic_and_valid_for_the_package():
    td = run.import_package()
    a = markets.build_market(workloads.cell_draw("book", 7, 1, 0), (3, 4), 2, 1)
    b = markets.build_market(workloads.cell_draw("book", 7, 1, 0), (3, 4), 2, 1)
    c = markets.build_market(workloads.cell_draw("book", 8, 1, 0), (3, 4), 2, 1)
    assert a.doc == b.doc and a.doc != c.doc
    assert a.children == c.children and a.live == c.live
    tree = td.market_from_dict(a.doc)
    assert tree.leaf_ids == a.leaf_ids
    assert np.array_equal(tree.leaf_probability_array, a.leaf_prob())


@pytest.mark.parametrize("branching,n_assets", [((3,), 1), ((2, 3), 1), ((4, 4), 2)])
def test_exponential_reference_agrees_with_primal_newton(branching, n_assets):
    rng = _draw(3)
    m = markets.build_market(rng, branching, n_assets)
    util = reference.Utility("exponential", gamma=1.3, shift=2.0)
    e = markets.random_endowment(rng, m)
    dp = reference.optimal_value(m, util, e)
    newton = reference.PrimalSolver(m, util).solve(e)[0]
    assert abs(dp - newton) <= 1e-12 * (1.0 + abs(dp))


@pytest.mark.parametrize("family", ["exponential", "two_power"])
@pytest.mark.parametrize("volume", [1e-3, 1.0, 1e3])
def test_reference_prices_satisfy_the_price_inequalities(family, volume):
    rng = _draw(11)
    m = markets.build_market(rng, (3, 3), 1)
    util = (reference.Utility("exponential", gamma=0.8, shift=2.0) if family == "exponential"
            else reference.Utility("two_power", a=0.5, b=1.0, shift=1.0))
    e = markets.random_endowment(rng, m)
    x = volume * markets.random_claim(rng, m)
    ref = reference.prices(m, util, e, x)
    lo, hi = ref.bounds
    tol = 1e-9 * (1.0 + hi)
    assert lo - tol <= ref.bid <= ref.davis + tol
    assert ref.davis <= ref.offer + tol <= hi + 2 * tol


def test_degenerate_exponential_value_matches_the_live_subtree():
    # root degenerate with one flat child: the value is that of the flat
    # subtree plus the dead leaves' contribution U(inf) = C to the dual
    rng = _draw(5)
    m = markets.build_market(rng, (3, 2), 1, 0)
    util = reference.Utility("exponential", gamma=1.0, shift=2.0)
    e = markets.random_endowment(rng, m)
    td = run.import_package()
    doc = dict(m.doc, endowment=markets.leaf_map(m, e))
    tree = td.market_from_dict(doc)
    sol = td.solve_dual(tree, td.exponential_utility(1.0, 2.0), tree.endowment)
    assert sol.support == markets.DEGENERATE
    assert abs(sol.value - reference.optimal_value(m, util, e)) <= 1e-7 * (1 + abs(sol.value))


@pytest.mark.parametrize("name,cell", [("quote", 0), ("book", 0), ("verify", 0)])
def test_traced_and_untraced_runs_give_identical_outputs(tmp_path, name, cell):
    td, wl, cases = run.set_up(name, 1, tmp_path)
    case = cases[cell]
    before = td.pricing.solve_dual
    layer = LayerRun(td, wl, run.run_op)
    outcome, latency, out = run.run_op(td, wl, case, case.pair)
    assert outcome == "ok"
    assert run.classify(wl, case, outcome, out) == "ok"
    rec = layer.traced_op(case, outcome, latency, out)
    assert rec["traced_output_identical"] and layer.mismatches == 0
    assert td.pricing.solve_dual is before  # bindings restored
    metrics = layer.metrics()
    assert metrics["trace.overhead_ratio"][0] > 0
    tr = layer.tracer
    assert tr.calls and all(tr.self_s[k] <= tr.total_s[k] + 1e-9 for k in tr.calls)
    n = len(tr.s_start)
    assert all(tr.s_parent[k] < k for k in range(n))
    assert all(tr.s_start[k] <= tr.s_end[k] for k in range(n))


def test_traced_bindings_cover_names_imported_by_other_modules():
    td = run.import_package()
    layer = LayerRun(td, workloads.WORKLOADS["quote"], run.run_op)
    tr = layer.tracer
    tr.install()
    try:
        for mod, attr in [(td.pricing, "solve_dual"), (td.pricing, "solve_lp"),
                          (td.geometry, "solve_lp"), (td.dual, "_support_structure"),
                          (td.checks, "vertex_enumerate"), (td, "price_report")]:
            assert hasattr(getattr(mod, attr), "__wrapped_by_tracer__"), (mod, attr)
    finally:
        tr.uninstall()
    assert not hasattr(td.pricing.solve_dual, "__wrapped_by_tracer__")


def test_deadline_stops_an_operation(tmp_path):
    td, wl, cases = run.set_up("book", 1, tmp_path)

    class Slow:
        name, deadline_s = "slow", 0.05

        @staticmethod
        def execute(td, case, pair):
            while True:
                pass

    outcome, latency, out = run.run_op(td, Slow, cases[0], cases[0].pair)
    assert outcome == "deadline" and out is None
    assert 0.05 <= latency < 1.0
