import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

import treegen
from treedual import (AugmentInfeasibleError, BracketFailError, DomainError,
                      EvaluationOverflowError, InfeasibleEntropyError,
                      InfiniteEntropyError, NonconvergedError, RandomVariable,
                      average_price_curve, dual_value_curve,
                      certainty_equivalent, check_mubpp, davis_price,
                      endowment_sensitivity, entropic_penalty,
                      exponential_utility, indifference_price,
                      indifference_price_lipschitz_bound, leaf_values,
                      optimal_measure_price_process, price_bounds,
                      price_report, price_via_penalty, solve_dual,
                      solve_dual_fixed_mass, two_power_utility,
                      vertex_enumerate)
from treedual import cli, dual, geometry, market_from_dict, market_to_dict, pricing

E_TRI = {"a": 0.3, "b": -0.2, "c": 0.1}
B_TRI = {"a": 1.0, "b": 0.0, "c": 0.0}


def test_complete_market_prices_are_expectations_at_scale(tp_pair):
    # 512 leaves, one martingale measure Q: bid = offer = CE = E_Q[B], and
    # the cold solve of the core, the closed form's oracle, starts at the
    # optimum up to the budget
    tree = treegen.product_market([[1.15, 0.9]] * 9)
    rng = np.random.default_rng(0)
    e, b = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    assert dual._core_solutions(tree, tp_pair, e[None])[0].iterations[0]["steps"] <= 3
    rep = price_report(tree, tp_pair, e, b)
    expected = float(np.exp(geometry.find_equivalent_mm(tree)) @ b)
    for price in (rep.bid, rep.offer, rep.certainty_equivalent, rep.davis):
        assert abs(price - expected) <= 1e-12 * (1.0 + abs(expected))


def test_price_bounds(tri1, bin1):
    assert price_bounds(tri1, B_TRI) == pytest.approx([0.0, 1 / 3], abs=1e-12)
    assert price_bounds(bin1, {"u": 1.0, "d": 0.0}) == pytest.approx(
        [1 / 3, 1 / 3], abs=1e-12)
    assert price_bounds(tri1, 0.7) == pytest.approx([0.7, 0.7], abs=1e-12)


def test_complete_market_price_is_expectation(bin1, exp_pair, tp_pair):
    call = {"u": 1.0, "d": 0.0}
    for pair in (exp_pair, tp_pair):
        for endow in (0.0, {"u": 0.5, "d": -0.3}):
            p = indifference_price(bin1, pair, endow, call)
            assert p == pytest.approx(1 / 3, abs=1e-9)


def test_constant_claim_prices_to_itself(tri1, exp_pair):
    assert indifference_price(tri1, exp_pair, E_TRI, 0.7) == pytest.approx(
        0.7, abs=1e-8)


def test_replicable_claim_prices_to_zero(tri1, exp_pair):
    # terminal gain of holding 2 units across the single period
    gain = 2.0 * (np.array([2.0, 1.0, 0.5]) - 1.0)
    b = RandomVariable.from_array(tri1, gain)
    assert indifference_price(tri1, exp_pair, E_TRI, b) == pytest.approx(
        0.0, abs=1e-8)


@pytest.mark.parametrize("pair_factory,endow", [
    (lambda: exponential_utility(1.0, 2.0), 0.0),
    (lambda: exponential_utility(2.0, 1.0), E_TRI),
    (lambda: two_power_utility(0.5, 1.0, 1.0), E_TRI),
])
def test_cross_method_agreement(tri1, pair_factory, endow):
    pair = pair_factory()
    bid = indifference_price(tri1, pair, endow, B_TRI)
    pen = price_via_penalty(tri1, pair, endow, B_TRI)
    assert abs(bid - pen) <= 1e-6 * (1 + abs(bid))


def test_entropic_penalty_properties(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, E_TRI)
    assert entropic_penalty(tri1, exp_pair, E_TRI, sol.q_hat,
                            base=sol) == pytest.approx(0.0, abs=1e-8)
    for v in np.exp(vertex_enumerate(tri1)):
        alpha = entropic_penalty(tri1, exp_pair, E_TRI, v, base=sol)
        assert alpha >= -1e-10


@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_entropic_penalty_matches_a_bounded_scalar_minimization(tri1, scale):
    # at scale 100 the optimal log mass of a vertex lies near -30, far
    # outside the initial bracket [-3, 3]
    from scipy.optimize import minimize_scalar

    pair = exponential_utility(1.0, 2.0)
    endow = {k: scale * v for k, v in E_TRI.items()}
    base = solve_dual(tri1, pair, endow)
    p = tri1.leaf_probability_array
    e = np.array([endow[k] for k in ("a", "b", "c")])
    verts = list(np.exp(vertex_enumerate(tri1)))
    for q in verts + [0.3 * verts[0] + 0.7 * verts[-1]]:
        def phi(s):
            y = math.exp(s)
            return (float(p @ pair.v(y * q / p)) + y * float(q @ e) - base.value) / y

        ref = minimize_scalar(phi, bounds=(-60.0, 60.0), method="bounded",
                              options={"xatol": 1e-10}).fun
        alpha = entropic_penalty(tri1, pair, endow, q, base=base)
        assert alpha == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("pair", [two_power_utility(0.5, 1.0, 1.0),
                                  two_power_utility(0.3, 2.0, 1.0),
                                  two_power_utility(0.05, 1.0, 1.0)], ids=lambda p: p.describe())
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_two_power_entropic_penalty_matches_a_bounded_scalar_minimization(tri1, pair, scale):
    # full-support martingale measures: the vertices mollified toward the
    # optimum, the one-step weights 1e-6 and 0.3 of the way.  At a = 0.05
    # the gap's slope h starts near -1e114 on a mollified vertex, where
    # Newton steps of about 0.05 in the log mass crawl: the root-finder's
    # step rule then strides until the root is bracketed
    from scipy.optimize import minimize_scalar

    e = scale * np.array([0.3, -0.2, 0.1])
    sol = solve_dual(tri1, pair, e)
    p = tri1.leaf_probability_array
    verts = np.exp(vertex_enumerate(tri1))
    for q in np.vstack([(1 - 1e-6) * verts + 1e-6 * sol.q_hat, 0.7 * verts + 0.3 * sol.q_hat]):
        def phi(s):
            y = math.exp(s)
            return (float(p @ pair.v(y * q / p)) + y * float(q @ e) - sol.value) / y

        ref = minimize_scalar(phi, bounds=(-30.0, 30.0), method="bounded",
                              options={"xatol": 1e-10}).fun
        alpha = entropic_penalty(tri1, pair, e, q, base=sol)
        assert alpha == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_entropic_penalty_vanishes_at_the_normalized_optimizer(tri1, pair_name, scale,
                                                               request):
    pair = request.getfixturevalue(pair_name)
    e = scale * np.array([0.3, -0.2, 0.1])
    sol = solve_dual(tri1, pair, e)
    assert abs(entropic_penalty(tri1, pair, e, sol.q_hat, base=sol)) <= 1e-12
    assert abs(entropic_penalty(tri1, pair, e, sol.q_hat)) <= 1e-12


@pytest.mark.parametrize("gamma", [0.5, 3.0, 10.0])
@pytest.mark.parametrize("scale", [-10.0, 1.0, 10.0])
def test_exponential_entropic_penalty_meets_its_closed_form(tri1, gamma, scale):
    # the least gap sits at the optimal mass e^L for every measure, where it
    # is (H(q|P) + L)/gamma + E_q[e]; here L runs from -99 to 42
    pair = exponential_utility(gamma, 2.0)
    e = scale * np.array([0.3, -0.2, 0.1])
    sol = solve_dual(tri1, pair, e)
    p = tri1.leaf_probability_array
    verts = np.exp(vertex_enumerate(tri1))
    for q in np.vstack([verts, (1 - 1e-6) * verts + 1e-6 * sol.q_hat]):
        on = q > 0
        want = (float(q[on] @ np.log(q[on] / p[on])) + sol._log_mass) / gamma + float(q @ e)
        alpha = entropic_penalty(tri1, pair, e, q, base=sol)
        assert alpha == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_exponential_entropic_penalty_reads_the_optimal_log_mass_near_sup_u(tri1):
    # C - base is 7.3e-11 here: from the float base value the penalty lost
    # up to 2.7e-5 relative; from the claim-free optimum's log mass it is
    # the closed form to rounding
    pair = exponential_utility(0.5, 2.0)
    e = -100.0 * np.random.default_rng(0).uniform(-1.0, 1.0, 3)
    sol = solve_dual(tri1, pair, e)
    assert pair.params["C"] - sol.value < 1e-10
    p = tri1.leaf_probability_array
    verts = np.exp(vertex_enumerate(tri1))
    for q in np.vstack([verts, (1 - 1e-6) * verts + 1e-6 * sol.q_hat, [[0.2, 0.4, 0.4]]]):
        on = q > 0
        want = (float(q[on] @ np.log(q[on] / p[on])) + sol._log_mass) / 0.5 + float(q @ e)
        assert entropic_penalty(tri1, pair, e, q) == pytest.approx(want, rel=1e-12)


def test_exponential_entropic_penalty_holds_where_the_optimal_value_rounds_to_c(tri1):
    # twice the endowment above puts the claim-free value within rounding
    # of sup U = C: its log mass still gives the closed form
    pair = exponential_utility(0.5, 2.0)
    e = -200.0 * np.random.default_rng(0).uniform(-1.0, 1.0, 3)
    sol = solve_dual(tri1, pair, e)
    assert sol.value == pair.params["C"]
    p, q = tri1.leaf_probability_array, np.array([0.2, 0.4, 0.4])
    want = (float(q @ np.log(q / p)) + sol._log_mass) / 0.5 + float(q @ e)
    assert entropic_penalty(tri1, pair, e, q) == pytest.approx(want, rel=1e-12)
    assert entropic_penalty(tri1, pair, e, q, base=sol) == pytest.approx(want, rel=1e-12)


def test_entropic_penalty_refuses_a_base_of_another_problem(tri1, exp_pair, tp_pair):
    sol = solve_dual(tri1, exp_pair, E_TRI)
    q = np.array([0.2, 0.4, 0.4])
    for tree, pair, endow in [(treegen.tri1(), exp_pair, E_TRI), (tri1, tp_pair, E_TRI),
                              (tri1, exp_pair, 0.0)]:
        with pytest.raises(DomainError, match="dual solution was solved for"):
            entropic_penalty(tree, pair, endow, q, base=sol)


@pytest.mark.parametrize("family, q", [
    ("exponential", [0.5, 0.5, 0.5]),      # mass 1.5
    ("exponential", [0.9, 0.05, 0.05]),    # root drift +0.875
    ("two-power", [0.5, 0.5, 0.5]),        # was priced at a negative penalty
], ids=["mass", "drift", "two-power-mass"])
def test_entropic_penalty_refuses_a_measure_off_its_domain(tri1, exp_pair, tp_pair, family, q):
    pair = exp_pair if family == "exponential" else tp_pair
    with pytest.raises(DomainError, match="martingale probability measure"):
        entropic_penalty(tri1, pair, E_TRI, q)


def test_entropic_penalty_infinite_for_two_power_vertex(tri1, tp_pair):
    verts = np.exp(vertex_enumerate(tri1))
    with pytest.raises(InfiniteEntropyError):
        entropic_penalty(tri1, tp_pair, 0.0, verts[0])


def test_penalty_representation_bound(tri1, exp_pair):
    # the bid never exceeds expectation plus penalty, for any tested measure
    sol = solve_dual(tri1, exp_pair, E_TRI)
    bid = indifference_price(tri1, exp_pair, E_TRI, B_TRI)
    b = np.array([1.0, 0.0, 0.0])
    for v in np.exp(vertex_enumerate(tri1)):
        alpha = entropic_penalty(tri1, exp_pair, E_TRI, v, base=sol)
        assert bid <= float(v @ b) + alpha + 1e-8


def test_price_report_invariants(tri1, exp_pair):
    rep = price_report(tri1, exp_pair, E_TRI, B_TRI)
    lo, hi = rep.lp_bounds
    assert lo - 1e-9 <= rep.bid <= rep.davis + 1e-9
    assert rep.davis <= hi + 1e-9
    assert rep.bid <= rep.offer + 1e-9
    assert rep.method_agreement_residual <= 1e-6


def test_translation_invariance(tri1, exp_pair):
    base = indifference_price(tri1, exp_pair, E_TRI, B_TRI)
    for c in (0.4, -1.2):
        shifted = indifference_price(
            tri1, exp_pair, E_TRI,
            {k: v + c for k, v in B_TRI.items()})
        assert shifted == pytest.approx(base + c, abs=1e-8)


def test_monotonicity(tri1, exp_pair):
    lower = {"a": 0.5, "b": -0.5, "c": 0.2}
    upper = {"a": 0.7, "b": -0.5, "c": 0.6}
    p_lo = indifference_price(tri1, exp_pair, E_TRI, lower)
    p_hi = indifference_price(tri1, exp_pair, E_TRI, upper)
    assert p_lo <= p_hi + 1e-9


def test_concavity(tri1, exp_pair):
    b1 = leaf_values(tri1, {"a": 1.0, "b": 0.0, "c": 0.0})
    b2 = leaf_values(tri1, {"a": 0.0, "b": 0.5, "c": -0.5})
    p1 = indifference_price(tri1, exp_pair, E_TRI, b1)
    p2 = indifference_price(tri1, exp_pair, E_TRI, b2)
    for lam in (0.25, 0.5, 0.75):
        mix = b1 * lam + b2 * (1 - lam)
        p_mix = indifference_price(tri1, exp_pair, E_TRI, mix)
        assert p_mix >= lam * p1 + (1 - lam) * p2 - 1e-8


def test_bid_offer_ordering(tri1, tp_pair):
    bid = indifference_price(tri1, tp_pair, E_TRI, B_TRI)
    offer = -indifference_price(tri1, tp_pair, E_TRI,
                                {k: -v for k, v in B_TRI.items()})
    assert bid <= offer + 1e-9


def test_continuity_from_above(tri1, exp_pair):
    base = leaf_values(tri1, B_TRI)
    prices = []
    for n in (1, 2, 4, 8, 1000):
        prices.append(indifference_price(tri1, exp_pair, E_TRI, base + 1.0 / n))
    target = indifference_price(tri1, exp_pair, E_TRI, base)
    assert all(a >= b - 1e-10 for a, b in zip(prices, prices[1:]))
    assert prices[-1] == pytest.approx(target, abs=2e-3)
    # Lipschitz bound from the worst-case expectation distance
    for n, p in zip((1, 2, 4, 8, 1000), prices):
        bound = indifference_price_lipschitz_bound(
            tri1, base + 1.0 / n, base)
        assert abs(p - target) <= bound + 1e-8
        assert bound == pytest.approx(1.0 / n, abs=1e-10)


def test_certainty_equivalent_identity(tri1, exp_pair):
    b = leaf_values(tri1, B_TRI)
    bid = indifference_price(tri1, exp_pair, E_TRI, b)
    ce = certainty_equivalent(tri1, exp_pair, leaf_values(tri1, E_TRI) + b, -b)
    assert bid == pytest.approx(-ce, abs=1e-7)


def _two_asset_case(volume=1.0):
    """Two periods of four planar moves around the origin (incomplete, 16
    leaves), a random endowment and ``volume`` calls on the first asset."""
    moves = [(1.3, 1.0), (0.8, 1.25), (0.9, 0.8), (1.1, 1.1)]
    tree = treegen.product_market([moves, moves], s0=(1.0, 1.2))
    rng = np.random.default_rng(5)
    endow = rng.uniform(-1.0, 1.0, tree.n_leaves)
    s1 = tree.layout.prices[-tree.n_leaves:, 0]  # the leaves come last
    return tree, endow, volume * np.maximum(s1 - 1.0, 0.0)


def _exp_closed_form_bid(tree, pair, endow, claim):
    # value(e + c) = C - exp(-gamma c) (C - value(e)) for the exponential family
    c, g = pair.params["C"], pair.params["gamma"]
    v_e = solve_dual(tree, pair, endow).value
    v_eb = solve_dual(tree, pair, endow + claim).value
    return math.log((c - v_e) / (c - v_eb)) / g


@pytest.mark.parametrize("market", ["tri1", "two_asset"])
def test_exponential_prices_match_closed_form(market):
    pair = exponential_utility(1.5, 1.0 + 1.0 / 1.5)
    if market == "tri1":
        tree = treegen.tri1()
        endow, claim = leaf_values(tree, E_TRI), leaf_values(tree, B_TRI)
    else:
        tree, endow, claim = _two_asset_case()
    rep = price_report(tree, pair, endow, claim)
    bid = _exp_closed_form_bid(tree, pair, endow, claim)
    offer = -_exp_closed_form_bid(tree, pair, endow, -claim)
    assert rep.bid == pytest.approx(bid, rel=1e-10)
    assert rep.offer == pytest.approx(offer, rel=1e-10)
    assert rep.certainty_equivalent == pytest.approx(rep.bid, rel=1e-10)


def test_exponential_certainty_equivalent_equals_bid_at_large_volume():
    # translation invariance makes the two coincide; bisection used to stop
    # where the value is flat in cash
    pair = exponential_utility(1.5, 1.0 + 1.0 / 1.5)
    tree, endow, claim = _two_asset_case(volume=100.0)
    bid = indifference_price(tree, pair, endow, claim)
    ce = certainty_equivalent(tree, pair, endow, claim)
    assert ce == pytest.approx(bid, rel=1e-9)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_price_report_counts_its_dual_solves(tri1, pair_name, request,
                                             monkeypatch):
    # (solver, optima returned) per call; dual_solves counts optima and
    # dual_rounds the rounds, each one call of the Newton kernel or one pass
    pair = request.getfixturevalue(pair_name)
    calls = []
    for mod, name in ((dual, "_newton_core"), (dual, "_log_space_solutions")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            calls.append((_name, len(out) if isinstance(out, list) else len(out[0])))
            return out
        monkeypatch.setattr(mod, name, counted)
    rep = price_report(tri1, pair, E_TRI, B_TRI)
    assert rep.dual_solves == sum(n for _, n in calls)
    assert rep.dual_solves <= 25
    assert rep.dual_rounds == len(calls)
    assert rep.method_agreement_residual <= 1e-6
    if pair_name == "exp_pair":
        # one log-space pass over e, e + B and e - B
        assert calls == [("_log_space_solutions", 3)] and rep.dual_solves == 3
        assert rep.dual_rounds == 1
    else:
        # base and the certainty equivalent's target in the first round
        assert calls[0] == ("_newton_core", 2)


def _probes(tree, pair, search):
    """A two-power search's result and the dual solves it made, run alone:
    the solve it starts from, then one per probe, each in its own round."""
    solves = pricing.SolveCounter()
    result, = solves.run(tree, pair, search)
    assert solves.rounds == solves.n
    return result, solves.n


def _quote_instance(seed, periods, volume):
    """A trinomial product tree of the given periods with a random endowment
    and a claim of the given volume, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    tree = treegen.product_market([[rng.uniform(1.1, 1.4), 1.0, rng.uniform(0.7, 0.9)]
                                   for _ in range(periods)])
    return (tree, rng.uniform(-1.0, 1.0, tree.n_leaves),
            volume * rng.uniform(0.0, 1.0, tree.n_leaves))


@pytest.mark.parametrize("seed,periods,volume", [
    (0, 1, 1e-3), (1, 2, 1e-1), (2, 2, 1e1), (3, 3, 1e2), (4, 3, 1e3)])
def test_two_power_price_report_steps_its_searches_in_lockstep(tp_pair, seed, periods,
                                                              volume):
    # each search meets the same solves as alone, so the report's prices
    # equal the solo searches' and the public functions'; the searches start
    # together, the bid, offer and penalty from the optimum at e, which the
    # marginal price reads too, and the certainty equivalent from e + B, so
    # the first round solves two rows and the report takes as many rounds as
    # its longest search
    tree, e, b = _quote_instance(seed, periods, volume)
    rep = price_report(tree, tp_pair, e, b)
    lo, hi = price_bounds(tree, b)
    bid, n_bid = _probes(tree, tp_pair, pricing._bid(tree, tp_pair, e, b, lo))
    offer, n_offer = _probes(tree, tp_pair, pricing._bid(tree, tp_pair, e, -b, -hi))
    ce, n_ce = _probes(tree, tp_pair, pricing._certainty_equivalent(tree, tp_pair, e, b, hi))
    pen, n_pen = _probes(tree, tp_pair, pricing._penalty(tree, tp_pair, e, b))
    assert rep.bid == bid == indifference_price(tree, tp_pair, e, b)
    assert rep.offer == -offer == -indifference_price(tree, tp_pair, e, -b)
    assert rep.certainty_equivalent == ce == certainty_equivalent(tree, tp_pair, e, b)
    assert pen == price_via_penalty(tree, tp_pair, e, b)
    assert rep.method_agreement_residual == abs(bid - pen) / (1.0 + abs(bid))
    assert rep.dual_solves == 2 + (n_bid - 1) + (n_offer - 1) + (n_ce - 1) + (n_pen - 1)
    assert rep.dual_rounds == max(n_bid, n_offer, n_ce, n_pen)


def test_two_power_volume_curve_steps_every_volume_in_lockstep(tp_pair):
    tree, e, b = _quote_instance(5, 3, 1.0)
    betas = [1e-3, 1e-1, 1e1, 1e3]
    rep = average_price_curve(tree, tp_pair, e, b, betas)
    lo, hi = price_bounds(tree, b)
    solo = [_probes(tree, tp_pair, pricing._bid(tree, tp_pair, e, beta * b, beta * lo))
            for beta in betas]
    assert rep.prices == tuple(p / beta for (p, _), beta in zip(solo, betas))
    # every volume starts from the optimum at e, solved once
    assert rep.dual_solves == 1 + sum(n - 1 for _, n in solo)
    assert rep.dual_rounds == max(n for _, n in solo)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_solve_counter_solves_a_request_shared_by_searches_once_per_round(
        tri1, pair_name, request, monkeypatch):
    pair = request.getfixturevalue(pair_name)
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    rows = []

    def counted(tree, pair, endows, mass=None, starts=None, _fn=pricing._solutions):
        rows.append(len(endows))
        return _fn(tree, pair, endows, mass, starts)

    monkeypatch.setattr(pricing, "_solutions", counted)

    def search(warm):
        # a request is its endowment, mass and start: the same endowment at
        # another mass or from another start is another row
        first, = yield [(e, None, None)]
        second = yield [(e + b, math.log(2.0), None), (e, None, None),
                        (e + b, math.log(2.0), warm)]
        return first, *second

    solves = pricing.SolveCounter()
    base, one, two = solves.run(tri1, pair, pricing._solve(e), search(None),
                                search(np.full(3, 2.0 / 3)))
    assert rows == [1, 3] and (solves.n, solves.rounds) == (4, 2)
    assert one[0] is two[0] is base
    assert one[1] is two[1] is one[3] and one[2] is two[2] and two[3] is not one[3]
    assert one[2].value == base.value and one[1].mass == pytest.approx(2.0, rel=1e-12)
    assert two[3].value == pytest.approx(one[1].value, rel=1e-12)


@pytest.mark.parametrize("seed,periods,volume", [(0, 1, 1e-3), (2, 2, 1e1), (4, 3, 1e3)])
def test_exponential_price_report_equals_the_solo_functions(exp_pair, seed, periods,
                                                            volume, monkeypatch):
    # every search of the report asks for the optima at e and e +- B, so one
    # pass of three rows serves it, and each solo call is one round of two
    runs = []

    class Recorded(pricing.SolveCounter):
        def run(self, *args):
            out = super().run(*args)
            runs.append((self.n, self.rounds))
            return out

    monkeypatch.setattr(pricing, "SolveCounter", Recorded)
    tree, e, b = _quote_instance(seed, periods, volume)
    rep = price_report(tree, exp_pair, e, b)
    assert (rep.bid, rep.offer, rep.certainty_equivalent) == (
        indifference_price(tree, exp_pair, e, b), -indifference_price(tree, exp_pair, e, -b),
        certainty_equivalent(tree, exp_pair, e, b))
    pen = price_via_penalty(tree, exp_pair, e, b)
    assert rep.method_agreement_residual == abs(rep.bid - pen) / (1.0 + abs(rep.bid))
    assert runs == [(3, 1)] + [(2, 1)] * 4


def test_exponential_pricing_makes_one_pass_per_call(exp_pair, monkeypatch):
    # one Newton batch per live non-leaf level with a choice of weights
    # (every level of this trinomial), whatever the number of endowments the
    # pass stacks
    tree = treegen.product_market([[1.3, 1.0, 0.8]] * 3)
    rng = np.random.default_rng(3)
    endow, claim = rng.uniform(-1, 1, tree.n_leaves), rng.uniform(0, 2, tree.n_leaves)
    levels = sum(start.w0 is None
                 for start in dual._exponential_start(geometry._support_structure(tree)))
    calls = []

    def counted(*args, _fn=dual._lse_min):
        calls.append(1)
        return _fn(*args)
    monkeypatch.setattr(dual, "_lse_min", counted)
    assert price_report(tree, exp_pair, endow, claim).dual_solves == 3
    assert len(calls) == levels == 3
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    betas = cli._parse_betas(sub.choices["curve"].get_default("betas"))
    assert average_price_curve(tree, exp_pair, endow, claim, betas).dual_solves == 10
    assert len(calls) == 2 * levels
    sol = solve_dual(tree, exp_pair, endow)
    assert len(calls) == 3 * levels
    # the curve is read off the optimum's pass
    dual_value_curve(sol, log_masses=np.log([0.5, 0.75, 1.0, 1.5, 2.0]))
    assert len(calls) == 3 * levels


def _count_sweeps(monkeypatch):
    """Records the calling module of each extremal sweep."""
    calls = []
    real = geometry.SupportStructure.extremes

    def counted(self, u):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return real(self, u)

    monkeypatch.setattr(geometry.SupportStructure, "extremes", counted)
    return calls


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_price_report_makes_one_extremal_sweep(tri1, pair_name, request, monkeypatch):
    pair = request.getfixturevalue(pair_name)
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    bid = indifference_price(tri1, pair, e, b)
    offer = -indifference_price(tri1, pair, e, -b)
    ce = certainty_equivalent(tri1, pair, e, b)
    bounds = price_bounds(tri1, b)
    calls = _count_sweeps(monkeypatch)
    rep = price_report(tri1, pair, e, b)
    assert calls == ["treedual.pricing"]
    assert rep.lp_bounds == pytest.approx(bounds, abs=1e-15)
    assert (rep.bid, rep.offer, rep.certainty_equivalent) == pytest.approx(
        (bid, offer, ce), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("betas", [[2.0], [1e-2, 1.0, 1e2], np.logspace(-4, 4, 9)])
def test_volume_curve_makes_one_extremal_sweep_for_its_bounds(tri1, exp_pair, betas, monkeypatch):
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    prices = [indifference_price(tri1, exp_pair, e, b * beta) / beta
              for beta in betas]
    calls = _count_sweeps(monkeypatch)
    rep = average_price_curve(tri1, exp_pair, e, b, betas)
    # one sweep for the bounds, none in any dual solve
    assert calls == ["treedual.pricing"]
    assert rep.prices == pytest.approx(prices, rel=1e-12, abs=1e-15)
    assert rep.lp_lower == pytest.approx(price_bounds(tri1, b)[0], abs=1e-15)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_pricing_and_solving_run_no_linear_program(tri1, exp_pair, pair_name,
                                                   request, no_lp):
    pair = request.getfixturevalue(pair_name)
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    with no_lp():
        rep = price_report(tri1, pair, e, b)
        curve = average_price_curve(tri1, pair, e, b, [1e-2, 1.0, 1e2])
        sens = endowment_sensitivity(tri1, pair, [e, e + 0.5],
                                     sequence=[e + 0.1, e + 0.01], claim=b)
        dead = solve_dual(treegen.dead_leaf_market(), exp_pair, 0.0)
        with pytest.raises(EvaluationOverflowError):
            solve_dual(tri1, exp_pair, -600.0)
    assert rep.lp_bounds == pytest.approx((0.0, 1 / 3), abs=1e-15)
    assert curve.lp_lower == rep.lp_bounds[0]
    assert sens.mass_radius > 0 and all(c.dominated for c in sens.continuity)
    assert dead.support == "DEGENERATE"


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_pricing_on_arrays_builds_no_leaf_dicts(pair_name, request, no_leaf_dicts):
    pair = request.getfixturevalue(pair_name)
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 3)
    rng = np.random.default_rng(4)
    e, b = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    with no_leaf_dicts():
        sol = solve_dual(tree, pair, e)
        rep = price_report(tree, pair, e, b)
        curve = average_price_curve(tree, pair, e, b, [1e-2, 1.0, 1e2])
    assert rep.davis == float(sol.q_hat @ b)
    assert rep.lp_bounds[0] <= rep.bid <= rep.davis <= rep.offer <= rep.lp_bounds[1]
    assert curve.monotone and curve.davis == rep.davis
    # the guard can fail: a leaf-keyed endowment is read by leaf id
    keyed = dict(zip(tree.leaf_ids, e))
    with no_leaf_dicts(), pytest.raises(AssertionError, match="leaf ids were read"):
        solve_dual(tree, pair, keyed)


@pytest.mark.parametrize("y", [None, 0.6, 1.5], ids=["free", "0.6", "1.5"])
@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
@pytest.mark.parametrize("complete", [False, True], ids=["tri1", "binomial"])
def test_mass_curvature_matches_envelope_derivative(complete, pair_name, y, request):
    # W'' read off the optimum, free or at a fixed mass, against a central
    # difference of the envelope W' = dual_derivative, with the claim added;
    # the exponential family's is 1/(gamma y)
    pair = request.getfixturevalue(pair_name)
    if complete:
        tree = treegen.product_market([[1.2, 0.9]] * 2)
        shifted = np.array([1.3, -0.2, 0.1, 0.0])
    else:
        tree = treegen.tri1()
        shifted = leaf_values(tree, E_TRI) + leaf_values(tree, B_TRI)
    if y is None:
        sol = dual.solve_dual(tree, pair, shifted)
        y = sol.mass
    else:
        sol = dual.solve_dual_fixed_mass(tree, pair, shifted, log_mass=math.log(y))
    h = 1e-4
    fd = (dual.dual_derivative(tree, pair, shifted, log_mass=math.log(y * (1 + h)))
          - dual.dual_derivative(tree, pair, shifted, log_mass=math.log(y * (1 - h)))) \
        / (2 * h * y)
    assert sol.mass_curvature == pytest.approx(fd, rel=1e-6)
    if pair.family == "exponential":
        assert sol.mass_curvature == pytest.approx(1.0 / (pair.params["gamma"] * y), rel=1e-15)


def test_exponential_certainty_equivalent_equals_bid_on_tri1_at_volume_100(tri1):
    # translation invariance makes CE and bid coincide for the exponential
    # family; the claim-holding optimum charges leaves a and c with ~e^-33
    pair = exponential_utility(1.0, 2.0)
    e = RandomVariable(E_TRI)
    b = RandomVariable({"a": 100.0, "b": 0.0, "c": 0.0})
    bid = indifference_price(tri1, pair, e, b)
    ce = certainty_equivalent(tri1, pair, e, b)
    assert ce == pytest.approx(bid, abs=1e-10)


def test_exponential_family_needs_no_dense_core_and_no_root_finder(
        tri1, exp_pair, no_dense_core, monkeypatch):
    # every exponential solve and price comes from log-space passes
    def refuse(*args, **kwargs):
        raise AssertionError("a bracketed root search ran")

    for mod in (pricing, dual):
        monkeypatch.setattr(mod, "_bracketed_newton", refuse)
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    with no_dense_core():
        sol = solve_dual(tri1, exp_pair, e)
        pinned = solve_dual_fixed_mass(tri1, exp_pair, e, log_mass=sol._log_mass + math.log(2.0))
        rep = price_report(tri1, exp_pair, e, b)
        curve = average_price_curve(tri1, exp_pair, e, b, [1e-2, 1.0, 1e2])
        sens = endowment_sensitivity(tri1, exp_pair, [e, e + 0.5],
                                     sequence=[e + 0.1, e + 0.01], claim=b)
        fair = optimal_measure_price_process(sol, b)
        mubpp = check_mubpp(tri1, exp_pair, e, fair)
        ce = certainty_equivalent(tri1, exp_pair, e, b)
        pen = price_via_penalty(tri1, exp_pair, e, b)
    assert pinned.value > sol.value
    assert rep.certainty_equivalent == rep.bid == ce
    assert rep.method_agreement_residual <= 1e-12
    assert abs(pen - rep.bid) <= 1e-12
    assert curve.monotone and sens.strict_ok and mubpp.is_mubpp and mubpp.agree


def _two_asset_tree_27(seed=3):
    """Three planar moves, then nine: 27 leaves, two assets, incomplete in
    the second period."""
    rng = np.random.default_rng(seed)
    first = [tuple(m) for m in treegen._straddling_moves_2d(rng)]
    second = [tuple(m) for _ in range(3) for m in treegen._straddling_moves_2d(rng)]
    tree = treegen.product_market([first, second], s0=(1.0, 1.0))
    endow = rng.uniform(-1.0, 1.0, tree.n_leaves)
    s0 = tree.layout.prices[-tree.n_leaves:, 0]  # the leaves come last
    return tree, endow, np.maximum(s0 - 1.0, 0.0)


def test_exponential_price_report_at_volume_1e3():
    tree, endow, call = _two_asset_tree_27()
    assert tree.n_leaves == 27
    pair = exponential_utility(1.5, 1.0 + 1.0 / 1.5)
    rep = price_report(tree, pair, endow, call * 1e3)
    lo, hi = rep.lp_bounds
    assert lo < rep.bid < rep.offer < hi
    assert rep.certainty_equivalent == rep.bid
    assert rep.method_agreement_residual <= 1e-10
    # at this volume both prices have left the marginal price for the bounds
    assert rep.bid < rep.davis < rep.offer
    assert rep.bid - lo < rep.davis - rep.bid


def test_average_price_reaches_the_lower_bound_at_large_volume(tri1, exp_pair):
    betas = np.logspace(-4, 6, 11)
    rep = average_price_curve(tri1, exp_pair, E_TRI, B_TRI, betas)
    assert rep.monotone
    assert rep.large_volume_gap <= 1e-6
    assert rep.small_volume_gap <= 1e-4
    # past volume 1e2 the claim-holding optimum avoids leaf a to within
    # e^-100, so the total bid beta * price no longer moves
    totals = [b * p for b, p in zip(rep.betas, rep.prices) if b >= 1e2]
    assert max(totals) - min(totals) <= 1e-12 * abs(totals[0])


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_volume_curve_over_the_cli_default_grid(tri1, pair_name, request):
    pair = request.getfixturevalue(pair_name)
    betas = np.logspace(-4, 4, 9)
    rep = average_price_curve(tri1, pair, E_TRI, B_TRI, betas)
    assert rep.monotone
    assert len(rep.prices) == 9
    assert rep.small_volume_gap <= 1e-4
    assert rep.prices[-1] <= rep.prices[0]
    assert rep.dual_solves >= 10


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_volume_curve_reads_its_gaps_at_the_ends_they_belong_to(tri1, pair_name, request):
    # the small gap read the first price, here the beta = -1e4 price (0.144
    # under the exponential pair, 0.123 under the two-power one), and the
    # large gap the last price only
    pair = request.getfixturevalue(pair_name)
    lo, hi = price_bounds(tri1, B_TRI)
    rep = average_price_curve(tri1, pair, E_TRI, B_TRI, [-1e4, 1e-4, 1e4])
    assert rep.small_volume_gap == abs(rep.prices[1] - rep.davis) <= 1.4e-6
    assert rep.large_volume_gap == max(abs(rep.prices[0] - hi), abs(rep.prices[-1] - lo))
    short = average_price_curve(tri1, pair, E_TRI, B_TRI, [-1e4, -1e-4])
    assert short.small_volume_gap == abs(short.prices[1] - short.davis) <= 1.4e-6
    assert short.large_volume_gap == abs(short.prices[0] - hi)
    # an all-positive grid, as the CLI passes, reads the first and last prices
    long = average_price_curve(tri1, pair, E_TRI, B_TRI, [1e4, 1e-4])
    assert long.small_volume_gap == abs(long.prices[0] - long.davis)
    assert long.large_volume_gap == abs(long.prices[-1] - lo)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_volume_curve_refuses_empty_zero_and_non_finite_volumes(tri1, pair_name, request):
    # these gave a ZeroDivisionError, a ValueError from max(), a NaN price
    # marked monotone or a NonconvergedError
    pair = request.getfixturevalue(pair_name)
    for betas in ([], [0.0, 1.0], [math.nan], [math.inf], [1.0, -math.inf]):
        with pytest.raises(DomainError, match="volumes must be finite and nonzero"):
            average_price_curve(tri1, pair, E_TRI, B_TRI, betas)
    # a negative volume prices the opposite position, as documented: per
    # unit, volume -1 gives the offer
    offer = -indifference_price(tri1, pair, E_TRI, -leaf_values(tri1, B_TRI))
    rep = average_price_curve(tri1, pair, E_TRI, B_TRI, [-1.0, 1.0])
    assert rep.prices[0] == pytest.approx(offer, rel=1e-12) and rep.monotone


def test_davis_price_between_bounds(tri1, exp_pair):
    d = davis_price(tri1, exp_pair, E_TRI, B_TRI)
    lo, hi = price_bounds(tri1, B_TRI)
    assert lo - 1e-12 <= d <= hi + 1e-12


def test_davis_price_refuses_the_solution_of_another_endowment(tri1, tp_pair):
    e, b = leaf_values(tri1, E_TRI), leaf_values(tri1, B_TRI)
    own = davis_price(tri1, tp_pair, e, b)
    assert davis_price(tri1, tp_pair, E_TRI, b, sol=solve_dual(tri1, tp_pair, e)) == own
    with pytest.raises(DomainError, match="davis_price needs the tree, utility and endowment"):
        davis_price(tri1, tp_pair, e, b, sol=solve_dual(tri1, tp_pair, 5.0 * e))


def _found_a():
    # a 9-leaf trinomial whose bid search at volume 1e4 took Newton steps
    # that alternated across the root inside their bracket
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    rng = np.random.default_rng(3)
    e = rng.uniform(-1.0, 1.0, tree.n_leaves)
    return tree, two_power_utility(0.5, 3.0, 1.0), e, rng.uniform(0.0, 1.0, tree.n_leaves)


def test_two_power_price_report_at_volumes_1e4_and_1e5():
    # these raised BracketFailError (no root after 100 probes) and
    # NonconvergedError (Newton cap at scaled gradient 1.96e-12)
    tree, pair, e, b = _found_a()
    rep = price_report(tree, pair, e, 1e4 * b)
    assert rep.bid == pytest.approx(3102.5269306959367, rel=1e-12)
    assert rep.offer == pytest.approx(6132.891567354947, rel=1e-12)
    base = solve_dual(tree, pair, e).value
    assert abs(solve_dual(tree, pair, e + 1e4 * b - rep.bid).value - base) <= (
        pricing.PRICE_TOL * (1.0 + abs(base)))
    assert price_report(tree, pair, e, 1e5 * b).bid == pytest.approx(30988.926104463706,
                                                                      rel=1e-12)


# -- bracketed Newton ----------------------------------------------------------


def _root_search(g, x, lo, hi):
    """Run :func:`dual._bracketed_newton` on probes of ``g`` that ask for
    no solve, give no slope and accept an exact zero; returns (result,
    probed points)."""
    probed = []

    def probe(x):
        yield from ()
        probed.append(x)
        return g(x), None, g(x) == 0.0

    search = dual._bracketed_newton(probe, x, lo, hi)
    with pytest.raises(StopIteration) as stop:
        next(search)
    return stop.value.value, probed


def test_bracketed_newton_ends_a_two_cycle_inside_its_bracket():
    # the slope 0.5005 of g(x) = x maps each Newton step to about -0.998 x,
    # just inside [-4, 4] on the other side of the root: taking every such
    # step ran out of 100 probes
    probed = []

    def probe(x):
        yield from ()
        probed.append(x)
        return x, 0.5005, abs(x) <= 1e-12

    with pytest.raises(StopIteration) as stop:
        next(dual._bracketed_newton(probe, 1.0, -4.0, 4.0))
    assert abs(stop.value.value) <= 1e-12 and len(probed) == 13


def test_bracketed_newton_doubles_its_stride_while_a_side_is_open():
    # no slope, so no Newton step: strides 1, 2, 4, 8 until the root at 10
    # is bracketed by [7, 15], then bisection
    root, probed = _root_search(lambda x: x - 10.0, 0.0, -math.inf, math.inf)
    assert root == 10.0 and probed == [0.0, 1.0, 3.0, 7.0, 15.0, 11.0, 9.0, 10.0]
    root, probed = _root_search(lambda x: x + 10.0, 0.0, -math.inf, math.inf)
    assert root == -10.0 and probed == [0.0, -1.0, -3.0, -7.0, -15.0, -11.0, -9.0, -10.0]


def test_bracketed_newton_raises_when_the_bracket_collapses():
    # the sign changes between two adjacent floats, so no midpoint lies inside
    step = lambda x: -1.0 if x <= 1.0 else 1.0
    with pytest.raises(BracketFailError, match="collapsed at residual"):
        _root_search(step, 1.0, 1.0, math.nextafter(1.0, 2.0))


def test_bracketed_newton_raises_after_its_probe_budget():
    # a residual that never changes sign leaves the upper side open
    with pytest.raises(BracketFailError, match="no root after 100 probes"):
        _root_search(lambda x: -1.0, 0.0, -math.inf, math.inf)


# -- marginal utility-based price processes -----------------------------------


def test_mubpp_optimal_measure_expectations(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, E_TRI)
    sprime = optimal_measure_price_process(sol, B_TRI)
    rep = check_mubpp(tri1, exp_pair, E_TRI, sprime)
    assert rep.is_mubpp and rep.drift_verdict and rep.agree


def test_mubpp_constant_process(tri1, exp_pair):
    sprime = np.full(len(tri1.layout.ids), 0.7)
    rep = check_mubpp(tri1, exp_pair, E_TRI, sprime)
    assert rep.is_mubpp and rep.agree


def test_mubpp_drifted_process_rejected(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, E_TRI)
    vals = optimal_measure_price_process(sol, B_TRI)
    # stay inside the no-arbitrage band so only the drift is at issue
    vals[0] = vals[0] + 0.1   # the root
    rep = check_mubpp(tri1, exp_pair, E_TRI, vals)
    assert not rep.is_mubpp and not rep.drift_verdict and rep.agree
    assert rep.augmented_value > rep.base_value + 1e-7


def test_mubpp_vertex_expectations_rejected(tri1, exp_pair):
    # conditional expectations under a non-optimal vertex drift under the
    # optimal measure, so the process is not a fair price process
    verts = np.exp(vertex_enumerate(tri1))
    q = verts[1]  # (1/3, 0, 2/3)
    b = np.array([1.0, 0.0, 0.0])
    root_val = float(q @ b)
    vals = np.array([root_val, 1.0, 0.0, 0.0])   # layout order: root, a, b, c
    rep = check_mubpp(tri1, exp_pair, E_TRI, vals)
    assert not rep.is_mubpp and rep.agree
    assert rep.augmented_value > rep.base_value


def test_mubpp_of_a_degenerate_augmented_market_has_no_value(tri1, tp_pair):
    # a new asset worth 1 at leaf b and 0 elsewhere, 0 at the root: every
    # martingale measure of the augmented market misses b, and V(0) = +inf
    vals = np.array([0.0, 0.0, 1.0, 0.0])   # layout order: root, a, b, c
    rep = check_mubpp(tri1, tp_pair, E_TRI, vals)
    assert rep.augmented_value is None
    assert not rep.drift_verdict and not rep.utility_verdict and not rep.is_mubpp
    assert rep.agree


def test_mubpp_detects_augmented_arbitrage(tri1, exp_pair):
    # a deterministic step with drift is an outright arbitrage when traded
    vals = np.array([1.0, 1.2, 1.2, 1.2])   # layout order: root, a, b, c
    with pytest.raises(AugmentInfeasibleError):
        check_mubpp(tri1, exp_pair, E_TRI, vals)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mubpp_non_finite_candidate_is_augment_infeasible(tri1, exp_pair, bad):
    vals = np.array([0.5, 1.0, bad, 0.0])   # layout order: root, a, b, c
    with pytest.raises(AugmentInfeasibleError):
        check_mubpp(tri1, exp_pair, E_TRI, vals)


def test_mubpp_takes_a_column_or_a_stack_in_layout_order(tri1, exp_pair):
    sol = solve_dual(tri1, exp_pair, E_TRI)
    fair = optimal_measure_price_process(sol, B_TRI)
    bent = fair.copy()
    bent[1] += 0.05
    for s in (fair, bent):
        assert check_mubpp(tri1, exp_pair, E_TRI, s) == \
            check_mubpp(tri1, exp_pair, E_TRI, s[:, None])
    for bad in (fair[:-1], np.append(fair, 0.0), fair[:, None, None], fair[None, :]):
        with pytest.raises(ValueError, match=r"shape \(4,\) or \(4, k\)"):
            check_mubpp(tri1, exp_pair, E_TRI, bad)


def test_mubpp_fair_candidate_on_a_binomial_node_two_power(bin1, tp_pair):
    # the candidate's increments are the asset's up to rounding, so the
    # augmented market's strategy columns are dependent: the Newton step
    # must drop the rounding-level singular value, not step along it
    rng = np.random.default_rng(0)
    for _ in range(20):
        e, b = rng.uniform(-3.0, 3.0, 2), rng.uniform(0.0, 1.0, 2)
        sol = solve_dual(bin1, tp_pair, e)
        rep = check_mubpp(bin1, tp_pair, e, optimal_measure_price_process(sol, b))
        assert rep.is_mubpp and rep.agree


@pytest.mark.parametrize("seed,draw", [
    (5, 7), (6, 23),
    # q_hat drifted by 3.8e-13 (scaled) at the augmented node while the
    # core's gradient read each column against 1 + max|B_j|
    (47, 29)])
def test_mubpp_fair_two_power_candidate_on_a_two_asset_tree(tp_pair, seed, draw):
    # the 27-leaf two-asset tree of the draw-th random market; the fair
    # candidate's scaled drift under q_hat is ~1e-16, yet the augmented
    # market is called arbitrage
    rng = np.random.default_rng(seed)
    for i in range(draw + 1):
        tree = treegen.random_market(rng, n_assets=1 + i % 2)
        e, b = rng.uniform(-3.0, 3.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    sol = solve_dual(tree, tp_pair, e)
    rep = check_mubpp(tree, tp_pair, e, optimal_measure_price_process(sol, b))
    assert rep.is_mubpp and rep.agree


@pytest.mark.parametrize("unit", [1.0, 1e-9, 1e-12])
def test_mubpp_verdicts_agree_in_any_units_of_the_candidate(exp_pair, unit):
    # each candidate asset's drift is read against its own unit, so a bent
    # candidate fails the drift test as it fails the utility test, however
    # it is quoted
    tree = treegen.product_market([[1.2, 1.0, 0.85]] * 2)
    rng = np.random.default_rng(0)
    e, b = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    fair = optimal_measure_price_process(solve_dual(tree, exp_pair, e), b)
    bent = fair.copy()
    bent[0] += 0.05
    for cand, verdict in ((fair, True), (bent, False)):
        rep = check_mubpp(tree, exp_pair, e, cand * unit)
        assert (rep.drift_verdict, rep.utility_verdict, rep.agree) == (verdict, verdict, True)


def test_a_singular_newton_system_is_a_typed_failure(tp_pair):
    # two copies of a strategy row that moves one leaf of three: their
    # Jacobi-scaled columns are equal and the QR leaves an exact zero
    # pivot, so the start fit (a warm row) and the first step (a cold one)
    # fail with a NonconvergedError naming the singular system, not a bare
    # LinAlgError.  check_mubpp's augmented markets met it on seed 19, draw
    # 24 of random_market while the gradient read each column against
    # 1 + max|B_j|
    A, p = np.array([[1.0, 0.0, 0.0]] * 2), np.full(3, 1.0 / 3.0)
    warm, cold = (dual._newton_core(A, p, np.zeros((1, 3)), tp_pair, np.ones(3, dtype=bool),
                                    start=start)[-1][0] for start in (np.full((1, 3), 1 / 3), None))
    assert isinstance(warm, NonconvergedError) and isinstance(cold, NonconvergedError)
    assert str(warm) == "singular Newton system at the start fit"
    assert str(cold).startswith("singular Newton system at scaled gradient")


def test_mubpp_builds_the_augmented_market_without_parsing(tri1, exp_pair, monkeypatch):
    from treedual import market

    def refuse(*args):
        raise AssertionError("a decimal string was parsed")

    sol = solve_dual(tri1, exp_pair, E_TRI)
    sprime = optimal_measure_price_process(sol, B_TRI)
    monkeypatch.setattr(market, "_decimal", refuse)
    monkeypatch.setattr(market, "_finite_floats", refuse)  # the bulk parse
    rep = check_mubpp(tri1, exp_pair, E_TRI, sprime)
    assert rep.is_mubpp and rep.drift_verdict and rep.agree


@pytest.mark.parametrize("seed", range(6))
def test_augmented_market_matches_its_scenario_document(seed):
    # the document the augmented tree writes is the one a scenario file
    # with the candidate columns would hold, and parsing it gives the same tree
    from treedual.market import _with_assets

    rng = np.random.default_rng(seed)
    base = treegen.random_market(rng, max_periods=3, n_assets=1 + seed % 2)
    doc = market_to_dict(base)
    doc["endowment"] = dict(zip(base.leaf_ids, map(repr, rng.normal(size=base.n_leaves).tolist())))
    rng.shuffle(doc["nodes"])
    tree = market_from_dict(doc)
    cand = rng.normal(size=(len(tree.layout.ids), 2))
    aug = _with_assets(tree, ["candidate0", "candidate1"], cand)
    want = market_to_dict(tree)
    want["assets"] += ["candidate0", "candidate1"]
    for nd in want["nodes"]:
        nd["prices"] += [repr(float(x)) for x in cand[tree.layout.ids.index(nd["id"])]]
    assert market_to_dict(aug) == want
    parsed = market_from_dict(want)
    for name in ("ids", "parent", "level_starts", "first_child", "prices", "prob", "lo", "hi"):
        assert np.array_equal(getattr(aug.layout, name), getattr(parsed.layout, name))
    assert aug.leaf_probability_array.tobytes() == parsed.leaf_probability_array.tobytes()
    assert aug.node_ids == parsed.node_ids


# -- endowment sensitivity ------------------------------------------------------


def test_endowment_sensitivity_certificates(tri1, exp_pair):
    e0 = leaf_values(tri1, {"a": 0.3, "b": -0.2, "c": 0.1})
    e1 = leaf_values(tri1, {"a": 0.9, "b": 0.3, "c": 0.4})
    seq = [e0 + 1.0 / n for n in (1, 2, 4, 8)]
    rep = endowment_sensitivity(tri1, exp_pair, [e0, e1],
                                sequence=seq, claim=B_TRI)
    assert rep.monotone_margins
    for _, _, margin in rep.monotone_margins:
        assert margin >= -1e-9
    assert rep.strict_ok
    for _, margin in rep.concavity_margins:
        assert margin >= -1e-9
    assert rep.mass_radius is not None and rep.mass_radius > 0
    gaps = [c.value_gap for c in rep.continuity]
    assert all(c.dominated for c in rep.continuity)
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    lo_slack, hi_slack = rep.sandwich
    assert lo_slack >= -1e-9 and hi_slack >= -1e-9



@pytest.mark.parametrize("shift", [-20.0, -3.0, 0.0, 4.0, 30.0])
def test_mass_radius_is_the_largest_optimal_mass(tri1, exp_pair, tp_pair, shift):
    # the envelope bound's radius is read off the optima the report solves
    e = np.array([0.3, -0.2, 0.1]) + shift
    for pair in (exp_pair, tp_pair):
        endows, seq = [e, e + 0.5], [e + 0.1, e + 0.01]
        rep = endowment_sensitivity(tri1, pair, endows, sequence=seq)
        assert rep.mass_radius == max(solve_dual(tri1, pair, x).mass for x in endows + seq)
        assert all(c.dominated for c in rep.continuity)


def test_mass_radius_follows_a_large_optimal_mass(tri1, exp_pair):
    # the optimal mass at the base endowment is about 2.57e24
    e = leaf_values(tri1, {"a": -60.0, "b": -50.0, "c": -55.0})
    rep = endowment_sensitivity(tri1, exp_pair, [e], sequence=[e + 1.0])
    assert rep.mass_radius == solve_dual(tri1, exp_pair, e).mass
    assert 1e24 < rep.mass_radius < 1e25
    assert all(c.dominated for c in rep.continuity)


@pytest.mark.parametrize("none", [[], np.empty((0, 3))], ids=["list", "array"])
@pytest.mark.parametrize("extra", [{"sequence": [0.0]}, {"claim": np.ones(3)}],
                         ids=["sequence", "claim"])
def test_sensitivity_around_no_endowment_is_a_domain_error(tri1, exp_pair, extra, none):
    # a sequence converges to endowments[0] and a claim is priced at it
    with pytest.raises(DomainError, match="endowment list is empty"):
        endowment_sensitivity(tri1, exp_pair, none, **extra)


def test_sensitivity_takes_endowment_rows_as_an_array(tri1, exp_pair):
    rows = np.array([[0.3, -0.2, 0.1], [0.9, 0.3, 0.4]])
    want = endowment_sensitivity(tri1, exp_pair, list(rows), sequence=[rows[0] + 0.1],
                                 claim=np.ones(3))
    assert endowment_sensitivity(tri1, exp_pair, rows, sequence=[rows[0] + 0.1],
                                 claim=np.ones(3)) == want


@pytest.mark.parametrize("shifts", [[1.0, 0.5], []], ids=["two rows", "no rows"])
def test_sensitivity_takes_sequence_rows_as_an_array(tri1, exp_pair, shifts):
    # the sequence is tested by its length, as the endowments are
    e0 = np.array([0.3, -0.2, 0.1])
    rows = [e0 + x for x in shifts]
    want = endowment_sensitivity(tri1, exp_pair, [e0], sequence=rows)
    got = endowment_sensitivity(tri1, exp_pair, [e0],
                                sequence=np.array(rows).reshape(len(rows), 3))
    assert got == want and len(got.continuity) == len(rows)
    assert got.mass_radius == (pytest.approx(0.94038, abs=5e-6) if rows else None)


def test_mass_radius_overflow_is_typed(tri1, exp_pair):
    # the base solve itself overflows, before any radius is formed
    with pytest.raises(EvaluationOverflowError, match="dual objective"):
        endowment_sensitivity(tri1, exp_pair, [np.full(3, -1000.0)], sequence=[-999.0])


def _caterpillar_sensitivity(pair):
    return endowment_sensitivity(treegen.caterpillar_market(), pair, [0.0, 1.0],
                                 sequence=[1e-3, 1e-6])


def test_mass_radius_on_the_caterpillar_is_finite(exp_pair):
    # no float measure is read, so no entry that underflows to 0 on a live
    # leaf can make the radius infinite (the exponential optima: the
    # two-power ones are past the float range, below)
    tree = treegen.caterpillar_market()
    rep = _caterpillar_sensitivity(exp_pair)
    masses = [solve_dual(tree, exp_pair, e).mass for e in (0.0, 1.0, 1e-3, 1e-6)]
    assert math.isfinite(rep.mass_radius) and rep.mass_radius == max(masses)
    assert [c.sup_bound for c in rep.continuity] == pytest.approx([1e-3, 1e-6], rel=1e-12)
    assert all(c.dominated for c in rep.continuity)


def test_caterpillar_sensitivity_refuses_an_optimum_past_the_float_range(tp_pair):
    # every node is binomial, so the two-power optimum is in closed form,
    # and its wealth on the deepest leaf is past the float range: a typed
    # error, where the Newton core's optimum was off the martingale cone
    with pytest.raises(EvaluationOverflowError, match="past the floating-point range"):
        _caterpillar_sensitivity(tp_pair)


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_a_value_pushed_past_the_radius_is_not_dominated(tri1, pair_name, request,
                                                         monkeypatch):
    # the certificate is not vacuous: one sequence value moved away from the
    # base by 2 radius sup fails its entry, and only its entry
    pair = request.getfixturevalue(pair_name)
    e0 = leaf_values(tri1, E_TRI)
    seq = [e0 + 1.0 / n for n in (1, 2, 4, 8)]
    rep = endowment_sensitivity(tri1, pair, [e0], sequence=seq)
    assert all(c.dominated for c in rep.continuity)
    push = 2.0 * rep.mass_radius * rep.continuity[1].sup_bound
    solve = pricing.solve_dual

    def pushed(tree, pair, endow=0.0):
        sol = solve(tree, pair, endow)
        if np.array_equal(leaf_values(tree, endow), seq[1]):
            return dataclasses.replace(sol, value=sol.value + push)
        return sol

    monkeypatch.setattr(pricing, "solve_dual", pushed)
    bent = endowment_sensitivity(tri1, pair, [e0], sequence=seq)
    assert bent.mass_radius == rep.mass_radius
    assert [c.dominated for c in bent.continuity] == [True, False, True, True]


def test_strict_monotonicity_needs_equivalent_measure(exp_pair):
    # on the dead-leaf market a bump on the dead leaf leaves the value flat
    tree = treegen.dead_leaf_market()
    e0 = RandomVariable({"up": 0.0, "flat": 0.0})
    e1 = RandomVariable({"up": 1.0, "flat": 0.0})
    rep = endowment_sensitivity(tree, exp_pair, [e0, e1])
    (i, j, margin), = [m for m in rep.monotone_margins if m[:2] == (0, 1)]
    assert margin == pytest.approx(0.0, abs=1e-10)
    assert rep.strict_ok  # not strict, but no equivalent measure exists either


# -- Henderson's continuous-time bid --------------------------------------------

# Boyle-Evnine-Gibbs trees on [0, 1] for a traded S and a non-traded Y: per
# period of length dt, (S, Y) moves by (exp(i sigma sqrt(dt)), exp(j eta sqrt(dt)))
# for i, j = +-1 with probability (1 + rho i j + sqrt(dt) (i a + j b)) / 4,
# a = (mu - sigma^2 / 2) / sigma, b = (nu - eta^2 / 2) / eta
MU, SIGMA, NU, ETA, RHO = 0.08, 0.2, 0.05, 0.25, 0.6
_BRANCHES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


@functools.lru_cache(maxsize=None)
def _beg_market(n):
    """The n-period tree (4^n leaves) and the at-the-money call (Y_T - 1)^+."""
    r = math.sqrt(1.0 / n)
    a, b = (MU - SIGMA ** 2 / 2) / SIGMA, (NU - ETA ** 2 / 2) / ETA
    probs = [0.25 * (1 + RHO * i * j + r * (i * a + j * b)) for i, j in _BRANCHES]
    moves = [math.exp(i * SIGMA * r) for i, _ in _BRANCHES]
    tree = treegen.product_market([moves] * n, [probs] * n)
    # a leaf id lists the branches from the root: r.k1.k2...
    ups = [sum(_BRANCHES[int(k)][1] for k in leaf.split(".")[1:]) for leaf in tree.leaf_ids]
    return tree, np.maximum(np.exp(ETA * r * np.array(ups)) - 1.0, 0.0)


def _henderson_bid(beta, gamma=2.0):
    """Average bid of beta calls, -ln E^Q[exp(-k B)] / k with
    k = gamma (1 - rho^2) beta, where ln Y_1 ~ N(nu - rho eta mu / sigma -
    eta^2 / 2, eta^2) under Q (Henderson, Math. Finance 12, 2002); the
    expectation by 200-point Gauss-Hermite."""
    x, w = np.polynomial.hermite.hermgauss(200)
    drift = NU - RHO * ETA * MU / SIGMA - ETA ** 2 / 2
    claim = np.maximum(np.exp(drift + ETA * math.sqrt(2.0) * x) - 1.0, 0.0)
    k = gamma * (1 - RHO ** 2) * beta
    return -math.log(float(w @ np.exp(-k * claim)) / math.sqrt(math.pi)) / k


@pytest.mark.parametrize("n", range(1, 8))
def test_bid_converges_to_hendersons_formula(n):
    # the error alternates in sign and shrinks like 0.026..0.028 / n
    tree, call = _beg_market(n)
    bid = price_report(tree, exponential_utility(2.0, 2.0), 0.0, call).bid
    err = bid - _henderson_bid(1.0)
    assert abs(err) <= 0.04 / n
    assert math.copysign(1.0, err) == (-1.0) ** (n + 1)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_volume_curve_follows_hendersons_formula(n):
    # the average price at every volume, not only its two limits
    tree, call = _beg_market(n)
    betas = [1e-3, 0.1, 1.0, 10.0, 100.0]
    curve = average_price_curve(tree, exponential_utility(2.0, 2.0), 0.0, call, betas)
    for beta, price in zip(betas, curve.prices):
        assert abs(price - _henderson_bid(beta)) <= 0.06 / n


# -- attainable claims: the replication price ----------------------------------


@pytest.fixture
def counted_solutions(monkeypatch):
    """The calls of ``_solutions`` from pricing and from the dual module,
    each call's number of rows, recorded in a list."""
    calls = []

    def counted(tree, pair, endows, *args, _fn=dual._solutions):
        calls.append(len(endows))
        return _fn(tree, pair, endows, *args)

    monkeypatch.setattr(dual, "_solutions", counted)
    monkeypatch.setattr(pricing, "_solutions", counted)
    return calls


def _every_price(tree, pair, e, b, betas):
    """Each price of ``b`` from every pricing call: the report's four, every
    volume of the curve and the three solo prices, and the reports' solves
    and rounds."""
    rep = price_report(tree, pair, e, b)
    curve = average_price_curve(tree, pair, e, b, betas)
    prices = [rep.bid, rep.offer, rep.certainty_equivalent, rep.davis, curve.davis,
              *curve.prices, indifference_price(tree, pair, e, b),
              certainty_equivalent(tree, pair, e, b), price_via_penalty(tree, pair, e, b)]
    return prices, (rep.dual_solves, rep.dual_rounds, curve.dual_solves, curve.dual_rounds)


@pytest.mark.parametrize("tree", [treegen.product_market([[1e5, 0.99999]] * 2),
                                  treegen.caterpillar_market()],
                         ids=["product", "caterpillar"])
def test_bid_is_the_offer_for_an_attainable_claim(tree, tp_pair, counted_solutions):
    # the two-power optimum there is far from the cone, and the lockstep
    # searches returned bid > offer by 5e-9 to 3e-8; every price is the bounds'
    b = np.random.default_rng(0).uniform(0.0, 1.0, tree.n_leaves)
    lo, hi = price_bounds(tree, b)
    assert lo == hi
    rep = price_report(tree, tp_pair, 0.0, b)
    assert rep.bid == rep.offer == rep.certainty_equivalent == rep.davis == lo
    assert rep.method_agreement_residual == 0.0
    assert (rep.dual_solves, rep.dual_rounds) == (0, 0) and counted_solutions == []


def test_attainable_small_volume_prices_are_exact(counted_solutions):
    # (L(e) - L(e + beta B))/(gamma beta) loses ~1e-10 relative at 1e-8
    tree = treegen.product_market([[1.1, 0.9]] * 6)
    rng = np.random.default_rng(0)
    e, b = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    lo, hi = price_bounds(tree, b)
    betas = [1e-8, 1e-4, 1.0, 1e2, 1e4]
    curve = average_price_curve(tree, exponential_utility(2.0, 1.5), e, b, betas)
    assert lo == hi and curve.prices == (lo,) * len(betas) and curve.davis == lo
    assert curve.monotone and curve.large_volume_gap == curve.small_volume_gap == 0.0
    assert (curve.dual_solves, curve.dual_rounds) == (0, 0) and counted_solutions == []


@pytest.mark.parametrize("moves", [[[1.1, 0.9]] * 11,
                                   [[(1.2, 1.1), (0.9, 1.15), (1.0, 0.8)]] * 2],
                         ids=["binomial-2048", "trinomial-2a"])
@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_complete_market_prices_solve_no_dual_problem(moves, pair_name, request,
                                                      counted_solutions):
    pair = request.getfixturevalue(pair_name)
    tree = treegen.product_market(moves)
    rng = np.random.default_rng(1)
    e, b = rng.uniform(-1.0, 1.0, tree.n_leaves), rng.uniform(0.0, 1.0, tree.n_leaves)
    betas = np.logspace(-4, 4, 9)
    for beta in betas:
        lo, hi = price_bounds(tree, beta * b)
        prices, counts = _every_price(tree, pair, e, beta * b, betas)
        assert lo == hi and prices == [lo] * len(prices) and counts == (0, 0, 0, 0)
    assert counted_solutions == []


@pytest.mark.parametrize("pair_name", ["exp_pair", "tp_pair"])
def test_a_claim_between_distinct_bounds_makes_its_usual_solves(tri1, pair_name, request,
                                                                 counted_solutions):
    pair = request.getfixturevalue(pair_name)
    lo, hi = price_bounds(tri1, B_TRI)
    assert lo < hi
    rep = price_report(tri1, pair, E_TRI, B_TRI)
    assert rep.dual_rounds == len(counted_solutions) >= 1
    assert rep.dual_solves == sum(counted_solutions) >= 3
    assert lo < rep.bid <= rep.offer < hi


def test_a_two_power_pair_refuses_a_constant_claim_without_equivalent_measure(tp_pair):
    # the bounds coincide, but every martingale measure has infinite entropy
    tree = treegen.dead_leaf_market()
    assert price_bounds(tree, 0.7) == (0.7, 0.7)
    for price in (lambda: price_report(tree, tp_pair, 0.0, 0.7),
                  lambda: average_price_curve(tree, tp_pair, 0.0, 0.7, [1.0]),
                  lambda: indifference_price(tree, tp_pair, 0.0, 0.7),
                  lambda: certainty_equivalent(tree, tp_pair, 0.0, 0.7),
                  lambda: price_via_penalty(tree, tp_pair, 0.0, 0.7)):
        with pytest.raises(InfeasibleEntropyError):
            price()


def test_an_exponential_pair_prices_a_constant_claim_at_the_constant(exp_pair,
                                                                     counted_solutions):
    prices, counts = _every_price(treegen.dead_leaf_market(), exp_pair, 0.0, 0.7,
                                  [1e-4, 1.0, 1e4])
    assert prices == [0.7] * len(prices) and counts == (0, 0, 0, 0)
    assert counted_solutions == []
