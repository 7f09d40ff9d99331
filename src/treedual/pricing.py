"""Utility-based prices: indifference, entropic-penalty, marginal, bounds.

The bid price of a claim B makes the agent indifferent between holding
B minus cash and holding nothing; the certainty equivalent is the cash
worth as much as B, and the offer is minus the bid of -B.  Each is one
search, and the bid is recomputed independently as a penalized
worst-case expectation by a third; the cross-method residual is reported
along with the number of dual solves and of rounds.  A search picks its
method by the utility's family and asks for the optima it needs.  For the
exponential family, whose log-partition L shifts by -gamma per unit of
cash, these are the optima at e and e + B, and the bid and certainty
equivalent are both ``(L(e) - L(e + B))/gamma`` at any volume.  For the
two-power family the value increases in cash with the dual mass as
derivative, and after the optimum it starts from, a search takes
bracketed Newton steps in certainty-equivalent units, each dual solve
warm-started from the last.  :class:`SolveCounter` runs the searches of
one pricing call in lockstep and answers each round by one stacked solve,
each distinct request once: one log-space pass gives every exponential
price, and one Newton-core call per round serves the two-power bid,
offer, certainty-equivalent and penalty probes, or every volume of a
curve.  Marginal (zero-volume) prices are expectations under the
normalized optimal dual measure; no-arbitrage bounds are the extremal
claim expectations over the martingale polytope, found by one backward
sweep over each node's one-step vertices; price processes for new assets
are accepted exactly when they are martingales under that measure,
verified both by drift and by re-solving the augmented market.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dual import DualSolution, _solutions, solve_dual
from .errors import (AugmentInfeasibleError, BracketFailError, DomainError,
                     InfeasibleEntropyError, InfiniteEntropyError,
                     NoMartingaleMeasureError, NonconvergedError, ValueAtSupremumError)
from .geometry import find_equivalent_mm, relative_entropy, _support_structure
from .market import MarketTree, _with_assets, leaf_values
from .utility import UtilityPair

PRICE_TOL = 1e-9       # |u(endow + claim - p) - u(endow)| <= tol * (1 + |u|)
_MAX_PROBES = 100      # probes of one bracketed Newton search


def price_bounds(tree: MarketTree, claim) -> tuple[float, float]:
    """No-arbitrage interval: extremal claim expectations over the polytope.

    One extremal sweep (backward induction over the cached one-step
    vertices of :func:`~treedual.geometry._support_structure`).
    """
    return _support_structure(tree).extremes(leaf_values(tree, claim))


class SolveCounter:
    """Counts the dual optima computed on behalf of one or more pricing
    calls (``n``) and the rounds that computed them (``rounds``).

    :meth:`run` drives searches in lockstep.  A search is a generator that
    yields a list of solve requests ``(endowment, log mass or None, start
    or None)`` and is sent the list of their optima.  A round collects the
    requests of every pending search, free and fixed mass, and solves each
    distinct request once, so searches that ask for the same optimum share
    its row, by one stacked dual solve (a log-space pass, free of overflow
    and supremum errors, or a Newton-core call); the first
    :class:`NonconvergedError` among a search's rows is thrown into it.
    """

    def __init__(self):
        self.n = 0
        self.rounds = 0

    def run(self, tree, pair, *searches):
        """The searches' results, in order."""
        results, pending = [None] * len(searches), {}

        def advance(i, answer):
            search = searches[i]
            error = next((a for a in answer or () if isinstance(a, Exception)), None)
            try:
                pending[i] = search.send(answer) if error is None else search.throw(error)
            except StopIteration as stop:
                results[i] = stop.value

        for i in range(len(searches)):
            advance(i, None)
        while pending:
            asked, pending = pending, {}
            keys = {i: [(e.tobytes(), s, None if x is None else x.tobytes())
                        for e, s, x in requests] for i, requests in asked.items()}
            # each distinct request once, in the order first asked
            distinct = dict(zip(itertools.chain(*keys.values()),
                                itertools.chain(*asked.values())))
            row = dict(zip(distinct, itertools.count()))
            self.rounds += 1
            self.n += len(distinct)
            endows, log_masses, starts = zip(*distinct.values())
            # a zero start is not positive on the support: the row starts cold
            sols = _solutions(
                tree, pair, np.array(endows),
                np.array([math.nan if s is None else s for s in log_masses]),
                np.array([np.zeros(tree.n_leaves) if x is None else x for x in starts]))
            for i, ks in keys.items():
                advance(i, [sols[row[k]] for k in ks])
        return results


def _solve(endow):
    """The search of one free solve, started cold: its optimum."""
    sol, = yield [(endow, None, None)]
    return sol


def _alone(tree, pair, search, endow, claim):
    """The result of one search of ``endow`` and ``claim``, run by itself."""
    return SolveCounter().run(tree, pair, search(tree, pair, leaf_values(tree, endow),
                                                 leaf_values(tree, claim)))[0]


def _bracketed_newton(probe, x, lo, hi, *, x_tol=0.0):
    """Root of an increasing function by Newton steps kept inside a bracket.

    ``probe(x)`` is a search (it yields solve requests) that returns
    ``(g, slope, done)``; ``done`` accepts x as the root.  A step that is
    unavailable or leaves the bracket is replaced by bisection, or by a
    doubling stride while a side is still open.  Returns the accepted probe
    point, or the last one once the Newton step or the bracket is within
    ``x_tol``; raises :class:`BracketFailError` after 100 probes.
    """
    stride = 1.0
    for _ in range(_MAX_PROBES):
        g, slope, done = yield from probe(x)
        if done:
            return x
        if g < 0:
            lo = x
        else:
            hi = x
        newton = x - g / slope if slope and slope > 0 else math.nan
        if x_tol and (abs(newton - x) <= x_tol or hi - lo <= x_tol):
            return x
        if lo < newton < hi:
            x = newton
        elif math.isinf(lo) or math.isinf(hi):
            x = x + stride if g < 0 else x - stride
            stride *= 2.0
        else:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise BracketFailError(
                    f"root bracket [{lo!r}, {hi!r}] collapsed at residual {g:.3e}")
    raise BracketFailError(f"no root after {_MAX_PROBES} probes in [{lo}, {hi}]")


def _cash_root(pair, x, target, c0, hi, start):
    """Search for the cash ``c`` in ``[c0, hi]`` at which the optimal value of
    x + c is ``target``.

    The value is increasing in c with the optimal dual mass as derivative
    (envelope), and the caller guarantees value <= target at c0 and >= at hi,
    so neither end is probed unless Newton lands there.  Steps are taken in
    certainty-equivalent units z = U^-1(value), where dz/dc = mass / U'(z).
    The probe that meets the tolerance gets one more step, which costs no
    solve.  Every probe is warm-started from the previous optimizer, the
    first from ``start``.
    """
    if pair.u_inverse is None:
        raise DomainError("cash pricing needs the inverse utility of the pair")
    z_target = pair.u_inverse(target)
    f_tol = PRICE_TOL * (1.0 + abs(target))
    warm = start
    root = None

    def probe(c):
        nonlocal warm, root
        sol, = yield [(x + c, None, warm)]
        warm = sol.mu
        z = pair.u_inverse(sol.value)
        slope = sol.mass / pair.u_prime(z)
        if abs(sol.value - target) <= f_tol:
            root = c - (z - z_target) / slope if 0 < slope < math.inf else c
            return 0.0, None, True
        return z - z_target, slope, False

    # rounding can put the marginal price a hair outside the bounds
    yield from _bracketed_newton(probe, c0, c0, max(hi, c0))
    return root


def _bid(tree, pair, endow, claim, bound=None):
    """Search for the bid of ``claim``: (L(e) - L(e + B))/gamma from the
    exponential optima at e and e + B; otherwise :func:`_cash_root` on
    c = -p after the optimum at e, from minus the marginal price there (the
    dual bound puts the value there at or below the target) to minus the
    lower no-arbitrage bound ``bound`` (sub-replication puts it at or
    above; swept if not given), warm-started from the claim-free measure."""
    if pair.family == "exponential":
        return _log_mass_gap(pair, *(yield [(endow, None, None), (endow + claim, None, None)]))
    base, = yield [(endow, None, None)]
    lo = price_bounds(tree, claim)[0] if bound is None else bound
    c0 = -davis_price(tree, pair, endow, claim, sol=base)
    return -(yield from _cash_root(pair, endow + claim, base.value, c0, -lo, base.mu))


def _certainty_equivalent(tree, pair, endow, claim, bound=None):
    """Search for the certainty equivalent of ``claim``: the bid for the
    exponential family (translation invariance); otherwise
    :func:`_cash_root` on value(e + c) = value(e + B) after the optimum at
    e + B, from the claim's marginal price there to the upper bound
    ``bound`` (super-replication puts the value there at or above; swept if
    not given), warm-started from that optimum's measure."""
    if pair.family == "exponential":
        return (yield from _bid(tree, pair, endow, claim))
    target, = yield [(endow + claim, None, None)]
    hi = price_bounds(tree, claim)[1] if bound is None else bound
    c0 = davis_price(tree, pair, endow + claim, claim, sol=target)
    return (yield from _cash_root(pair, endow, target.value, c0, hi, target.mu))


def _penalty(tree, pair, endow, claim):
    """Search for the bid of :func:`price_via_penalty`: for the exponential
    family the closed form at the claim-holding optimum
    (:func:`_penalized_expectation`).  Otherwise :func:`_least_gap` from the
    optimum at e, to 1e-5 in the log mass (the gap within ~1e-10 of its
    minimum), on fixed-mass solves of e + B, each warm-started from the
    last, that read W' off the envelope formula and W'' off the core."""
    shifted = endow + claim
    if pair.family == "exponential":
        return _penalized_expectation(pair, endow, claim, *(
            yield [(endow, None, None), (shifted, None, None)]))
    base, = yield [(endow, None, None)]
    last = base

    def point(s):
        nonlocal last
        last, = yield [(shifted, s, last.mu * (math.exp(s) / last.mass))]
        return last.value, last.mass_derivative, last.mass_curvature

    return (yield from _least_gap(point, base.value, math.log(base.mass), 1e-5))


def _least_gap(point, base, s, x_tol, h_scale=math.inf):
    """Search for the least gap (W(y) - base)/y over the mass y = e^s from
    the log mass ``s``, ``point(s)`` a search that returns W, W' and W'':
    bracketed Newton, to within ``x_tol``, on h = W' - (W - base)/y, whose
    sign changes once, as y h increases (d(y h)/dy = y W'' >= 0), with
    dh/ds = y W'' - h.  Beyond |h| = ``h_scale`` a step is stretched by
    1 + ln(|h| / h_scale): plain Newton shrinks a residual exponential in s
    only e-fold a step."""
    gaps = {}

    def probe(s):
        y = math.exp(s)
        w, slope, curvature = yield from point(s)
        gaps[s] = (w - base) / y
        h = slope - gaps[s]
        stretch = 1.0 + math.log(abs(h) / h_scale) if abs(h) > h_scale else 1.0
        return h, (y * curvature - h) / stretch, False

    s = yield from _bracketed_newton(probe, s, -math.inf, math.inf, x_tol=x_tol)
    return gaps[s]


def _log_mass_gap(pair, lo, hi):
    """Cash between two exponential-family positions: (L(lo) - L(hi))/gamma."""
    return (lo._log_mass - hi._log_mass) / pair.params["gamma"]


def indifference_price(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Bid price: the cash p with value(endow + claim - p) = value(endow),
    by one :func:`_bid` search."""
    return _alone(tree, pair, _bid, endow, claim)


def entropic_penalty(tree: MarketTree, pair: UtilityPair, endow,
                     q, *, base_value: float | None = None) -> float:
    """Normalized excess entropy of a martingale probability measure.

    For a fixed measure q this is the least gap (W(y) - base)/y over the
    mass, W(y) = E[V(y q/P)] + y E_q[e]: one :func:`_least_gap` search to
    within 1e-8 on the closed forms W' = sum_{q>0} q V'(y q/p) + E_q[e] and
    W'' = sum_{q>0} (q^2/p) V''(y q/p), which asks for no solve.  Zero
    exactly at the normalized dual optimizer; raises
    :class:`InfiniteEntropyError` when the measure has infinite entropy and
    :class:`ValueAtSupremumError` for a base value at sup U.  ``q`` is a
    leaf measure.
    """
    qa = leaf_values(tree, q)
    if not math.isfinite(relative_entropy(tree, pair, qa)):
        raise InfiniteEntropyError("measure has infinite relative entropy")
    if base_value is None:
        base_value = solve_dual(tree, pair, endow).value
    if not base_value < pair.u_inf:   # the gap then falls without bound as y -> 0
        raise ValueAtSupremumError(f"base value {base_value!r} at sup U")
    p = tree.leaf_probability_array
    eq = float(np.dot(qa, leaf_values(tree, endow)))
    q_on, p_on = qa[qa > 0], p[qa > 0]

    def point(s):
        yield from ()   # a search that asks for no solve
        y = math.exp(s)
        dens = y * q_on / p_on
        return (float(pair.v(y * qa / p) @ p) + y * eq,
                float(q_on @ pair.v_prime(dens)) + eq,
                float(q_on * q_on / p_on @ pair.v_second(dens)))

    # the gap is least where E[U(I(y q/P))] = base, so at y = U'(U^-1(base))
    # for every q where U(I(y)) = C - y/gamma is linear (exponential family)
    y0 = float(pair.u_prime(pair.u_inverse(base_value)))
    search = _least_gap(point, base_value, math.log(y0) if 0.0 < y0 < math.inf else 0.0,
                        1e-8, h_scale=1.0 + abs(eq))
    return SolveCounter().run(tree, pair, search)[0]


def _penalized_expectation(pair, endow, claim, base, shifted):
    """Exponential bid E_q[B] + (H(q|P) + gamma E_q[e] + L(e))/gamma at the
    claim-holding optimizer q of ``shifted``, where this penalized
    expectation is least over martingale measures; ``base`` carries L(e).
    Summed leaf by leaf, not read off the log-partition of ``shifted``."""
    gamma = pair.params["gamma"]
    q, p = shifted.q_hat, shifted.tree.leaf_probability_array
    on = q > 0
    entropy = float(q[on] @ np.log(q[on] / p[on]))
    return float(q @ claim) + (entropy + gamma * float(q @ endow) + base._log_mass) / gamma


def price_via_penalty(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Bid price as a penalized worst-case expectation: the least, over
    measures in the cone, of the normalized gap (W(y) - base)/y, where W(y)
    is the fixed-mass dual value with the claim added and base the
    claim-free optimum.  One :func:`_penalty` search; uses no result of the
    cash root-finder."""
    return _alone(tree, pair, _penalty, endow, claim)


def davis_price(tree: MarketTree, pair: UtilityPair, endow, claim, *,
                sol: DualSolution | None = None) -> float:
    """Marginal price: claim expectation under the normalized optimal measure."""
    if sol is None:
        sol = solve_dual(tree, pair, endow)
    return float(np.dot(sol.q_hat, leaf_values(tree, claim)))


def certainty_equivalent(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Cash amount with the same optimal value as holding the claim, by one
    :func:`_certainty_equivalent` search."""
    return _alone(tree, pair, _certainty_equivalent, endow, claim)


@dataclass(frozen=True)
class PriceReport:
    """Bid/offer, certainty equivalent, marginal price and bounds."""

    bid: float
    offer: float
    certainty_equivalent: float
    davis: float
    lp_bounds: tuple[float, float]
    method_agreement_residual: float
    dual_solves: int          # dual optima computed
    dual_rounds: int          # Newton-core calls or log-space passes


def price_report(tree: MarketTree, pair: UtilityPair, endow, claim) -> PriceReport:
    """Every price of one claim, from one lockstep run and one extremal sweep.

    The no-arbitrage bounds (lo, hi) are computed once: they bracket the bid
    and the certainty equivalent, (-hi, -lo) brackets the offer (the bid of
    the negated claim), and they are reported as ``lp_bounds``.  The free
    solve at e (for the marginal price) and the bid, offer,
    certainty-equivalent and penalty searches run together, each as it
    would run alone, so the prices equal those of the solo functions; the
    searches share the optima they all ask for.  For the exponential family
    that is one log-space pass, at e, e + B and e - B.  For the two-power
    family the first round solves e and e + B, both cold, and the report
    takes as many rounds as its longest search.
    """
    endow = leaf_values(tree, endow)
    claim = leaf_values(tree, claim)
    lo, hi = price_bounds(tree, claim)
    solves = SolveCounter()
    sol, bid, minus_offer, ce, pen = solves.run(
        tree, pair, _solve(endow), _bid(tree, pair, endow, claim, lo),
        _bid(tree, pair, endow, -claim, -hi),
        _certainty_equivalent(tree, pair, endow, claim, hi),
        _penalty(tree, pair, endow, claim))
    return PriceReport(
        bid=bid,
        offer=-minus_offer,
        certainty_equivalent=ce,
        davis=davis_price(tree, pair, endow, claim, sol=sol),
        lp_bounds=(lo, hi),
        method_agreement_residual=abs(bid - pen) / (1.0 + abs(bid)),
        dual_solves=solves.n,
        dual_rounds=solves.rounds,
    )


@dataclass(frozen=True)
class VolumeCurveReport:
    betas: tuple[float, ...]
    prices: tuple[float, ...]            # average price per unit at each volume
    lp_lower: float                      # large-volume limit
    davis: float                         # zero-volume limit
    monotone: bool
    large_volume_gap: float
    small_volume_gap: float
    dual_solves: int
    dual_rounds: int


def average_price_curve(tree: MarketTree, pair: UtilityPair, endow, claim,
                        betas) -> VolumeCurveReport:
    """Average per-unit bid price across volumes, with its two limits.

    Non-increasing in volume; converges to the lower no-arbitrage bound as
    the volume grows and to the marginal price as it vanishes.  One
    lockstep run of the free solve at e and one :func:`_bid` search per
    volume, which share that solve, and one extremal sweep serve every
    volume; the bounds of beta * claim are beta times those of the claim,
    swapped when beta < 0.  The exponential family takes every optimum
    from one log-space pass.
    """
    endow = leaf_values(tree, endow)
    claim = leaf_values(tree, claim)
    betas = sorted(float(b) for b in betas)
    if not betas or not all(b != 0.0 and math.isfinite(b) for b in betas):
        raise DomainError("volumes must be finite and nonzero, at least one of them")
    lp_lo, lp_hi = price_bounds(tree, claim)
    solves = SolveCounter()
    sol, *totals = solves.run(tree, pair, _solve(endow), *(
        _bid(tree, pair, endow, claim * beta, min(beta * lp_lo, beta * lp_hi))
        for beta in betas))
    prices = [t / beta for t, beta in zip(totals, betas)]
    dav = davis_price(tree, pair, endow, claim, sol=sol)
    scale = 1.0 + max(abs(p) for p in prices)
    monotone = all(b <= a + 1e-9 * scale for a, b in zip(prices, prices[1:]))
    return VolumeCurveReport(
        betas=tuple(betas),
        prices=tuple(prices),
        lp_lower=lp_lo,
        davis=dav,
        monotone=monotone,
        large_volume_gap=abs(prices[-1] - lp_lo),
        small_volume_gap=abs(prices[0] - dav),
        dual_solves=solves.n,
        dual_rounds=solves.rounds,
    )


def indifference_price_lipschitz_bound(tree: MarketTree, b1, b2) -> float:
    """Upper bound for the price move between two claims.

    The indifference price is 1-Lipschitz in the worst-case expectation
    distance over the martingale polytope; this returns that distance.
    """
    d = leaf_values(tree, b1) - leaf_values(tree, b2)
    lo, hi = price_bounds(tree, d)
    return max(abs(lo), abs(hi))


# -- marginal utility-based price processes -------------------------------------


@dataclass(frozen=True)
class MubppReport:
    is_mubpp: bool
    drift_verdict: bool
    utility_verdict: bool
    max_abs_drift: float
    node_drifts: tuple[tuple[str, float], ...]
    base_value: float
    augmented_value: float | None
    agree: bool


def check_mubpp(tree: MarketTree, pair: UtilityPair, endow, sprime) -> MubppReport:
    """Is the candidate process a fair price process for a new asset?

    ``sprime`` is (N,), or (N, k) for k new assets, in layout order; any
    other shape raises ``ValueError``.  Method A computes per-node drifts
    under the normalized optimal measure at the nodes it charges (fair
    within 1e-8, scaled); method B augments the market with the candidate
    and re-solves (fair within 1e-7, relative).  The two verdicts agree
    (the theorem this verifies); ``is_mubpp`` reports method B's.  Raises
    :class:`AugmentInfeasibleError` for a non-finite candidate price or an
    augmented market with arbitrage (then the candidate is not fair).
    """
    endow = leaf_values(tree, endow)
    n, cand = len(tree.layout.ids), np.asarray(sprime, dtype=float)
    if cand.ndim not in (1, 2) or cand.shape[0] != n:
        raise ValueError(f"candidate process must have shape ({n},) or ({n}, k) "
                         f"in layout order, got {cand.shape}")
    cand = cand.reshape(n, -1)

    sol = solve_dual(tree, pair, endow)
    inner = tree.layout.level_starts[-2]
    x, live = cand[:inner], sol.charged[:inner]
    drift = np.abs(tree.one_step_expectation(cand, sol.node_log_q) - x).max(axis=1)
    drifts = [(nid, float(dn)) for nid, dn, ok in zip(tree.nonleaf_ids, drift, live) if ok]
    max_drift = float((drift / (1.0 + np.abs(x).max(axis=1)))[live].max(initial=0.0))
    drift_verdict = max_drift <= 1e-8

    if not np.isfinite(cand).all():
        raise AugmentInfeasibleError("cannot build augmented market: a candidate "
                                     "price is not finite")
    augmented = _with_assets(tree, [f"candidate{k}" for k in range(cand.shape[1])], cand)
    try:
        # same layout, so the same leaf order
        aug_value = solve_dual(augmented, pair, endow).value
    except NoMartingaleMeasureError:
        raise AugmentInfeasibleError(
            "augmented market admits arbitrage; candidate is not a fair "
            "price process") from None
    except InfeasibleEntropyError:
        # feasible but only with infinite entropy: optimal value is U(inf)
        aug_value = None

    if aug_value is None:
        utility_verdict = False
    else:
        utility_verdict = (abs(aug_value - sol.value)
                           <= 1e-7 * (1.0 + abs(sol.value)))
    return MubppReport(
        is_mubpp=utility_verdict,
        drift_verdict=drift_verdict,
        utility_verdict=utility_verdict,
        max_abs_drift=max_drift,
        node_drifts=tuple(drifts),
        base_value=sol.value,
        augmented_value=aug_value,
        agree=drift_verdict == utility_verdict,
    )


def optimal_measure_price_process(sol: DualSolution, claim) -> np.ndarray:
    """Conditional claim expectations (N,) in layout order under the
    normalized optimal measure's node log masses, 0 at nodes it does not
    charge: a martingale under that measure, hence a fair price process."""
    cond = sol.tree.conditional_expectation(leaf_values(sol.tree, claim), sol.node_log_q)
    return np.where(sol.charged, cond, 0.0)


# -- dependence on the endowment --------------------------------------------------


@dataclass(frozen=True)
class ContinuityEntry:
    sup_bound: float       # worst-case expectation distance to the limit
    value_gap: float       # |u_n - u|
    dominated: bool        # value gap <= radius * sup bound + tol


@dataclass(frozen=True)
class SensitivityReport:
    values: tuple[float, ...]
    monotone_margins: tuple[tuple[int, int, float], ...]  # (i, j, u_j - u_i)
    strict_ok: bool
    concavity_margins: tuple[tuple[float, float], ...]    # (lambda, margin)
    continuity: tuple[ContinuityEntry, ...]
    mass_radius: float | None
    sandwich: tuple[float, float] | None   # (lower slack, upper slack), >= 0


def _mass_radius(tree, pair, endow_arrays):
    """Radius bounding the mass of every optimizer across the endowments.

    Convexity gives entropy >= V(mass); any measure whose mass makes
    V(mass) + mass * (worst claim expectation) beat a fixed feasible
    measure's objective cannot be optimal.  The other masses form an
    interval; the radius is twice the first mass past it on the grid
    10^(-6 + 18k/399) (from k = 0 in blocks of 400, the first one
    ``np.logspace(-6, 12, 400)``), or 2 if the first block misses it.
    Raises :class:`NonconvergedError` if V overflows first.
    """
    geo = _support_structure(tree)
    c_lo = min(geo.extremes(e)[0] for e in endow_arrays)
    h_q = relative_entropy(tree, pair, geo.interior)
    c_up = max(h_q + float(np.dot(geo.interior, e)) for e in endow_arrays)
    for k in itertools.count(0, 400):
        with np.errstate(over="ignore", invalid="ignore"):
            ys = 10.0 ** (np.arange(k, k + 400) * (18 / 399) - 6.0)
            vals = pair.v(ys) + c_lo * ys
        inside = np.flatnonzero(vals <= c_up)
        if k == 0 and inside.size == 0:
            return 2.0
        end = inside[-1] + 1 if inside.size else 0
        if end < ys.size:
            if not np.isfinite(vals[end]):
                raise NonconvergedError(f"mass radius scan overflowed at mass {ys[end]!r}")
            return 2.0 * float(ys[end])


def endowment_sensitivity(tree: MarketTree, pair: UtilityPair, endowments, *,
                          sequence=None, claim=None) -> SensitivityReport:
    """Monotonicity/concavity/continuity certificates for the optimal value.

    ``endowments`` is a list of random variables on the same tree; ordered
    pairs are checked for monotonicity (strictly when an equivalent measure
    exists), the first two for concavity at mixing weights 0.25, 0.5, 0.75.
    A ``sequence`` converging to ``endowments[0]`` is checked for dominated
    continuity with the computed mass radius, to 1e-9 (relative); a
    ``claim`` adds the recentered-claim sandwich around the base value.
    Report-only.
    """
    endowments = [leaf_values(tree, e) for e in endowments]
    sols = [solve_dual(tree, pair, e) for e in endowments]
    values = [s.value for s in sols]
    has_equivalent = find_equivalent_mm(tree) is not None

    monotone = []
    strict_ok = True
    for i in range(len(endowments)):
        for j in range(len(endowments)):
            if i == j:
                continue
            di = endowments[j] - endowments[i]
            if np.all(di >= 0) and np.any(di > 0):
                margin = values[j] - values[i]
                monotone.append((i, j, margin))
                if has_equivalent and margin <= 0:
                    strict_ok = False

    concavity = []
    if len(endowments) >= 2:
        e0, e1 = endowments[0], endowments[1]
        v0, v1 = values[0], values[1]
        for lam in (0.25, 0.5, 0.75):
            mix = e0 * lam + e1 * (1.0 - lam)
            vm = solve_dual(tree, pair, mix).value
            concavity.append((float(lam), vm - (lam * v0 + (1.0 - lam) * v1)))

    continuity = []
    radius = None
    if sequence:
        seq = [leaf_values(tree, e) for e in sequence]
        radius = _mass_radius(tree, pair, endowments + seq)
        base = values[0]
        for e_n in seq:
            sup = indifference_price_lipschitz_bound(tree, e_n, endowments[0])
            v_n = solve_dual(tree, pair, e_n).value
            gap = abs(v_n - base)
            continuity.append(ContinuityEntry(
                sup_bound=sup, value_gap=gap,
                dominated=gap <= radius * sup + 1e-9 * (1.0 + abs(base))))

    sandwich = None
    if claim is not None:
        b = leaf_values(tree, claim)
        dav = davis_price(tree, pair, endowments[0], b, sol=sols[0])
        lo_b, _ = price_bounds(tree, b)
        v_low = solve_dual(tree, pair, endowments[0] + b + (-dav)).value
        v_high = solve_dual(tree, pair, endowments[0] + b + (-lo_b)).value
        sandwich = (values[0] - v_low, v_high - values[0])

    return SensitivityReport(
        values=tuple(values),
        monotone_margins=tuple(monotone),
        strict_ok=strict_ok,
        concavity_margins=tuple(concavity),
        continuity=tuple(continuity),
        mass_radius=radius,
        sandwich=sandwich,
    )
