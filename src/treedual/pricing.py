"""Utility-based prices: indifference, entropic-penalty, marginal, bounds.

The bid price of a claim B makes the agent indifferent between holding
B minus cash and holding nothing; the certainty equivalent is the cash
worth as much as B, and the offer is minus the bid of -B.  These, the
penalized bid and the marginal price all lie between the claim's
no-arbitrage bounds (lo, hi), which every call that prices B at a volume
sweeps first.  When lo == hi exactly the claim is attainable, and
:func:`_replication_price` returns lo as every one of these prices, at
every volume and for every utility, with no dual solve (Harrison &
Pliska, *Stoch. Proc. Appl.* 11, 1981); on a complete market that holds
for every claim.  Otherwise each price is one search, and the bid is
recomputed independently as a penalized worst-case expectation by a
third; the cross-method residual is reported along with the number of
dual solves and of rounds.  A search picks its method by the utility's
family and asks for the optima it needs.  For the exponential family,
whose log-partition L shifts by -gamma per unit of cash, these are the
optima at e and e + B, and the bid and certainty equivalent are both
``(L(e) - L(e + B))/gamma`` at any volume.  For the two-power family
the value increases in cash with the dual mass as derivative, and after
the optimum it starts from, a search takes bracketed Newton steps in
certainty-equivalent units, each dual solve warm-started from the last.  :class:`SolveCounter` runs the searches of
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

from .dual import (DualSolution, _bracketed_newton, _complete_rows, _prepare, _solutions,
                   solve_dual)
from .errors import (AugmentInfeasibleError, DomainError, InfeasibleEntropyError,
                     InfiniteEntropyError, NoMartingaleMeasureError)
from .geometry import is_martingale_measure, relative_entropy, _support_structure
from .market import MarketTree, _with_assets, leaf_values
from .utility import UtilityPair

PRICE_TOL = 1e-9       # |u(endow + claim - p) - u(endow)| <= tol * (1 + |u|)


def price_bounds(tree: MarketTree, claim) -> tuple[float, float]:
    """No-arbitrage interval: extremal claim expectations over the polytope.

    One extremal sweep (backward induction over the cached one-step
    vertices of :func:`~treedual.geometry._support_structure`), read at
    the root.
    """
    lo, hi = _support_structure(tree).extremes(leaf_values(tree, claim))
    return float(lo[0]), float(hi[0])


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


def _replication_price(tree, pair, lo, hi):
    """The price of a claim whose no-arbitrage bounds (lo, hi) coincide, lo,
    or None when lo < hi.  Every utility-based price of the claim lies
    between the bounds, so lo == hi (exactly) prices it at every volume with
    no dual solve.  The tree's support is still checked: a two-power pair on
    a market with no equivalent martingale measure raises
    :class:`InfeasibleEntropyError`, as its dual solves would."""
    if lo != hi:
        return None
    _prepare(tree, pair)
    return lo


def _alone(tree, pair, endow, claim, search):
    """One price of ``endow`` and ``claim`` by itself: the replication price
    after one extremal sweep, or else the result of ``search(e, b, lo, hi)``,
    a search built from the leaf values and the claim's bounds, run alone."""
    e, b = leaf_values(tree, endow), leaf_values(tree, claim)
    lo, hi = price_bounds(tree, b)
    price = _replication_price(tree, pair, lo, hi)
    if price is not None:
        return price
    return SolveCounter().run(tree, pair, search(e, b, lo, hi))[0]


def _cash_root(pair, x, target, c0, hi, start):
    """Search for the cash ``c`` in ``[c0, hi]`` at which the optimal value of
    x + c is ``target``.

    The value is increasing in c with the optimal dual mass as derivative
    (envelope), and the caller guarantees value <= target at c0 and >= at hi,
    so neither end is probed unless Newton lands there.  Steps are taken in
    certainty-equivalent units z = U^-1(value), where dz/dc = mass / U'(z).
    The probe that meets the tolerance gets one more step, which costs no
    solve.  Every probe starts at the previous optimal measure, the first
    at ``start``, which the Newton core fits in its own metric: the
    first-order tangent from that optimum.
    """
    if pair.u_inverse is None:
        raise DomainError("cash pricing needs the inverse utility of the pair")
    z_target = pair.u_inverse(target)
    f_tol = PRICE_TOL * (1.0 + abs(target))
    root = None

    def probe(c):
        nonlocal start, root
        sol, = yield [(x + c, None, start)]
        start = sol.mu
        z = pair.u_inverse(sol.value)
        slope = sol.mass / pair.u_prime(z)
        if abs(sol.value - target) <= f_tol:
            root = c - (z - z_target) / slope if 0 < slope < math.inf else c
            return 0.0, None, True
        return z - z_target, slope, False

    # rounding can put the marginal price a hair outside the bounds
    yield from _bracketed_newton(probe, c0, c0, max(hi, c0))
    return root


def _bid(tree, pair, endow, claim, bound):
    """Search for the bid of ``claim``: (L(e) - L(e + B))/gamma from the
    exponential optima at e and e + B; otherwise :func:`_cash_root` on
    c = -p after the optimum at e, from minus the marginal price there (the
    dual bound puts the value there at or below the target) to minus the
    lower no-arbitrage bound ``bound`` (sub-replication puts it at or
    above), warm-started from the claim-free measure."""
    if pair.family == "exponential":
        return _log_mass_gap(pair, *(yield [(endow, None, None), (endow + claim, None, None)]))
    base, = yield [(endow, None, None)]
    c0 = -davis_price(tree, pair, endow, claim, sol=base)
    return -(yield from _cash_root(pair, endow + claim, base.value, c0, -bound, base.mu))


def _certainty_equivalent(tree, pair, endow, claim, bound):
    """Search for the certainty equivalent of ``claim``: the bid for the
    exponential family (translation invariance); otherwise
    :func:`_cash_root` on value(e + c) = value(e + B) after the optimum at
    e + B, from the claim's marginal price there to the upper bound
    ``bound`` (super-replication puts the value there at or above),
    warm-started from that optimum's measure."""
    if pair.family == "exponential":   # whose bid reads no bound
        return (yield from _bid(tree, pair, endow, claim, None))
    target, = yield [(endow + claim, None, None)]
    c0 = davis_price(tree, pair, endow + claim, claim, sol=target)
    return (yield from _cash_root(pair, endow, target.value, c0, bound, target.mu))


def _penalty(tree, pair, endow, claim):
    """Search for the bid of :func:`price_via_penalty`: for the exponential
    family the closed form at the claim-holding optimum
    (:func:`_penalized_expectation`).  Otherwise :func:`_least_gap` from the
    optimum at e, to 1e-5 in the log mass (the gap within ~1e-10 of its
    minimum), on fixed-mass solves of e + B, each warm-started from the
    last, that read W' (envelope formula) and W'' off each probe's optimum."""
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

    return (yield from _least_gap(point, base, 1e-5))


def _least_gap(point, base, x_tol):
    """Search for the least gap (W(y) - W0)/y over the mass y = e^s from the
    log mass of the claim-free optimum ``base``, W0 its value, ``point(s)``
    a search that returns W, W' and W'': bracketed Newton, to within
    ``x_tol``, on h = W' - (W - W0)/y, whose sign changes once, as y h
    increases (d(y h)/dy = y W'' >= 0), with dh/ds = y W'' - h."""
    gaps = {}

    def probe(s):
        y = math.exp(s)
        w, slope, w2 = yield from point(s)
        gaps[s] = (w - base.value) / y
        h = slope - gaps[s]
        return h, y * w2 - h, False

    s = yield from _bracketed_newton(probe, base._log_mass, -math.inf, math.inf, x_tol=x_tol)
    return gaps[s]


def _log_mass_gap(pair, lo, hi):
    """Cash between two exponential-family positions: (L(lo) - L(hi))/gamma."""
    return (lo._log_mass - hi._log_mass) / pair.params["gamma"]


def indifference_price(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Bid price: the cash p with value(endow + claim - p) = value(endow),
    by one :func:`_bid` search unless the claim is attainable."""
    return _alone(tree, pair, endow, claim,
                  lambda e, b, lo, hi: _bid(tree, pair, e, b, lo))


def entropic_penalty(tree: MarketTree, pair: UtilityPair, endow,
                     q, *, base: DualSolution | None = None) -> float:
    """Normalized excess entropy of a martingale probability measure.

    For a fixed measure q this is the least gap (W(y) - base)/y over the
    mass, W(y) = E[V(y q/P)] + y E_q[e], with base the claim-free optimal
    value.  ``base`` is that optimum, solved here when None; it must have
    solved ``tree``, ``pair`` and ``endow``, else :class:`DomainError`.
    For the exponential family the gap is least at the claim-free optimal
    mass e^L for every q, where it is (H(q|P) + L)/gamma + E_q[e]
    (:func:`_entropic_gap`), with L the optimum's exact log mass, which
    stays exact where its value rounds to sup U = C.  Otherwise one
    :func:`_least_gap` search from ``base``, to within 1e-8 on W, W' = E_q[V'(y
    q/p) + e] and W'' = sum (q^2/p) V''(y q/p) of ``dual._complete_rows``,
    which asks for no solve.  Zero exactly at the normalized dual optimizer;
    raises :class:`InfiniteEntropyError` when the measure has infinite entropy.
    ``q`` is a leaf measure; one off the domain (a mass beyond 1e-12 of 1, or
    drift: :func:`is_martingale_measure`) raises :class:`DomainError`.
    """
    qa = leaf_values(tree, q)
    if abs(float(qa.sum()) - 1.0) > 1e-12 or not is_martingale_measure(tree, qa):
        raise DomainError("q must be a martingale probability measure")
    if not math.isfinite(relative_entropy(tree, pair, qa)):
        raise InfiniteEntropyError("measure has infinite relative entropy")
    p = tree.leaf_probability_array
    e = leaf_values(tree, endow)
    if base is None:
        base = solve_dual(tree, pair, endow)
    else:
        base._require(tree, pair, e, "entropic_penalty")
    if pair.family == "exponential":
        return _entropic_gap(pair, p, qa, e, base._log_mass)
    log_q = np.log(qa)   # q > 0: a zero weight has infinite two-power entropy

    def point(s):
        yield from ()   # a search that asks for no solve
        sums = _complete_rows(pair, p, log_q, e, s, [0])[0][:, 0]
        return float(sums[0]), float(sums[1]), float(sums[2]) / math.exp(s)

    return SolveCounter().run(tree, pair, _least_gap(point, base, 1e-8))[0]


def _entropic_gap(pair, p, q, e, log_mass):
    """The exponential least gap (H(q|P) + gamma E_q[e] + L)/gamma of a leaf
    measure q at the claim-free log mass L, summed leaf by leaf."""
    on = q > 0
    entropy = float(q[on] @ np.log(q[on] / p[on]))
    return (entropy + pair.params["gamma"] * float(q @ e) + log_mass) / pair.params["gamma"]


def _penalized_expectation(pair, endow, claim, base, shifted):
    """Exponential bid E_q[B] + (H(q|P) + gamma E_q[e] + L(e))/gamma at the
    claim-holding optimizer q of ``shifted``, where this penalized
    expectation is least over martingale measures; ``base`` carries L(e).
    Summed leaf by leaf, not read off the log-partition of ``shifted``."""
    q = shifted.q_hat
    return float(q @ claim) + _entropic_gap(pair, shifted.tree.leaf_probability_array, q,
                                            endow, base._log_mass)


def price_via_penalty(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Bid price as a penalized worst-case expectation: the least, over
    measures in the cone, of the normalized gap (W(y) - base)/y, where W(y)
    is the fixed-mass dual value with the claim added and base the
    claim-free optimum.  One :func:`_penalty` search unless the claim is
    attainable; uses no result of the cash root-finder."""
    return _alone(tree, pair, endow, claim,
                  lambda e, b, lo, hi: _penalty(tree, pair, e, b))


def davis_price(tree: MarketTree, pair: UtilityPair, endow, claim, *,
                sol: DualSolution | None = None) -> float:
    """Marginal price: claim expectation under the normalized optimum ``sol``
    at ``endow``, solved when None (another problem's is a DomainError)."""
    if sol is None:
        sol = solve_dual(tree, pair, endow)
    sol._require(tree, pair, leaf_values(tree, endow), "davis_price")
    return float(np.dot(sol.q_hat, leaf_values(tree, claim)))


def certainty_equivalent(tree: MarketTree, pair: UtilityPair, endow, claim) -> float:
    """Cash amount with the same optimal value as holding the claim, by one
    :func:`_certainty_equivalent` search unless the claim is attainable."""
    return _alone(tree, pair, endow, claim,
                  lambda e, b, lo, hi: _certainty_equivalent(tree, pair, e, b, hi))


@dataclass(frozen=True)
class PriceReport:
    """Bid/offer, certainty equivalent, marginal price and bounds."""

    bid: float                # each price is lo when lo == hi (attainable claim)
    offer: float
    certainty_equivalent: float
    davis: float
    lp_bounds: tuple[float, float]        # (lo, hi), no-arbitrage
    method_agreement_residual: float      # 0 for an attainable claim
    dual_solves: int          # dual optima computed, 0 for an attainable claim
    dual_rounds: int          # Newton-core calls or log-space passes, 0 likewise


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
    takes as many rounds as its longest search.  When lo == hi exactly the
    claim is attainable and every price is lo, with no search and no dual
    solve (:func:`_replication_price`).
    """
    endow = leaf_values(tree, endow)
    claim = leaf_values(tree, claim)
    lo, hi = price_bounds(tree, claim)
    price = _replication_price(tree, pair, lo, hi)
    if price is not None:
        return PriceReport(bid=price, offer=price, certainty_equivalent=price, davis=price,
                           lp_bounds=(lo, hi), method_agreement_residual=0.0,
                           dual_solves=0, dual_rounds=0)
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
    large_volume_gap: float              # at each end: to lp_lower (beta > 0), hi (beta < 0)
    small_volume_gap: float              # to davis, at the volume of least |beta|
    dual_solves: int                     # 0, as dual_rounds, when every price is
    dual_rounds: int                     # the replication price lp_lower


def average_price_curve(tree: MarketTree, pair: UtilityPair, endow, claim,
                        betas) -> VolumeCurveReport:
    """Average per-unit bid price across volumes, with its two limits.

    Non-increasing in volume; converges to the lower no-arbitrage bound as
    the volume grows and to the marginal price as it vanishes.  One
    lockstep run of the free solve at e and one :func:`_bid` search per
    volume, which share that solve, and one extremal sweep serve every
    volume; the bounds of beta * claim are beta times those of the claim,
    swapped when beta < 0 (the curve tends to hi as -beta grows).  The
    exponential family takes every optimum from one log-space pass.  When
    the bounds coincide exactly the claim is attainable: every volume's
    price and the marginal price are the lower bound, with no search and
    no dual solve (:func:`_replication_price`).
    """
    endow = leaf_values(tree, endow)
    claim = leaf_values(tree, claim)
    betas = sorted(float(b) for b in betas)
    if not betas or not all(b != 0.0 and math.isfinite(b) for b in betas):
        raise DomainError("volumes must be finite and nonzero, at least one of them")
    lp_lo, lp_hi = price_bounds(tree, claim)
    solves = SolveCounter()
    dav = _replication_price(tree, pair, lp_lo, lp_hi)
    if dav is not None:
        prices = [dav] * len(betas)
    else:
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
        large_volume_gap=max(abs(prices[0] - lp_hi) if betas[0] < 0 else 0.0,
                             abs(prices[-1] - lp_lo) if betas[-1] > 0 else 0.0),
        small_volume_gap=abs(min(zip(map(abs, betas), prices))[1] - dav),
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
    other shape raises ``ValueError``.  Method A reads each candidate
    asset's one-step drift under the normalized optimal measure at the
    nodes it charges, over min(``top``, 1 + max|S'_n|) of the augmented
    layout (``max_abs_drift``, fair within 1e-8); method B augments the
    market with the candidate and re-solves (fair within 1e-7, relative).
    The verdicts agree (the theorem this verifies); ``is_mubpp`` is B's.
    Raises
    :class:`AugmentInfeasibleError` for a non-finite candidate price or an
    augmented market with arbitrage (then the candidate is not fair).
    """
    endow = leaf_values(tree, endow)
    n, cand = len(tree.layout.ids), np.asarray(sprime, dtype=float)
    if cand.ndim not in (1, 2) or cand.shape[0] != n:
        raise ValueError(f"candidate process must have shape ({n},) or ({n}, k) "
                         f"in layout order, got {cand.shape}")
    cand = cand.reshape(n, -1)

    if not np.isfinite(cand).all():
        raise AugmentInfeasibleError("cannot build augmented market: a candidate "
                                     "price is not finite")
    sol = solve_dual(tree, pair, endow)
    augmented = _with_assets(tree, [f"candidate{k}" for k in range(cand.shape[1])], cand)
    aug, d, live = augmented.layout, tree.n_assets, sol.charged[:tree.layout.level_starts[-2]]
    drift = np.abs(tree.one_step_expectation(aug.step[:, d:], sol.node_log_q))
    drifts = [(i, float(x)) for i, x, ok in zip(tree.nonleaf_ids, drift.max(axis=1), live) if ok]
    unit = np.minimum(aug.top[:, d:], 1.0 + np.abs(cand[:live.size]).max(axis=1, keepdims=True))
    max_drift = float((drift / unit).max(axis=1)[live].max(initial=0.0))
    drift_verdict = max_drift <= 1e-8
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
    mass_radius: float | None   # largest optimal mass; None without a sequence
    sandwich: tuple[float, float] | None   # (lower slack, upper slack), >= 0


def endowment_sensitivity(tree: MarketTree, pair: UtilityPair, endowments, *,
                          sequence=None, claim=None) -> SensitivityReport:
    """Monotonicity/concavity/continuity certificates for the optimal value.

    ``endowments`` is a list of random variables on the same tree; ordered
    pairs are checked for monotonicity (strictly when the support flag says
    an equivalent measure exists), the first two for concavity at mixing
    weights 0.25, 0.5, 0.75.  A ``sequence`` e_n converging to
    e = ``endowments[0]`` is checked for dominated continuity, to 1e-9
    (relative), by the envelope bound max(y, y_n) sup_Q |E_Q[e_n - e]| at
    the optimal masses, with the mass radius the largest optimal mass over
    the endowments and the sequence.  A ``claim`` adds the
    recentered-claim sandwich around the base value.  Report-only.  A
    ``sequence`` or a ``claim`` with no endowments is a
    :class:`DomainError`: both are read around e.
    """
    seq = [leaf_values(tree, e) for e in (() if sequence is None else sequence)]
    if len(endowments) == 0 and (seq or claim is not None):
        raise DomainError("a sequence or a claim needs a base endowment, "
                          "and the endowment list is empty")
    endowments = [leaf_values(tree, e) for e in endowments]
    sols = [solve_dual(tree, pair, e) for e in endowments]
    values = [s.value for s in sols]
    has_equivalent = all(s.support == "EQUIVALENT" for s in sols)

    monotone = []
    strict_ok = True
    for i, j in itertools.permutations(range(len(endowments)), 2):
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
    if seq:
        seq_sols = [solve_dual(tree, pair, e) for e in seq]
        radius = max(s.mass for s in sols + seq_sols)
        base = values[0]
        for e_n, sol_n in zip(seq, seq_sols):
            sup = indifference_price_lipschitz_bound(tree, e_n, endowments[0])
            gap = abs(sol_n.value - base)
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
