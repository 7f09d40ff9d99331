"""Reference values computed without the package under test.

* No-arbitrage bounds: SciPy's HiGHS LP over the martingale polytope, with
  the constraint rows built here from the generator's own arrays.
* Exponential utility: backward induction in log space.  With
  ``U(x) = C - exp(-gamma x)/gamma`` the optimal value for a terminal
  position ``w`` is ``C - Z/gamma`` with ``log Z`` obtained node by node as
  ``min_k logsumexp(log p_c + log Z_c - k.dS_c)`` over the live children.
  Prices follow in closed form (translation invariance).
* Two-power utility: Newton's method on the concave primal problem over the
  strategy coefficients, with analytic U' and U''; prices by Brent's method
  on the primal value, bracketed by the no-arbitrage bounds.

Only EQUIVALENT markets are valid inputs for the two-power family: with an
utility unbounded above, a dead leaf is an arbitrage and the value is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp

from markets import Market


@dataclass(frozen=True)
class Utility:
    """Parameters of one of the two utility families of the package."""

    family: str          # "exponential" | "two_power"
    gamma: float = 1.0   # exponential risk aversion
    a: float = 0.5       # two-power right-tail exponent parameter
    b: float = 1.0       # two-power left-tail exponent parameter
    shift: float = 0.0

    def u(self, x):
        if self.family == "exponential":
            return self.shift - np.exp(-self.gamma * x) / self.gamma
        pos = x >= 0
        out = np.empty_like(x)
        out[pos] = self.shift + ((1.0 + x[pos]) ** (1.0 - self.a) - 1.0) / (1.0 - self.a)
        out[~pos] = self.shift - ((1.0 - x[~pos]) ** (1.0 + self.b) - 1.0) / (1.0 + self.b)
        return out

    def u1(self, x):
        if self.family == "exponential":
            return np.exp(-self.gamma * x)
        return np.where(x >= 0, (1.0 + np.abs(x)) ** -self.a, (1.0 + np.abs(x)) ** self.b)

    def u2(self, x):
        if self.family == "exponential":
            return -self.gamma * np.exp(-self.gamma * x)
        return np.where(x >= 0, -self.a * (1.0 + np.abs(x)) ** (-self.a - 1.0),
                        -self.b * (1.0 + np.abs(x)) ** (self.b - 1.0))


def gain_matrix(m: Market) -> np.ndarray:
    """(leaves, non-leaf nodes x assets): price increment on each leaf's path.

    Its transpose is the matrix of martingale constraint rows.
    """
    nonleaf = [k for k in range(len(m.ids)) if m.children[k]]
    col = {k: j for j, k in enumerate(nonleaf)}
    d = m.n_assets
    g = np.zeros((m.n_leaves, len(nonleaf) * d))
    for i, leaf in enumerate(m.leaves):
        c = leaf
        while m.parent[c] >= 0:
            n = m.parent[c]
            g[i, col[n] * d:(col[n] + 1) * d] = m.prices[c] - m.prices[n]
            c = n
    return g


def price_bounds(m: Market, claim) -> tuple[float, float]:
    """Min and max of E_q[claim] over martingale probabilities q (HiGHS)."""
    a_eq = np.vstack([gain_matrix(m).T, np.ones((1, m.n_leaves))])
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * np.asarray(claim, dtype=float), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise ArithmeticError(f"reference bound LP failed: {res.message}")
        out.append(sign * res.fun)
    return out[0], out[1]


def _newton_min(f, grad_hess, x, damping):
    """Minimize a smooth convex ``f`` from ``x`` by Levenberg-Marquardt Newton.

    Far from the optimum the Hessian can be nearly singular; the damping term
    then turns the step into a short gradient step, and it shrinks by 4 after
    every accepted step so that Newton's quadratic convergence takes over.
    Steps whose predicted decrease is at rounding level are taken as they
    are, to polish the gradient.  ``grad_hess`` returns the gradient, the
    Hessian and the magnitude of the terms summed into the gradient, which
    sets the stopping test.
    """
    fx = f(x)
    eye = np.eye(x.size)
    for _ in range(500):
        g, h, size = grad_hess(x)
        if float(np.linalg.norm(g)) <= 1e-12 * size:
            break
        scale = 1.0 + abs(fx)
        step = np.linalg.solve(h + damping * eye, -g)
        pred = -float(g @ step + 0.5 * step @ h @ step)
        trial = x + step
        ft = f(trial)
        if ft <= fx - 0.25 * pred or (pred <= 1e-15 * scale and ft <= fx + 1e-15 * scale):
            x, fx = trial, ft
            damping *= 0.25
        else:
            damping = max(4.0 * damping, 1e-12)
            if damping > 1e30:
                break
    return x, fx


# -- exponential family: backward induction -----------------------------------


def _one_step_log(b, ds):
    """min_k logsumexp(b - ds @ k) and the optimal softmax weights.

    Strictly convex whenever the increments ``ds`` have the origin inside
    their hull; the first step moves each exponent by about one unit.
    """

    def f(k):
        return float(logsumexp(b - ds @ k))

    def grad_hess(k):
        z = b - ds @ k
        w = np.exp(z - logsumexp(z))
        mean = w @ ds
        hess = (ds * w[:, None]).T @ ds - np.outer(mean, mean)
        return -mean, hess, float(w @ np.abs(ds).sum(axis=1))

    damping = float(np.max(np.sum(ds * ds, axis=1)))
    k, fk = _newton_min(f, grad_hess, np.zeros(ds.shape[1]), damping)
    z = b - ds @ k
    return fk, np.exp(z - logsumexp(z))


def exp_log_z(m: Market, util: Utility, w) -> tuple[float, np.ndarray]:
    """log E[exp(-gamma (w + G h*))] and the optimal measure on the leaves."""
    n_nodes = len(m.ids)
    log_z = np.zeros(n_nodes)
    for i, leaf in enumerate(m.leaves):
        log_z[leaf] = -util.gamma * float(w[i])
    weight = {}
    for k in range(n_nodes - 1, -1, -1):       # children come after parents
        kids = m.live[k]
        if not kids:
            continue
        b = np.array([math.log(m.prob[c]) + log_z[c] for c in kids])
        ds = np.array([util.gamma * (m.prices[c] - m.prices[k]) for c in kids])
        if len(kids) == 1:
            log_z[k], wts = b[0], np.ones(1)
        else:
            log_z[k], wts = _one_step_log(b, ds)
        weight.update(zip(kids, wts))
    q = np.zeros(m.n_leaves)
    for i, leaf in enumerate(m.leaves):
        c, mass = leaf, 1.0
        while m.parent[c] >= 0 and mass > 0.0:
            mass *= weight.get(c, 0.0)
            c = m.parent[c]
        q[i] = mass
    return float(log_z[0]), q


# -- two-power family: primal Newton ----------------------------------------------


class PrimalSolver:
    """max_h E[U(w + G h)] by damped Newton, warm-started across calls."""

    def __init__(self, m: Market, util: Utility):
        self.g = gain_matrix(m)
        self.p = m.leaf_prob()
        self.util = util
        self.h = np.zeros(self.g.shape[1])

    def solve(self, w) -> tuple[float, np.ndarray]:
        """Optimal value and the optimal terminal position w + G h*."""
        g, p, util = self.g, self.p, self.util

        def f(h):
            return -float(p @ util.u(w + g @ h))

        def grad_hess(h):
            x = w + g @ h
            pu1 = p * util.u1(x)
            return (-(g.T @ pu1), (g.T * (-p * util.u2(x))) @ g,
                    float(np.abs(g).T @ pu1 @ np.ones(g.shape[1])))

        self.h, neg_v = _newton_min(f, grad_hess, self.h, 1e-8)
        return -neg_v, w + g @ self.h


# -- references per operation -------------------------------------------------------


def optimal_value(m: Market, util: Utility, endow) -> float:
    """sup over strategies of E[U(endow + gain)] (not attained if DEGENERATE)."""
    endow = np.asarray(endow, dtype=float)
    if util.family == "exponential":
        log_z, _ = exp_log_z(m, util, endow)
        return util.shift - math.exp(log_z) / util.gamma
    return PrimalSolver(m, util).solve(endow)[0]


@dataclass(frozen=True)
class PriceRef:
    bid: float
    offer: float
    certainty_equivalent: float
    davis: float
    bounds: tuple[float, float]


def prices(m: Market, util: Utility, endow, claim) -> PriceRef:
    """Bid, offer, certainty equivalent, marginal price and bounds of a claim."""
    e = np.asarray(endow, dtype=float)
    x = np.asarray(claim, dtype=float)
    lo, hi = price_bounds(m, x)
    if util.family == "exponential":
        g = util.gamma
        base, q = exp_log_z(m, util, e)
        plus, _ = exp_log_z(m, util, e + x)
        minus, _ = exp_log_z(m, util, e - x)
        bid = (base - plus) / g
        return PriceRef(bid=bid, offer=(minus - base) / g,
                        certainty_equivalent=bid, davis=float(q @ x),
                        bounds=(lo, hi))

    solver = PrimalSolver(m, util)
    base, x_opt = solver.solve(e)
    q = m.leaf_prob() * util.u1(x_opt)
    davis = float(q @ x) / float(q.sum())

    def root(f, a, b):
        span = 1e-9 * (1.0 + abs(a) + abs(b))
        a, b = a - span, b + span
        return brentq(f, a, b, xtol=1e-14 * (1.0 + abs(a) + abs(b)), rtol=1e-15,
                      maxiter=200)

    bid = root(lambda c: solver.solve(e + x - c)[0] - base, lo, hi)
    offer = -root(lambda c: solver.solve(e - x - c)[0] - base, -hi, -lo)
    target = solver.solve(e + x)[0]
    ce = root(lambda c: solver.solve(e + c)[0] - target, lo, hi)
    return PriceRef(bid=bid, offer=offer, certainty_equivalent=ce, davis=davis,
                    bounds=(lo, hi))
