"""Linear geometry of the martingale measures of a scenario tree.

A non-negative leaf measure ``mu`` prices the tree's assets without drift iff
``A mu = 0`` where A has one row per (non-leaf node, asset): the coefficient
on leaf ``l`` is the asset's next-period price on the branch containing ``l``
minus the node price, and 0 off the subtree.  Solutions form the cone of
(non-normalized) absolutely continuous martingale measures; its unit-mass
slice is the martingale polytope, whose vertices are enumerated by a double
description sweep at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import CapExceededError, DomainError, NoMartingaleMeasureError
from .market import MarketTree, leaf_values
from .simplex import solve_lp
from .utility import UtilityPair

EQUIVALENCE_TOL = 1e-10  # strict-positivity threshold for "equivalent"
VERTEX_CAP_DEFAULT = 10_000


@dataclass(frozen=True, eq=False)
class MartingaleConstraints:
    """Equality rows whose non-negative solutions are the martingale cone."""

    matrix: np.ndarray                       # (m, L), read-only
    row_labels: tuple[tuple[str, int], ...]  # (node id, asset index) per row
    leaf_ids: tuple[str, ...]

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)


@dataclass(frozen=True, eq=False)
class MeasureVector:
    """A non-negative measure on the leaves (not necessarily unit mass)."""

    values: Mapping[str, float]

    @property
    def mass(self) -> float:
        return float(sum(self.values.values()))

    def as_array(self, tree: MarketTree) -> np.ndarray:
        return leaf_values(tree, dict(self.values))

    def density(self, tree: MarketTree) -> np.ndarray:
        """Leaf-wise Radon-Nikodym derivative against the reference measure."""
        return self.as_array(tree) / tree.leaf_probability_array

    def normalized(self) -> "MeasureVector":
        m = self.mass
        if m <= 0:
            raise DomainError("cannot normalize a zero measure")
        return MeasureVector({k: v / m for k, v in self.values.items()})

    @staticmethod
    def from_array(tree: MarketTree, arr) -> "MeasureVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (tree.n_leaves,):
            raise ValueError("wrong length for a leaf measure")
        if np.any(arr < 0):
            raise DomainError("measure must be non-negative")
        return MeasureVector(dict(zip(tree.leaf_ids, arr.tolist())))


@lru_cache(maxsize=256)
def build_constraints(tree: MarketTree) -> MartingaleConstraints:
    """One row per (non-leaf node, asset); see the module docstring."""
    L = tree.n_leaves
    rows = []
    labels = []
    for nid in tree.nonleaf_ids:
        s_n = tree.price(nid)
        for i in range(tree.n_assets):
            row = np.zeros(L)
            for cid in tree.children(nid):
                lo, hi = tree.leaf_slice(cid)
                row[lo:hi] = tree.price(cid)[i] - s_n[i]
            rows.append(row)
            labels.append((nid, i))
    mat = np.array(rows)
    mat.setflags(write=False)
    return MartingaleConstraints(mat, tuple(labels), tree.leaf_ids)


def is_martingale_measure(tree: MarketTree, q, tol: float = 1e-9) -> bool:
    """Direct per-node check: conditional child prices equal the node price.

    Nodes with zero subtree mass under ``q`` are skipped (the conditional
    expectation is undefined there).
    """
    qs = leaf_values(tree, q.values if isinstance(q, MeasureVector) else q)
    for nid in tree.nonleaf_ids:
        lo, hi = tree.leaf_slice(nid)
        mass = qs[lo:hi].sum()
        if mass <= 0:
            continue
        s_n = tree.price(nid)
        cond = np.zeros(tree.n_assets)
        for cid in tree.children(nid):
            clo, chi = tree.leaf_slice(cid)
            cond += qs[clo:chi].sum() * tree.price(cid)
        cond /= mass
        scale = 1.0 + np.abs(s_n).max()
        if np.abs(cond - s_n).max() > tol * scale:
            return False
    return True


# -- feasibility (FTAP side) ---------------------------------------------------

@lru_cache(maxsize=256)
def _max_min_coordinate(tree: MarketTree, support: tuple[int, ...] | None = None):
    """LP: maximize the minimum coordinate of q over the martingale polytope.

    Returns ``(t_star, q)`` or None when even the polytope is empty.  With a
    ``support`` index subset, leaves off the support are pinned to zero.
    """
    A = build_constraints(tree).matrix
    L = tree.n_leaves
    idx = list(range(L)) if support is None else list(support)
    ns = len(idx)
    Ai = A[:, idx]
    m = Ai.shape[0]
    # variables: q_s (ns), t (1), slacks s (ns); rows: A q = 0, sum q = 1, q - t - s = 0
    nvar = 2 * ns + 1
    rows = np.zeros((m + 1 + ns, nvar))
    rhs = np.zeros(m + 1 + ns)
    rows[:m, :ns] = Ai
    rows[m, :ns] = 1.0
    rhs[m] = 1.0
    for k in range(ns):
        rows[m + 1 + k, k] = 1.0
        rows[m + 1 + k, ns] = -1.0
        rows[m + 1 + k, ns + 1 + k] = -1.0
    c = np.zeros(nvar)
    c[ns] = -1.0  # maximize t
    res = solve_lp(c, rows, rhs)
    if res.status != "optimal":
        return None
    q = np.zeros(L)
    q[idx] = res.x[:ns]
    return float(res.x[ns]), q


def find_equivalent_mm(tree: MarketTree) -> MeasureVector | None:
    """A strictly positive martingale probability, or None if none exists.

    Implemented as a phase-1 LP maximizing the minimum leaf weight.  Raises
    :class:`NoMartingaleMeasureError` when the polytope itself is empty
    (arbitrage regime: even absolutely continuous measures are ruled out).
    """
    sol = _max_min_coordinate(tree)
    if sol is None:
        raise NoMartingaleMeasureError(
            "no absolutely continuous martingale measure exists")
    t_star, q = sol
    if t_star < EQUIVALENCE_TOL:
        return None
    return MeasureVector.from_array(tree, q)


@lru_cache(maxsize=256)
def _support_structure(tree: MarketTree):
    """(support mask, interior q on the support) of the martingale polytope.

    The support is the union of supports over the polytope.  When the
    max-min LP finds no equivalent measure, one more LP finds the support:
    maximize sum z over {A q = 0, q >= 0, 0 <= z <= q, z <= 1}.  The cone is
    closed under sums and scaling, so at the optimum z = 1 exactly on the
    union of supports and 0 elsewhere.  The max-min LP restricted to the
    support then gives a q strictly positive there, and q satisfies the
    equalities to rounding.
    """
    sol = _max_min_coordinate(tree)
    if sol is None:
        raise NoMartingaleMeasureError(
            "no absolutely continuous martingale measure exists")
    t_star, q = sol
    L = tree.n_leaves
    A = build_constraints(tree).matrix
    if t_star >= EQUIVALENCE_TOL:
        mask = np.ones(L, dtype=bool)
        return mask, _project_interior(A, mask, q)
    # variables: q (L), z (L), slacks of z <= q (L), slacks of z <= 1 (L)
    m = A.shape[0]
    eye = np.eye(L)
    zero = np.zeros((L, L))
    rows = np.block([
        [A, np.zeros((m, 3 * L))],
        [eye, -eye, -eye, zero],
        [zero, eye, zero, eye],
    ])
    rhs = np.concatenate([np.zeros(m + L), np.ones(L)])
    c = np.concatenate([np.zeros(L), -np.ones(L), np.zeros(2 * L)])
    mask = solve_lp(c, rows, rhs).x[L:2 * L] > 0.5
    support = tuple(int(i) for i in np.where(mask)[0])
    sol_s = _max_min_coordinate(tree, support)
    if sol_s is None or sol_s[0] < EQUIVALENCE_TOL:
        raise NoMartingaleMeasureError(
            "martingale polytope has empty relative interior")  # should not happen
    return mask, _project_interior(A, mask, sol_s[1])


def _project_interior(A, mask, q):
    """Put the max-min LP point exactly on {A q = 0, sum q = 1} over the support.

    HiGHS meets the equalities only to its primal feasibility tolerance
    (1e-7), and every solve started from ``q`` would inherit the residual.
    One least-squares correction removes it; losing positivity means the LP
    point was not interior after all.
    """
    M = np.vstack([A[:, mask], np.ones((1, int(mask.sum())))])
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    qs = q[mask]
    dq, *_ = np.linalg.lstsq(M, M @ qs - rhs, rcond=None)
    qs = qs - dq
    if not np.all(qs > 0):
        raise NoMartingaleMeasureError(
            "interior martingale measure lost positivity on projection")
    out = np.zeros_like(q)
    out[mask] = qs
    return out


# -- entropy ---------------------------------------------------------------------

def relative_entropy(tree: MarketTree, pair: UtilityPair, mu) -> float:
    """Generalized entropy of ``mu`` against the reference leaf probabilities.

    Expectation of the conjugate applied to the leaf density, with the
    convention that a zero-density leaf contributes V(0) = U(inf); the result
    is +inf iff some term is.
    """
    ms = mu.as_array(tree) if isinstance(mu, MeasureVector) else leaf_values(tree, mu)
    if np.any(ms < 0):
        raise DomainError("measure must be non-negative")
    p = tree.leaf_probability_array
    vals = pair.v(ms / p)
    return float(np.dot(p, vals)) if np.all(np.isfinite(vals)) else float("inf")


# -- vertex enumeration -----------------------------------------------------------

def vertex_enumerate(constraints: MartingaleConstraints,
                     cap: int = VERTEX_CAP_DEFAULT) -> list[MeasureVector]:
    """All extreme points of the martingale polytope, by double description.

    Sweeps the equality rows through the non-negative orthant's generators,
    combining adjacent positive/negative rays.  Rows enter bottom-up, in
    reverse of :func:`build_constraints` (whose nodes run by time), so each
    node's rows combine only rays already formed inside its subtree and the
    working set stays near the size of the answer; top-down, a 27-leaf
    one-asset tree grows ~650 intermediate rays before settling on 128
    vertices (Fukuda & Prodon, *Double description method revisited*, 1996,
    on row order).  The vertex set does not depend on the order: the final
    polish depends only on each ray's support.  Raises
    :class:`CapExceededError` if the working set exceeds ``cap`` (callers
    fall back to sampling).  Each returned vertex satisfies the constraints
    to 1e-10 and has unit mass.
    """
    A = constraints.matrix
    L = constraints.n_leaves
    rays = np.eye(L)
    for row in A[::-1]:
        scale = max(1.0, np.abs(row).max())
        d = rays @ row
        tol = 1e-12 * scale
        plus = np.where(d > tol)[0]
        minus = np.where(d < -tol)[0]
        zero = np.where(np.abs(d) <= tol)[0]
        new_rays = [rays[zero]] if zero.size else []
        if plus.size and minus.size:
            zsets = rays <= 1e-12  # support complements for adjacency tests
            combos = []
            for i in plus:
                for j in minus:
                    meet = zsets[i] & zsets[j]
                    others = np.delete(np.arange(rays.shape[0]), [i, j])
                    dominated = np.any(np.all(zsets[others] | ~meet, axis=1)) \
                        if others.size else False
                    if dominated:
                        continue
                    r = d[i] * rays[j] - d[j] * rays[i]
                    combos.append(r / r.sum())
            if combos:
                new_rays.append(np.array(combos))
        rays = np.vstack(new_rays) if new_rays else np.zeros((0, L))
        if rays.shape[0] == 0:
            return []
        # dedupe
        key = np.round(rays / rays.sum(axis=1, keepdims=True), 12)
        _, uniq = np.unique(key, axis=0, return_index=True)
        rays = rays[np.sort(uniq)]
        if rays.shape[0] > cap:
            raise CapExceededError(
                f"vertex candidates exceed cap {cap}", count=rays.shape[0])

    out = []
    for r in rays:
        q = r / r.sum()
        supp = q > 1e-12
        sub = A[:, supp]
        # extreme iff the support-restricted system has a 1-D solution space
        if supp.sum() - np.linalg.matrix_rank(sub, tol=1e-10) != 1:
            continue
        # polish: project onto the affine hull restricted to the support
        M = np.vstack([sub, np.ones((1, supp.sum()))])
        rhs = np.zeros(M.shape[0])
        rhs[-1] = 1.0
        qs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.any(qs < -1e-12):
            continue
        q = np.zeros(L)
        q[supp] = np.clip(qs, 0.0, None)
        q /= q.sum()
        if np.abs(A @ q).max() > 1e-10 * max(1.0, np.abs(A).max()):
            continue
        out.append(q)
    values = [MeasureVector(dict(zip(constraints.leaf_ids, q.tolist())))
              for q in out]
    return values


def sample_martingale_measures(tree: MarketTree, n: int,
                               seed: int = 0) -> list[MeasureVector]:
    """Seeded hit-and-run samples from the martingale polytope.

    Used as the weaker fallback when vertex enumeration exceeds its cap.
    """
    from scipy.linalg import null_space

    mask, q0 = _support_structure(tree)
    A = build_constraints(tree).matrix[:, mask]
    M = np.vstack([A, np.ones((1, int(mask.sum())))])
    Z = null_space(M)
    rng = np.random.default_rng(seed)
    q = q0[mask].copy()
    out = []
    L = tree.n_leaves
    for _ in range(n):
        if Z.shape[1] == 0:
            out.append(q.copy())
            continue
        d = Z @ rng.standard_normal(Z.shape[1])
        hi = np.inf
        lo = -np.inf
        for qi, di in zip(q, d):
            if di > 1e-15:
                hi = min(hi, qi / di)
            elif di < -1e-15:
                lo = max(lo, qi / di)
        t = rng.uniform(0.9 * lo, 0.9 * hi)
        q = np.clip(q - t * d, 0.0, None)
        q /= q.sum()
        out.append(q.copy())
    measures = []
    for qs in out:
        full = np.zeros(L)
        full[mask] = qs
        measures.append(MeasureVector(dict(zip(tree.leaf_ids, full.tolist()))))
    return measures
