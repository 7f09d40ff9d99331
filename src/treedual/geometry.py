"""Linear geometry of the martingale measures of a scenario tree.

A non-negative leaf measure ``mu`` prices the tree's assets without drift iff
``A mu = 0`` where A has one row per (non-leaf node, asset): the coefficient
on leaf ``l`` is the asset's next-period price on the branch containing ``l``
minus the node price, and 0 off the subtree.  Solutions form the cone of
(non-normalized) absolutely continuous martingale measures; its unit-mass
slice is the martingale polytope.  Its feasibility, maximal support (one
boolean pass), an interior point and its extremal expectations come from
one cached backward pass over the nodes' one-step polytopes, with no linear
program; its vertices are enumerated by a double description sweep at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, DomainError, NoMartingaleMeasureError
from .market import MarketTree, TreeLayout, leaf_values, log_masses
from .utility import UtilityPair

VERTEX_CAP_DEFAULT = 10_000


@lru_cache(maxsize=256)
def build_constraints(tree: MarketTree) -> np.ndarray:
    """The read-only matrix A (rows, L) whose non-negative solutions are the
    martingale cone: row ``k * d + i`` is asset i at ``tree.nonleaf_ids[k]``,
    over the leaves in leaf order; see the module docstring."""
    lay, L = tree.layout, tree.n_leaves
    # every level below the root covers all leaves: one (child, leaf) entry each
    c = np.repeat(np.arange(1, len(lay.ids)), (lay.hi - lay.lo)[1:])
    mat = np.zeros((lay.level_starts[-2], tree.n_assets, L))
    mat[lay.parent[c], :, np.tile(np.arange(L), tree.horizon)] = \
        lay.prices[c] - lay.prices[lay.parent[c]]
    mat = mat.reshape(-1, L)
    mat.setflags(write=False)
    return mat


def is_martingale_measure(tree: MarketTree, q, tol: float = 1e-9) -> bool:
    """Direct per-node check: conditional child prices equal the node price,
    under ``q``'s node log masses at the nodes it charges (its expectation
    is NaN, and passes, elsewhere)."""
    ell = tree.log_subtree_sums(log_masses(leaf_values(tree, q)))
    s = tree.layout.prices[:tree.layout.level_starts[-2]]
    gap = np.abs(tree.one_step_expectation(tree.layout.prices, ell) - s).max(axis=1)
    return not np.any(gap > tol * (1.0 + np.abs(s).max(axis=1)))


# -- feasibility (FTAP side) ---------------------------------------------------

_TOL = 1e-12  # rank, residual and weight floor of the rescaled one-step systems


def _one_step_vertices(incr):
    """Vertices of the one-step martingale polytopes of g nodes with m children.

    ``incr`` (g, m, d) holds child minus node prices.  A vertex of {w >= 0,
    sum w = 1, sum_c w_c incr_c = 0} is the unique solution on the at most
    d + 1 children it charges, whose columns (incr_c, 1) are independent
    (Caratheodory).  The increments are rescaled per node and asset (which
    keeps the polytope); for d = 1 the vertices are in closed form
    (:func:`_one_asset_vertices`), for d >= 2 from stacked SVDs
    (:func:`_svd_vertices`).  Returns each vertex's node (position in the
    batch) and child weights, per subset size by node, then by child subset
    in ``combinations`` order.
    """
    scale = np.abs(incr).max(axis=1, keepdims=True)
    x = incr / np.where(scale > 0, scale, 1.0)
    return _one_asset_vertices(x[..., 0]) if x.shape[2] == 1 else _svd_vertices(x)


def _one_asset_vertices(x):
    """The one-step vertices for d = 1 from the rescaled increments x (g, m).

    First each zero-increment child (|x| <= _TOL), with weight 1; then each
    pair of children (i, j) in ``combinations`` order whose weights
    w_i = x_j/(x_j - x_i) and w_j = -x_i/(x_j - x_i) both exceed _TOL, so
    that one child is down and one up, and whose columns (x, 1) keep rank 2
    under the SVD's test: the smaller singular value |x_j - x_i| / s1 above
    _TOL s1, with s1^2 = x_i^2 + x_j^2 + 2 to rounding wherever that binds.
    These are :func:`_svd_vertices`'s tests on one and two children.
    """
    m = x.shape[1]
    gi, ci = np.nonzero(np.abs(x) <= _TOL)
    ones = np.zeros((gi.size, m))
    ones[np.arange(gi.size), ci] = 1.0
    pairs = np.array(list(combinations(range(m), 2)), dtype=np.intp).reshape(-1, 2)
    a, b = x[:, pairs[:, 0]], x[:, pairs[:, 1]]
    with np.errstate(divide="ignore", invalid="ignore"):  # x_i = x_j: no vertex
        wa, wb = b / (b - a), -a / (b - a)
    gj, pj = np.nonzero((wa > _TOL) & (wb > _TOL)
                        & (np.abs(b - a) > _TOL * (a * a + b * b + 2.0)))
    rows = np.zeros((gj.size, m))
    rows[np.arange(gj.size)[:, None], pairs[pj]] = np.stack([wa[gj, pj], wb[gj, pj]], axis=1)
    return np.concatenate([gi, gj]), np.concatenate([ones, rows])


def _svd_vertices(x):
    """The one-step vertices from the rescaled increments x (g, m, d).

    One stacked SVD per subset size gives the rank and the pseudo-inverse
    of every subset of at most d + 1 children of every node; a subset is a
    vertex where its columns are independent and its least-squares weights
    solve the system to _TOL and exceed _TOL.  Serves d >= 2, and d = 1 as
    the test oracle of :func:`_one_asset_vertices`.
    """
    g, m, d = x.shape
    nodes, weights = [], []
    for k in range(1, min(m, d + 1) + 1):
        sub = np.array(list(combinations(range(m), k)))
        M = np.concatenate([x[:, sub], np.ones((g, len(sub), k, 1))], 3).swapaxes(2, 3)
        # one SVD: the rank, and by the pseudo-inverse the least squares of M w = e_d
        u, sv, vt = np.linalg.svd(M, full_matrices=False)
        big = sv > _TOL * sv[..., :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=big)
        w = (vt.swapaxes(2, 3) @ (inv[..., None] * u.swapaxes(2, 3)))[..., -1]
        r = np.einsum("...ij,...j->...i", M, w) - (np.arange(d + 1) == d)
        gi, si = np.nonzero((big.sum(axis=-1) == k)
                            & np.all(np.abs(r) <= _TOL, axis=-1)
                            & np.all(w > _TOL, axis=-1))
        rows = np.zeros((gi.size, m))
        rows[np.arange(gi.size)[:, None], sub[si]] = w[gi, si]
        nodes.append(gi)
        weights.append(rows)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True, eq=False)
class SupportStructure:
    """The valid one-step vertices of a tree, from :func:`_support_structure`.

    Nodes are numbered as in ``MarketTree.layout``: level by level, root
    first and leaves last in leaf order.  Vertex k, of node ``node[k]``, puts
    ``weight[k, j]`` on child ``child[k, j]`` (rows padded with zero
    weights); vertices run by node.
    """

    layout: TreeLayout
    node: np.ndarray
    child: np.ndarray
    weight: np.ndarray

    @cached_property
    def interior(self) -> np.ndarray:
        """A martingale probability positive exactly on the maximal support
        in exact arithmetic; a leaf whose path product underflows reads 0."""
        return self.mixture(np.ones(self.node.size))

    @cached_property
    def live(self) -> np.ndarray:
        """Read-only (N,): the root is live, and a node is live when a valid
        vertex of its live parent charges it (:meth:`one_step` positive)."""
        parent, levels = self.layout.parent, self.layout.level_starts
        live = self.one_step(np.ones(self.node.size)) > 0
        for lo, hi in zip(levels[1:-1], levels[2:]):
            live[lo:hi] &= live[parent[lo:hi]]
        live.setflags(write=False)
        return live

    @cached_property
    def mask(self) -> np.ndarray:
        """The maximal support: the :attr:`live` leaves, in leaf order."""
        return self.live[self.layout.level_starts[-2]:]

    def one_step(self, mix):
        """Per node in layout order, its weight in the mean of its parent's
        vertices weighted by ``mix``; 1 at the root."""
        mix = mix / np.bincount(self.node, mix)[self.node]
        mass = np.bincount(self.child.ravel(), (self.weight * mix[:, None]).ravel(),
                           minlength=self.layout.parent.size)
        mass[0] = 1.0
        return mass

    def mixture(self, mix):
        """Leaf measure multiplying, along each path, the :meth:`one_step`
        weights of ``mix`` (positive on some vertex of every node)."""
        parent, levels = self.layout.parent, self.layout.level_starts
        mass = self.one_step(mix)
        for lo, hi in zip(levels[1:-1], levels[2:]):
            mass[lo:hi] *= mass[parent[lo:hi]]
        return mass[levels[-2]:]

    def extremes(self, u):
        """(min, max) of E_q[u] over martingale probabilities q.

        Backward induction: a node's lower (upper) value is the least
        (greatest) vertex-weighted sum of its children's values.
        """
        levels = self.layout.level_starts
        lo, hi = np.zeros(len(self.layout.ids)), np.zeros(len(self.layout.ids))
        lo[levels[-2]:] = hi[levels[-2]:] = u
        ends = np.searchsorted(self.node, levels)
        for v0, v1 in zip(ends[-3::-1], ends[-2::-1]):  # levels, bottom up
            node, child, weight = self.node[v0:v1], self.child[v0:v1], self.weight[v0:v1]
            starts = np.flatnonzero(np.diff(node, prepend=-1))
            lo[node[starts]] = np.minimum.reduceat((weight * lo[child]).sum(axis=1), starts)
            hi[node[starts]] = np.maximum.reduceat((weight * hi[child]).sum(axis=1), starts)
        return float(lo[0]), float(hi[0])


@lru_cache(maxsize=256)
def _support_structure(tree: MarketTree) -> SupportStructure:
    """One backward pass over the one-step martingale polytopes of the tree.

    A martingale probability multiplies one-step martingale weights along
    each path, so viability, the maximal support, an interior measure and
    extremal expectations decompose node by node (Dalang, Morton &
    Willinger 1990; Follmer & Schied, *Stochastic Finance*, ch. 7).  Leaves
    are viable; a node is viable when one of its vertices
    (:func:`_one_step_vertices`) charges viable children only, and those
    vertices are its valid ones.  The maximal support (``live`` leaves) is
    the set of leaves whose every path step is charged by a valid vertex.  Raises
    :class:`NoMartingaleMeasureError` when the root is not viable.
    """
    lay = tree.layout
    n, inner = len(lay.ids), lay.level_starts[-2]  # nodes below inner are non-leaf
    price, first = lay.prices, lay.first_child  # a node's children are consecutive
    count = np.diff(first, append=n)
    node, weight = [], []
    for m in np.unique(count):
        idx = np.flatnonzero(count == m)
        g, w = _one_step_vertices(price[first[idx, None] + np.arange(m)]
                                  - price[idx, None])
        node.append(idx[g])
        weight.append(np.pad(w, ((0, 0), (0, count.max() - m))))
    by_node = np.argsort(np.concatenate(node), kind="stable")
    node, weight = np.concatenate(node)[by_node], np.concatenate(weight)[by_node]
    child = np.minimum(first[node, None] + np.arange(count.max()), n - 1)

    # levels bottom up: a vertex is valid when its charged children are viable
    viable, valid = np.arange(n) >= inner, np.zeros(node.size, dtype=bool)
    ends = np.searchsorted(node, lay.level_starts)
    for v0, v1 in zip(ends[-3::-1], ends[-2::-1]):
        valid[v0:v1] = np.all(viable[child[v0:v1]] | (weight[v0:v1] == 0), axis=1)
        viable[node[v0:v1][valid[v0:v1]]] = True
    if not viable[0]:
        raise NoMartingaleMeasureError(
            "no absolutely continuous martingale measure exists")
    return SupportStructure(lay, node[valid], child[valid], weight[valid])


def find_equivalent_mm(tree: MarketTree) -> np.ndarray | None:
    """An equivalent martingale probability (L,), or None if none exists.

    Reads the cached pass of :func:`_support_structure`: None exactly when
    some leaf is off the maximal support, else its interior measure (a leaf
    whose path product underflows reads 0).  Raises
    :class:`NoMartingaleMeasureError` when the polytope itself is empty
    (arbitrage regime: even absolutely continuous measures are ruled out).
    """
    geo = _support_structure(tree)
    return geo.interior.copy() if geo.mask.all() else None


# -- entropy ---------------------------------------------------------------------

def relative_entropy(tree: MarketTree, pair: UtilityPair, mu) -> float | np.ndarray:
    """Generalized entropy of ``mu`` against the reference leaf probabilities.

    Expectation of the conjugate applied to the leaf density, with the
    convention that a zero-density leaf contributes V(0) = U(inf); the result
    is +inf iff some term is.  A stack (k, L) of measures gives a (k,) array
    from one evaluation of V, row j bit for bit the entropy of row j alone.
    """
    stack = np.ndim(mu) == 2
    ms = np.asarray(mu, dtype=float) if stack else leaf_values(tree, mu)[None]
    if np.any(ms < 0):
        raise DomainError("measure must be non-negative")
    p = tree.leaf_probability_array
    vals = pair.v(ms / p)
    ent = np.where(np.isfinite(vals).all(axis=1), (vals * p).sum(axis=1), np.inf)
    return ent if stack else float(ent[0])


# -- vertex enumeration -----------------------------------------------------------

_DD_BLOCK = 1 << 20  # meet-by-ray entries per product of the adjacency test


def vertex_enumerate(A: np.ndarray, cap: int = VERTEX_CAP_DEFAULT) -> np.ndarray:
    """All extreme points of the martingale polytope {q >= 0, sum q = 1,
    A q = 0}, by double description, for the matrix A (rows, L) of
    :func:`build_constraints`.

    Sweeps the equality rows through the non-negative orthant's generators,
    combining adjacent positive/negative rays.  Rows enter bottom-up, in
    reverse of :func:`build_constraints` (whose nodes run by time), so each
    node's rows combine only rays already formed inside its subtree and the
    working set stays near the size of the answer; top-down, a 27-leaf
    one-asset tree grows ~650 intermediate rays before settling on 128
    vertices (Fukuda & Prodon, *Double description method revisited*, 1996,
    on row order).  The vertex set does not depend on the order: the final
    polish (:func:`_polish`) depends only on each ray's support, and takes
    each ray's vertex as the null vector of A on that support, from
    batched SVDs over the rays of one support size.  The (positive,
    negative) pairs of a row take the combinatorial adjacency test of
    Fukuda & Prodon (no third ray vanishes on the pair's whole common zero
    set) in blocks, one matrix product of their common zero sets against
    every ray's charged leaves per block.  Raises
    :class:`CapExceededError` as soon as the working set exceeds ``cap``,
    inside a row's pairings as after them (callers fall back to sampling).
    Returns the vertices as a stack (k, L): one unit-mass row per vertex, in
    leaf order, satisfying the constraints to 1e-10; an empty polytope gives
    shape (0, L).
    """
    L = A.shape[1]
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
            # per ray, the leaves it charges: a meet lies in a ray's zero
            # set iff it shares no charged leaf with it
            charged = (~zsets).T.astype(np.float32)
            count, block = zero.size, max(1, _DD_BLOCK // rays.shape[0])
            for first in range(0, plus.size * minus.size, block):
                # a block of (plus, minus) pairs in the pair loop's order
                k = np.arange(first, min(first + block, plus.size * minus.size))
                i, j = plus[k // minus.size], minus[k % minus.size]
                # adjacent iff no ray besides i and j, which both qualify,
                # has every leaf of their meet in its zero set
                inside = (zsets[i] & zsets[j]).astype(np.float32) @ charged == 0
                adjacent = inside.sum(axis=1) == 2
                i, j = i[adjacent], j[adjacent]
                if i.size and count + i.size > cap:   # at the first one over
                    raise CapExceededError(f"vertex candidates exceed cap {cap}",
                                           count=max(count, cap) + 1)
                count += i.size
                r = d[i, None] * rays[j] - d[j, None] * rays[i]
                new_rays.append(r / r.sum(axis=1, keepdims=True))
        rays = np.vstack(new_rays) if new_rays else np.zeros((0, L))
        if rays.shape[0] == 0:
            return rays
        # dedupe: first occurrences, in order, of each rounded row (+ 0.0
        # turns -0.0 into 0.0, which has other bytes)
        first = {}
        for k, row in enumerate(np.round(rays / rays.sum(axis=1, keepdims=True), 12) + 0.0):
            first.setdefault(row.tobytes(), k)
        rays = rays[list(first.values())]
        if rays.shape[0] > cap:
            raise CapExceededError(
                f"vertex candidates exceed cap {cap}", count=rays.shape[0])

    return _polish(A, rays)


def _polish(A: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """The vertices among DD's final rays, each the unit-mass null vector
    of A restricted to the ray's support S.

    A ray is kept iff A_S has nullity exactly 1, counting singular values
    above 1e-10 as rank, and its null vector q has no entry below -1e-12
    and |A q| <= 1e-10 max(1, |A|).  Rays of one support size share batched
    SVDs, in blocks of at most ``_DD_BLOCK`` entries; a stack of fewer than
    |S| rows is padded with zero rows, so that the last right singular
    vector spans the null space.  Returns the vertices in ray order.
    """
    m, L = A.shape
    q = rays / rays.sum(axis=1, keepdims=True)
    supp = q > 1e-12
    size = supp.sum(axis=1)
    keep = np.zeros(len(q), dtype=bool)
    bound = 1e-10 * max(1.0, np.abs(A).max(initial=0.0))
    for s in np.unique(size):
        rows = max(m, s)
        same = np.flatnonzero(size == s)
        step = max(1, _DD_BLOCK // (rows * s))
        for idx in np.split(same, range(step, same.size, step)):
            cols = np.nonzero(supp[idx])[1].reshape(idx.size, s)
            sub = np.zeros((idx.size, rows, s))
            sub[:, :m] = A[:, cols].transpose(1, 0, 2)
            _, sv, vh = np.linalg.svd(sub, full_matrices=False)
            v = np.zeros((idx.size, L))
            with np.errstate(divide="ignore", invalid="ignore"):  # NaN is refused
                qs = vh[:, -1] / vh[:, -1].sum(axis=1, keepdims=True)
                np.put_along_axis(v, cols, np.clip(qs, 0.0, None), axis=1)
                v /= v.sum(axis=1, keepdims=True)
            keep[idx] = ((s - (sv > 1e-10).sum(axis=1) == 1) & ~(qs < -1e-12).any(axis=1)
                         & (np.abs(v @ A.T).max(axis=1, initial=0.0) <= bound))
            q[idx] = v
    return q[keep]


def sample_martingale_measures(tree: MarketTree, n: int, seed: int = 0) -> np.ndarray:
    """Seeded random martingale probabilities on the maximal support, as a
    stack (n, L) of rows in leaf order.

    Each sample multiplies, along the paths, a uniformly random mixture of
    each node's valid one-step vertices (:func:`_support_structure`).  Used
    as the weaker fallback when vertex enumeration exceeds its cap.
    """
    geo = _support_structure(tree)
    rng = np.random.default_rng(seed)
    return np.array([geo.mixture(rng.exponential(size=geo.node.size))
                     for _ in range(n)]).reshape(n, tree.n_leaves)
