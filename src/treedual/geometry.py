"""Linear geometry of the martingale measures of a scenario tree.

A non-negative leaf measure ``mu`` prices the tree's assets without drift iff
``A mu = 0`` where A has one row per (non-leaf node, asset): the coefficient
on leaf ``l`` is the asset's next-period price on the branch containing ``l``
minus the node price, and 0 off the subtree.  Solutions form the cone of
(non-normalized) absolutely continuous martingale measures; its unit-mass
slice is the martingale polytope.  Its feasibility, maximal support and
interior measure (node log masses, from one pass) and its extremal
expectations come from one backward pass over the nodes' one-step
polytopes, with no linear program, kept on the tree for as long as it
lives.  The pass also carries the two
certificates of its maximal support that the verify battery checks on the
prices alone: one-step martingale weights positive on the live children,
and a strategy that gains on every dead leaf and loses nowhere.  The
one-step vertices of one or two assets are in one planar closed form (a
zero increment, an opposite pair or a triangle around 0 by Cramer's rule)
and come from stacked SVDs for more, which stay its test oracle.  The
polytope's vertices are the products of the pass's one-step vertices along
the paths, counted exactly before they are enumerated.  Measures leave the
package as leaf log masses, -inf off their support, which no path product
can underflow; a caller that needs floats exponentiates them at its edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, DomainError, NoMartingaleMeasureError
from .market import MarketTree, TreeLayout, leaf_values, log_masses, per_owner
from .utility import UtilityPair

VERTEX_CAP_DEFAULT = 10_000


@per_owner
def build_constraints(tree: MarketTree) -> np.ndarray:
    """The read-only matrix A (rows, L) whose non-negative solutions are the
    martingale cone: row ``k * d + i`` is asset i at ``tree.nonleaf_ids[k]``,
    over the leaves in leaf order; see the module docstring.  Its rows are
    the strategy columns of the two-power Newton core, laid out for the
    whole tree and every subtree by ``dual._subtree_rows``, the one reader
    on the solve and recovery paths; CLI ``geometry`` and
    :mod:`~treedual.oracle` read the whole of it, and the verify battery
    and :func:`vertex_enumerate` none of it.  Kept on the tree
    (:func:`~treedual.market.per_owner`)."""
    lay, L = tree.layout, tree.n_leaves
    # every level below the root covers all leaves: one (child, leaf) entry each
    c = np.repeat(np.arange(1, len(lay.ids)), (lay.hi - lay.lo)[1:])
    mat = np.zeros((lay.level_starts[-2], tree.n_assets, L))
    mat[lay.parent[c], :, np.tile(np.arange(L), tree.horizon)] = lay.step[c]
    mat = mat.reshape(-1, L)
    mat.setflags(write=False)
    return mat


def is_martingale_measure(tree: MarketTree, q, tol: float = 1e-9) -> bool:
    """Direct per-node check at the nodes ``q`` charges (elsewhere the drift
    is NaN, and passes): each asset's one-step drift under q's node log
    masses is at most ``tol`` of min(``top``, 1 + max|S_n|).  A negative
    mass raises :class:`DomainError`."""
    q = leaf_values(tree, q)
    if np.any(q < 0):
        raise DomainError("measure must be non-negative")
    lay = tree.layout
    drift = np.abs(tree.one_step_expectation(lay.step, tree.log_subtree_sums(log_masses(q))))
    unit = 1.0 + np.abs(lay.prices[:lay.level_starts[-2]]).max(axis=1, keepdims=True)
    return not np.any(drift > tol * np.minimum(lay.top, unit))


# -- feasibility (FTAP side) ---------------------------------------------------

_TOL = 1e-12  # rank, residual and weight floor of the rescaled one-step systems


def _one_step_vertices(incr):
    """Vertices of the one-step martingale polytopes of g nodes with m children.

    ``incr`` (g, m, d) holds child minus node prices.  A vertex of {w >= 0,
    sum w = 1, sum_c w_c incr_c = 0} is the unique solution on the at most
    d + 1 children it charges, whose columns (incr_c, 1) are independent
    (Caratheodory).  The increments are rescaled per node and asset (which
    keeps the polytope); for d <= 2 the vertices are in the planar closed
    form of :func:`_two_asset_vertices`, d = 1 with a zero second asset,
    for d >= 3 from stacked SVDs (:func:`_svd_vertices`).  Returns each
    vertex's node (position in the batch) and child weights, per subset
    size by node, then by child subset in ``combinations`` order.
    """
    scale = np.abs(incr).max(axis=1, keepdims=True)
    x = incr / np.where(scale > 0, scale, 1.0)
    if x.shape[2] == 1:
        x = np.concatenate([x, np.zeros_like(x)], axis=2)
    return _two_asset_vertices(x) if x.shape[2] == 2 else _svd_vertices(x)


@lru_cache(maxsize=None)
def _subsets(m):
    """The pairs (P, 2) and triangles (T, 3) of m children in
    ``combinations`` order, and each triangle's pairs (i, j), (j, l) and
    (i, l) as positions (T, 3) among the pairs."""
    pairs = list(combinations(range(m), 2))
    at = {pair: n for n, pair in enumerate(pairs)}
    tri = list(combinations(range(m), 3))
    return (np.array(pairs, dtype=np.intp).reshape(-1, 2),
            np.array(tri, dtype=np.intp).reshape(-1, 3),
            np.array([(at[i, j], at[j, l], at[i, l]) for i, j, l in tri],
                     dtype=np.intp).reshape(-1, 3))


def _stacked(m, *blocks):
    """The nodes and weight rows (on m children) of the vertices, block by
    block: a block (ok, sub, w) has subset j of node i, the children
    ``sub[j]`` with the weights ``w[i, j]``, where ``ok[i, j]``; a block
    without ``sub`` has child j itself, with weight 1."""
    nodes, rows = [], []
    for ok, sub, w in blocks:
        gi, si = np.nonzero(ok)
        row = np.zeros((gi.size, m))
        if sub is None:
            row[np.arange(gi.size), si] = 1.0
        else:
            row[np.arange(gi.size)[:, None], sub[si]] = w[gi, si]
        nodes.append(gi)
        rows.append(row)
    return np.concatenate(nodes), np.concatenate(rows)


def _two_asset_vertices(x):
    """The one-step vertices for d = 2 from the rescaled increments x
    (g, m, 2), under :func:`_svd_vertices`'s rank, residual and weight tests
    to rounding wherever those bind.  A vertex is one of three shapes:

    * a zero increment (|x| <= _TOL in both assets), with weight 1;
    * an opposite pair (a, b), collinear to rounding.  Its least-squares
      weights, by Cramer's rule on the normal equations, whose determinant
      is det = (a x b)^2 + |b - a|^2 = s1^2 s2^2, are w_a = b.(b - a)/det
      and w_b = -a.(b - a)/det, both above _TOL.  Its residual, (a x b)
      (b - a)^perp/det on the asset rows and (a x b)^2/det on the sum row,
      is at most _TOL.  Its rank test is s2 > _TOL s1, det > (_TOL s1^2)^2
      with s1^2 the trace |a|^2 + |b|^2 + 2 to rounding wherever it binds;
    * a triangle (a, b, c) that holds 0, with the barycentric weights
      (b x c, c x a, a x b)/D, D = det [x; 1] = s1 s2 s3, all above _TOL.
      Its rank test is s3 > _TOL s1, D^2 > _TOL^2 s1^2 c2: c2, the sum of
      its three pairs' det, is s1^2 s2^2 and s1^2 the larger root of
      s^2 - trace s + c2 up to terms in s3^2, so to rounding wherever the
      test binds, unless s2 is as small as s3 (three children within
      ~_TOL of one point, which are zero increments near 0).

    With a zero second asset (d = 1), a x b = 0 gives a pair the weights
    b/(b - a) and -a/(b - a) with no residual, and D = 0 no triangle.
    """
    m = x.shape[1]
    pairs, tri, sides = _subsets(m)
    X, Y = x[..., 0], x[..., 1]
    ax, ay, bx, by = X[:, pairs[:, 0]], Y[:, pairs[:, 0]], X[:, pairs[:, 1]], Y[:, pairs[:, 1]]
    dx, dy = bx - ax, by - ay
    cross = ax * by - ay * bx
    det = cross * cross + dx * dx + dy * dy
    norm = X * X + Y * Y
    trace = norm[:, pairs[:, 0]] + norm[:, pairs[:, 1]] + 2.0
    c_ab, c_bc, c_ac = (cross[:, sides[:, i]] for i in range(3))
    big_d = c_ab + c_bc - c_ac
    c2 = det[:, sides].sum(axis=2)
    trace3 = norm[:, tri].sum(axis=2) + 3.0
    s1_sq = 0.5 * (trace3 + np.sqrt(np.maximum(trace3 * trace3 - 4.0 * c2, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):   # det = 0 or D = 0: no vertex
        w2 = np.stack([bx * dx + by * dy, -(ax * dx + ay * dy)], axis=2) / det[..., None]
        res = np.abs(cross) * np.maximum(np.maximum(np.abs(dx), np.abs(dy)),
                                         np.abs(cross)) / det
        w3 = np.stack([c_bc, -c_ac, c_ab], axis=2) / big_d[..., None]
    return _stacked(m, (np.maximum(np.abs(X), np.abs(Y)) <= _TOL, None, None),
                    ((w2 > _TOL).all(axis=2) & (res <= _TOL) & (det > (_TOL * trace) ** 2),
                     pairs, w2),
                    ((w3 > _TOL).all(axis=2) & (big_d * big_d > _TOL * _TOL * s1_sq * c2),
                     tri, w3))


def _svd_vertices(x):
    """The one-step vertices from the rescaled increments x (g, m, d).

    One stacked SVD per subset size gives the rank and the pseudo-inverse
    of every subset of at most d + 1 children of every node; a subset is a
    vertex where its columns are independent and its least-squares weights
    solve the system to _TOL and exceed _TOL.  Serves d >= 3, and d <= 2
    as the test oracle of :func:`_two_asset_vertices`.
    """
    g, m, d = x.shape
    blocks = []
    for k in range(1, min(m, d + 1) + 1):
        sub = np.array(list(combinations(range(m), k)))
        M = np.concatenate([x[:, sub], np.ones((g, len(sub), k, 1))], 3).swapaxes(2, 3)
        # one SVD: the rank, and by the pseudo-inverse the least squares of M w = e_d
        u, sv, vt = np.linalg.svd(M, full_matrices=False)
        big = sv > _TOL * sv[..., :1]
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=big)
        w = (vt.swapaxes(2, 3) @ (inv[..., None] * u.swapaxes(2, 3)))[..., -1]
        r = np.einsum("...ij,...j->...i", M, w) - (np.arange(d + 1) == d)
        blocks.append(((big.sum(axis=-1) == k) & np.all(np.abs(r) <= _TOL, axis=-1)
                       & np.all(w > _TOL, axis=-1), sub, w))
    return _stacked(m, *blocks)


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
    def step_weights(self) -> np.ndarray:
        """Read-only (N,): the equivalent-measure certificate, :meth:`one_step`
        of equal weights.  At each node, its children's weights in the mean
        of its valid vertices: a one-step martingale probability, positive
        exactly on the children a valid vertex charges; the conditional form
        of :attr:`log_interior`."""
        w = self.one_step(np.ones(self.node.size))
        w.setflags(write=False)
        return w

    @cached_property
    def arbitrage(self) -> np.ndarray:
        """Read-only (n, d) on the non-leaf nodes: the arbitrage certificate
        of :func:`_arbitrage`, a strategy whose gains are 0 on the live
        leaves and positive on the others; all zeros when every leaf is
        live."""
        h = _arbitrage(self)
        h.setflags(write=False)
        return h

    @cached_property
    def log_interior(self) -> np.ndarray:
        """Read-only (N,): the interior measure's node log masses, the path
        sums of ln :attr:`step_weights`: 0 at the root, finite exactly on
        the :attr:`live` nodes, with no path product to underflow."""
        ell = self.layout.path_sums(log_masses(self.step_weights))
        ell.setflags(write=False)
        return ell

    @cached_property
    def live(self) -> np.ndarray:
        """Read-only (N,): the root is live, and a node is live when a valid
        vertex of its live parent charges it, :attr:`log_interior` > -inf."""
        live = self.log_interior > -np.inf
        live.setflags(write=False)
        return live

    @cached_property
    def complete(self) -> bool:
        """Whether every live non-leaf node has one valid vertex: then the
        martingale measure on the live leaves is unique, and it is the
        interior measure exp(:attr:`log_interior`)."""
        inner = self.layout.level_starts[-2]
        count = np.bincount(self.node, minlength=inner)[:inner]
        return bool((count[self.live[:inner]] == 1).all())

    @cached_property
    def mask(self) -> np.ndarray:
        """The maximal support: the :attr:`live` leaves, in leaf order."""
        return self.live[self.layout.level_starts[-2]:]

    @property
    def _memo(self):
        """The store of :func:`~treedual.market.per_owner` on this structure:
        its instance dict, where the cached properties live too."""
        return self.__dict__

    def one_step(self, mix):
        """Per node in layout order, its weight in the mean of its parent's
        vertices weighted by ``mix``; 1 at the root."""
        mix = mix / np.bincount(self.node, mix)[self.node]
        mass = np.bincount(self.child.ravel(), (self.weight * mix[:, None]).ravel(),
                           minlength=self.layout.parent.size)
        mass[0] = 1.0
        return mass

    @cached_property
    def _level_runs(self):
        """Per non-leaf level, bottom up: its vertices' children and
        weights, the start of each node's run of vertices within them, and
        the nodes of those runs."""
        ends = np.searchsorted(self.node, self.layout.level_starts)
        out = []
        for v0, v1 in zip(ends[-3::-1], ends[-2::-1]):
            node = self.node[v0:v1]
            starts = np.flatnonzero(np.diff(node, prepend=-1))
            out.append((self.child[v0:v1], self.weight[v0:v1], starts, node[starts]))
        return tuple(out)

    def extremes(self, u):
        """Per node, the (min, max) of E_q[u | n] over martingale
        probabilities q: two (N,) arrays in layout order.

        Backward induction: a node's lower (upper) value is the least
        (greatest) vertex-weighted sum of its children's values, so it is
        exact for every measure at once.  Leaves read ``u``; a node without
        a valid vertex (no martingale measure on its subtree) reads 0.
        """
        levels = self.layout.level_starts
        lo, hi = np.zeros(len(self.layout.ids)), np.zeros(len(self.layout.ids))
        lo[levels[-2]:] = hi[levels[-2]:] = u
        for child, weight, starts, node in self._level_runs:
            lo[node] = np.minimum.reduceat((weight * lo[child]).sum(axis=1), starts)
            hi[node] = np.maximum.reduceat((weight * hi[child]).sum(axis=1), starts)
        return lo, hi


def _arbitrage(geo: SupportStructure) -> np.ndarray:
    """A strategy (n, d) whose gains are >= 0 on every leaf, 0 on the live
    leaves and at least 1 on the others (by the FTAP on finite trees:
    Harrison & Pliska 1981; Dalang, Morton & Willinger 1990).

    Two kinds of node trade, by a one-step separator of
    :func:`_separators` that gains at least 1 on the children it must gain
    on: a live node with a viable child off the maximal support gains 0 on
    its live children and on those at least 1 (strict complementarity: a
    viable child no valid vertex charges is cut off by a face of the
    one-step cone), and a non-viable node, whose viable children admit no
    one-step martingale weights, gains on all of them (Gordan's
    alternative).  Other nodes hold nothing.  A separator reads the layout's
    view: the ``step`` of the node's ``kids``, per asset over ``top``.  Top
    down, a non-viable node's separator is scaled by f = 2 max(0, -s) +
    f_parent, where s is its parent's one-step gain into it and f = 1 at
    viable nodes, so that every leaf below it gains at least f_parent from
    its parent's step on.  A leaf off the maximal support leaves the live
    nodes once, into a viable child (gain at least 1, and nothing below
    subtracts) or a non-viable one (gain at least 1 after the cover).
    """
    lay = geo.layout
    n, inner, kids, on = len(lay.ids), lay.level_starts[-2], lay.kids, lay.on
    viable, live = np.arange(n) >= inner, geo.live
    viable[geo.node] = True
    gain = on & viable[kids] & ((live[:inner, None] & ~live[kids]) | ~viable[:inner, None])
    h = np.zeros((inner, lay.prices.shape[1]))
    node = np.flatnonzero(gain.any(axis=1))
    if node.size == 0:
        return h
    incr = np.where(on[node, :, None], lay.step[kids[node]], 0.0) / lay.top[node, None]
    h[node] = _separators(incr, (on & live[kids])[node], gain[node]) / lay.top[node]
    f = np.ones(n)
    for a, b in zip(lay.level_starts[1:-2], lay.level_starts[2:-1]):
        par = lay.parent[a:b]
        s = np.einsum("nd,nd->n", h[par], lay.step[a:b])
        f[a:b] = np.where(viable[a:b], 1.0, 2.0 * np.maximum(-s, 0.0) + f[par])
        h[a:b] *= f[a:b, None]
    return h


def _separators(x, zero, gain):
    """Per node, a direction k (g, d) with k.x_c = 0 on the children
    ``zero`` (g, m) and k.x_c >= 1 on the children ``gain``, for the
    rescaled increments x (g, m, d); NaN where none is found.

    Node by node on the directions orthogonal to the ``zero`` increments
    (an SVD, singular values up to _TOL dropped), where the ``gain``
    increments lie in an open half-space: one small linear program
    (:func:`~treedual.simplex.solve_lp`, least l1 norm) finds a direction
    gaining at least 1 on each, scaled to gain exactly 1 on its
    least-gaining ``gain`` child.
    """
    from .simplex import solve_lp   # SciPy, only for a degenerate market
    out = np.full((x.shape[0], x.shape[2]), np.nan)
    for i, (xi, zi, gi) in enumerate(zip(x, zero, gain)):
        basis = np.eye(x.shape[2])
        if zi.any():
            _, sv, vt = np.linalg.svd(xi[zi])
            basis = vt[np.count_nonzero(sv > _TOL):].T
        y, k = xi[gi] @ basis, basis.shape[1]
        if k == 0:
            continue
        lp = solve_lp(np.r_[np.ones(2 * k), np.zeros(len(y))],
                      np.hstack([y, -y, -np.eye(len(y))]), np.ones(len(y)))
        if lp.status != "optimal":
            continue
        u = lp.x[:k] - lp.x[k:2 * k]
        least = (y @ u).min()
        if least > 0:
            out[i] = basis @ u / least
    return out


@per_owner
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
    :class:`NoMartingaleMeasureError` when the root is not viable.  Kept on
    the tree (:func:`~treedual.market.per_owner`; an error is not), and what
    is derived from it on the structure, so all of it goes with the tree.
    """
    lay = tree.layout
    n, inner = len(lay.ids), lay.level_starts[-2]  # nodes below inner are non-leaf
    count, width = lay.on.sum(axis=1), lay.kids.shape[1]
    node, weight = [], []
    for m in np.unique(count):
        idx = np.flatnonzero(count == m)
        g, w = _one_step_vertices(lay.step[lay.kids[idx, :m]])
        node.append(idx[g])
        weight.append(np.pad(w, ((0, 0), (0, width - m))))
    by_node = np.argsort(np.concatenate(node), kind="stable")
    node, weight = np.concatenate(node)[by_node], np.concatenate(weight)[by_node]
    child = lay.kids[node]

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
    """The leaf log masses (L,) of an equivalent martingale probability, or None.

    Reads the tree's pass of :func:`_support_structure`: None exactly when
    some leaf is off the maximal support, else a copy of its finite
    ``log_interior`` on the leaves (exact where exp of it underflows).  Raises
    :class:`NoMartingaleMeasureError` when the polytope itself is empty
    (arbitrage regime: even absolutely continuous measures are ruled out).
    """
    geo = _support_structure(tree)
    return geo.log_interior[-tree.n_leaves:].copy() if geo.mask.all() else None


# -- entropy ---------------------------------------------------------------------

def relative_entropy(tree: MarketTree, pair: UtilityPair, mu, terms=None) -> float:
    """Generalized entropy of ``mu`` against the reference leaf probabilities.

    Expectation of the conjugate applied to the leaf density, with the
    convention that a zero-density leaf contributes V(0) = U(inf); the result
    is +inf iff some term is.  ``terms``, the leaf terms p V(mu/p) if
    already formed (``DualSolution.entropy_terms``), are summed rather than
    formed again.
    """
    m = leaf_values(tree, mu)
    if np.any(m < 0):
        raise DomainError("measure must be non-negative")
    p = tree.leaf_probability_array
    if terms is None:
        terms = p * pair.v(m / p)
    return float(terms.sum()) if np.isfinite(terms).all() else np.inf


# -- vertex enumeration -----------------------------------------------------------

def vertex_enumerate(tree: MarketTree, cap: int = VERTEX_CAP_DEFAULT) -> np.ndarray:
    """All extreme points of the martingale polytope {q >= 0, sum q = 1,
    A q = 0} of ``tree`` (A of :func:`build_constraints`).

    A martingale probability multiplies one-step martingale weights along
    each path, so the vertices are exactly the products, along the paths,
    of the valid one-step vertices of :func:`_support_structure` (Dalang,
    Morton & Willinger 1990): a vertex at the root and, below each child
    it charges, one vertex of that child's subtree.  One backward pass
    first counts them exactly, in Python integers: a leaf has one, and a
    node the sum over its valid vertices of the product of the counts of
    the children each charges.  Above ``cap`` it raises
    :class:`CapExceededError` with that count.  Otherwise a second
    backward pass crosses, at each live node, the rows of the children
    each valid vertex charges over the node's leaf slice, adding log
    weights.  No entry floor applies beyond the one-step weights' own, so
    a vertex keeps an entry near 1e-20
    (``product_market([[1e5, 0.99999]] * 2)``), and one whose path product
    underflows.  Serves CLI ``geometry``,
    :mod:`~treedual.oracle` and the tests, which exponentiate the rows.
    Returns the vertices' leaf log masses as a stack (k, L): one row per
    vertex, in leaf order, -inf off its support, of unit mass to rounding;
    an empty polytope gives shape (0, L).
    """
    try:
        geo = _support_structure(tree)
    except NoMartingaleMeasureError:
        return np.zeros((0, tree.n_leaves))
    lay = geo.layout
    inner = lay.level_starts[-2]
    count = np.ones(len(lay.ids), dtype=object)
    for child, weight, starts, node in geo._level_runs:
        count[node] = np.add.reduceat(np.where(weight > 0, count[child], 1).prod(axis=1),
                                      starts)
    if count[0] > cap:
        raise CapExceededError(f"{count[0]} vertices exceed cap {cap}", count=count[0])
    rows = [np.zeros((1, 1))] * len(lay.ids)  # leaves keep theirs, ln 1
    ends = np.searchsorted(geo.node, np.arange(inner + 1))
    for n in np.flatnonzero(geo.live[:inner])[::-1]:
        lo, width = lay.lo[n], lay.hi[n] - lay.lo[n]
        blocks = []
        for child, weight in zip(geo.child[ends[n]:ends[n + 1]],
                                 geo.weight[ends[n]:ends[n + 1]]):
            block = np.full((1, width), -np.inf)
            for c, w in zip(child[weight > 0], weight[weight > 0]):
                below = rows[c]   # every row of the block, with every row below c
                block = np.repeat(block, len(below), axis=0)
                block[:, lay.lo[c] - lo:lay.hi[c] - lo] = np.tile(
                    np.log(w) + below, (len(block) // len(below), 1))
            blocks.append(block)
        rows[n] = np.vstack(blocks)
    return rows[0]
