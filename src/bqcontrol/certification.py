"""Controllability certification for truncated generator pairs.

The checks mirror the sufficient conditions for approximate controllability:
coupling-graph connectedness, pairwise-distinct spectral gaps, bounded-search
nonresonance of the gap vector, and the Lie-algebra rank condition, plus a
perturbative certificate built from the diagonal couplings.  Every verdict is
evidence-carrying: a refutation names a concrete witness (an integer relation,
an invariant index set, or a pair of colliding gaps), and bounded searches
never claim more than "nothing found within the bounds".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_array, _check_int, _check_real, commutator
from .models import Record, truncate

__all__ = [
    "ConnectednessReport",
    "FrequentConnectedness",
    "RelationVerdict",
    "GapDistinctness",
    "LieRankResult",
    "ConstructiveGenerators",
    "PerturbationCertificate",
    "CertificationReport",
    "connectedness",
    "frequently_connected",
    "nonresonance",
    "pairwise_gap_distinct",
    "lie_rank",
    "constructive_generators",
    "perturbation_certificate",
    "certify",
]

EDGE_THRESHOLD = 1e-12
GAP_TOL = 1e-9
DENOM_ATOL = 1e-12  # least Lagrange denominator of constructive_generators
# full exhaustive enumeration only below this many candidate vectors
EXHAUSTIVE_BUDGET = 3.0e7
_CELLS = 1 << 14  # products or kept pairs per block of a relation scan


# ---------------------------------------------------------------------------
# verdict records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectednessReport(Record):
    connected: bool
    invariant_set: tuple | None  # smallest component when disconnected
    threshold: float


@dataclass(frozen=True)
class FrequentConnectedness(Record):
    first_connected_order: int | None
    holds_up_to_data: bool
    levels_searched: int


@dataclass(frozen=True)
class RelationVerdict(Record):
    # "relation_found" | "none_found_within_bounds" | "inconclusive_precision"
    status: str
    relation: tuple | None
    q_max: int
    tolerance: float
    gaps: tuple
    method: str
    floor: float  # Q ||g||_1 / ((Q+1)^m - 1), see _pigeonhole_floor
    residual: float | None = None

    @property
    def found(self):
        return self.status == "relation_found"


@dataclass(frozen=True)
class GapDistinctness(Record):
    ok: bool
    violations: tuple  # ((j, k), (l, m)) index pairs with colliding |gaps|
    tolerance: float
    scale: float


@dataclass(frozen=True)
class LieRankResult(Record):
    rank: int
    dimension: int  # ambient dim of u(n) = n^2
    contains_su: bool
    stabilized: bool
    depth_reached: int
    max_depth: int
    method: str = "closure"  # "closure" | "gap_graph"
    tree: tuple | None = None  # gap_graph: the spanning tree, (j, k) edges


@dataclass(frozen=True)
class ConstructiveGenerators:
    E: np.ndarray
    F: np.ndarray
    N: np.ndarray
    residual: float


@dataclass(frozen=True)
class PerturbationCertificate(Record):
    status: str  # "almost_every_mu" | "refuted" | "inconclusive"
    diagonal: tuple
    relation: RelationVerdict
    frequent: FrequentConnectedness


@dataclass(frozen=True)
class CertificationReport(Record):
    order: int
    overall: str  # "certified" | "refuted" | "inconclusive"
    connected: ConnectednessReport
    nonresonant_gaps: RelationVerdict
    pairwise_gaps_distinct: GapDistinctness
    lie_rank: LieRankResult
    perturbation: PerturbationCertificate
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# connectedness
# ---------------------------------------------------------------------------


def connectedness(W):
    """Connectivity of the coupling graph (edges |W[j][k]| > EDGE_THRESHOLD).

    A disconnected graph yields an invariant index set: the smallest connected
    component (ties broken by lowest index), which spans a subspace the
    dynamics can never leave.  Complex couplings count through |W|.  Raises
    ValueError unless W is a finite square matrix.
    """
    W = _check_array(W, "W", complex, square=True)
    n = W.shape[0]
    adj = (np.abs(W) > EDGE_THRESHOLD) | np.eye(n, dtype=bool)
    adj |= adj.T  # an edge in either direction joins two levels
    # label propagation: each node takes the least label among itself and its
    # neighbours, then the label of that label (pointer jumping); a label
    # never exceeds its node, so the fixed point labels every component by
    # its lowest index
    labels = np.arange(n)
    while True:
        new = np.where(adj, labels, n).min(axis=1, initial=n)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    roots = np.flatnonzero(labels == np.arange(n))
    if roots.size <= 1:
        return ConnectednessReport(True, None, EDGE_THRESHOLD)
    sizes = np.bincount(labels)[roots]
    root = roots[np.argmin(sizes)]  # the first smallest: lowest index on ties
    witness = tuple(np.flatnonzero(labels == root).tolist())
    return ConnectednessReport(False, witness, EDGE_THRESHOLD)


def frequently_connected(sys, n):
    """First truncation order >= n whose coupling matrix is connected.

    Edges are couplings above EDGE_THRESHOLD.  Only the stored levels can be
    inspected, so a positive verdict means "holds up to the stored data",
    never a claim about the infinite family.
    """
    n = _check_int(n, "order", 2, sys.levels)
    for k in range(n, sys.levels + 1):
        if connectedness(sys.W[:k, :k]).connected:
            return FrequentConnectedness(k, True, sys.levels)
    return FrequentConnectedness(None, False, sys.levels)


# ---------------------------------------------------------------------------
# nonresonance
# ---------------------------------------------------------------------------


def _relation_ok(gaps, q, tol, gnorm):
    q = np.asarray(q, dtype=float)
    r = abs(float(np.dot(q, gaps)))
    return r <= tol * gnorm * math.sqrt(float(np.dot(q, q))), r


def _vector(m, support, coeffs):
    """The integer m-vector with coeffs on support and zeros elsewhere."""
    q = np.zeros(m, dtype=int)
    q[np.asarray(support, dtype=int)] = coeffs
    return q


def _range_pairs(rs, lsum, reach):
    """Every (a, j) with -reach - lsum[a] <= rs[j] <= reach - lsum[a], found
    by two searchsorted calls on the sorted rs and yielded in (a, j) order,
    as index arrays of at most _CELLS pairs each."""
    shift = np.searchsorted(rs, -reach - lsum, side="left")
    end = np.cumsum(np.searchsorted(rs, reach - lsum, side="right") - shift)
    shift[1:] -= end[:-1]  # pair p of the scan meets rs[p + shift[a]]
    for start in range(0, int(end[-1]), _CELLS):
        p = np.arange(start, min(start + _CELLS, int(end[-1])))
        a = np.searchsorted(end, p, side="right")
        p += shift[a]
        yield a, p


def _scan_support(gaps, support, Q, tol, gnorm):
    """Best admissible relation supported exactly on `support`, or None.

    Coefficients run over nonzero integers with the first support coordinate
    positive (sign normalization): Q (2Q)^(s-1) candidate vectors on a
    support of size s.  A candidate q is a hit when r <= tol ||g||_2 ||q||_2,
    with r = |(...(q_1 g_1 + q_2 g_2) + ...) + q_s g_s| summed left to right.
    Returns the hit minimizing (max |q_i|, lexicographic coefficients).

    Meet in the middle (Horowitz & Sahni 1974): the partial sums of the left
    half of the support (the positive axis and the next ceil(s/2) - 1 axes)
    and of the right half are enumerated separately, the right sums sorted,
    and _range_pairs keeps the pairs whose total lies within the reach: the
    largest threshold tol ||g||_2 Q sqrt(s) plus a rounding slack
    4 s eps Q sum|g_i|.  Splitting the sum changes its rounding by at most
    about (s - 1) eps Q sum|g_i|, so the kept pairs hold every hit; each is
    re-tested with the left-to-right sum above.  Work and memory are
    O((2Q)^ceil(s/2) log Q) plus the hits, not the (2Q)^s grid.
    """
    g = gaps[list(support)]
    s = g.size
    h = (s + 1) // 2
    pos = np.arange(1, Q + 1, dtype=float)
    signed = np.concatenate([np.arange(-Q, 0), np.arange(1, Q + 1)]).astype(float)

    def half(axes, coeffs):
        cols = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
        total = np.zeros(cols[0].size if cols else 1)
        for col, gi in zip(cols, coeffs):
            total = total + col * gi
        return cols, total

    lcols, lsum = half([pos] + [signed] * (h - 1), g[:h])
    rcols, rsum = half([signed] * (s - h), g[h:])

    # no candidate's threshold exceeds the one at ||q||_2 = Q sqrt(s); the
    # factor 1 + 4 eps covers the rounding of this line itself
    eps = np.finfo(float).eps
    slack = 4 * s * eps * Q * float(np.sum(np.abs(g)))
    reach = (tol * gnorm * np.sqrt(float(Q * Q * s)) + slack) * (1 + 4 * eps)
    order = np.argsort(rsum, kind="stable")
    hits = [np.empty((s, 0))]
    for li, j in _range_pairs(rsum[order], lsum, reach):
        ri = order[j]
        vals = [col[li] for col in lcols] + [col[ri] for col in rcols]
        resid = np.zeros(li.size)
        normsq = np.zeros(li.size)
        for v, gi in zip(vals, g):
            resid = resid + v * gi
            normsq = normsq + v**2
        mask = np.abs(resid) <= tol * gnorm * np.sqrt(normsq)
        hits.append(np.stack([v[mask] for v in vals]))
    hits = np.concatenate(hits, axis=1)  # (s, hits)
    if not hits.size:
        return None
    # least max |q_i| first, then lexicographic (lexsort's last key leads)
    best = np.lexsort(np.vstack([hits[::-1], np.abs(hits).max(axis=0)]))[0]
    return _vector(len(gaps), support, hits[:, best])


@np.errstate(over="ignore")  # thresholds past the doubles are inf
def _short_supports(gaps, Q, tol, gnorm):
    """_exhaustive(gaps, Q, tol, gnorm, (1, 2)), over all supports at once.

    Both stages walk l = q_1 g_i (q_1 = 1..Q) row-major in (i, q_1), in
    blocks of _CELLS.  Size 1: sqrt(q_1^2) = q_1 exactly, so the first l with
    |l| <= tol ||g||_2 q_1 is the first support's hit at its least q_1.
    Size 2: the products r = q_2 g_k (q_2 = +-1..+-Q) of every k are sorted
    once, and _range_pairs keeps the r within R = T (1 + 4 eps) of -l,
    T = tol ||g||_2 Q sqrt(2) being the largest threshold.  A kept pair with
    k > i is re-tested with the sum (0 + l) + r and threshold of
    _scan_support.  A hit's computed sum is at most T, so its exact sum
    l + r at most T (1 + eps) < R; and as the range query and the test use
    the same doubles l and r, and rounding is monotone, every r with
    |l + r| <= R is kept.  The least hit in (i, k, max |q|, q_1, q_2),
    _exhaustive's order, is the witness; pairs come row by row, so the scan
    ends past its row, or once that hit has k = i + 1 at a block whose first
    q_1 exceeds its max |q|: every later pair of the row has k >= i + 1 and
    max |q| >= q_1.
    """
    m = gaps.size
    thr = tol * gnorm

    def rows():  # i, q_1 and q_1 g_i of each block, row-major in (i, q_1)
        for start in range(0, m * Q, _CELLS):
            i, q1 = np.divmod(np.arange(start, min(start + _CELLS, m * Q)), Q)
            q1 = q1 + 1.0
            yield i, q1, q1 * gaps[i]

    for i, q1, lsum in rows():
        hit = np.abs(lsum) <= thr * q1
        if hit.any():
            a = hit.argmax()
            return _vector(m, [i[a]], [q1[a]])
    if m == 1:
        return None

    # R = T (1 + 4 eps), T the largest threshold (see above)
    reach = thr * np.sqrt(float(2 * Q * Q)) * (1 + 4 * np.finfo(float).eps)
    signed = np.concatenate([np.arange(-Q, 0), np.arange(1, Q + 1)]).astype(float)
    rs = (signed * gaps[:, None]).ravel()  # q_2 g_k at k 2Q + (index of q_2)
    order = np.argsort(rs, kind="stable")
    rs = rs[order]
    best = None  # (i, k, max |q|, q_1, q_2) of the least hit so far
    for i, q1, lsum in rows():
        for a, j in _range_pairs(rs, lsum, reach):
            if best is not None and (i[a[0]] > best[0] or (
                    best[1] == best[0] + 1 and q1[a[0]] > best[2])):
                return _vector(m, best[:2], best[3:])
            k, c = np.divmod(order[j], 2 * Q)
            q1a, q2a = q1[a], signed[c]
            hit = np.abs(lsum[a] + rs[j]) <= thr * np.sqrt(q1a**2 + q2a**2)
            t = np.flatnonzero(hit & (k > i[a]))
            if t.size:
                key = (i[a], k, np.maximum(q1a, np.abs(q2a)), q1a, q2a)
                t = t[np.lexsort([col[t] for col in key[::-1]])[0]]
                key = tuple(col[t] for col in key)
                best = key if best is None else min(best, key)
    return None if best is None else _vector(m, best[:2], best[3:])


def _exhaustive(gaps, Q, tol, gnorm, sizes):
    m = len(gaps)
    for size in sizes:
        for support in itertools.combinations(range(m), size):
            q = _scan_support(gaps, support, Q, tol, gnorm)
            if q is not None:
                return q
    return None


def _as_integers(values):
    """(m, d) with values[i] == m[i] / d exactly: each double is an integer
    over a power of two, and d is the largest of those powers."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    d = max(di for _, di in ratios)
    return [n * (d // di) for n, di in ratios], d


def _pigeonhole_floor(gaps, Q, tol):
    """(F, F <= tol ||g||_2) for the floor F = Q ||g||_1 / ((Q+1)^m - 1).

    The (Q+1)^m vectors of {0..Q}^m put their sums q.g into an interval of
    length Q ||g||_1, so two of them lie within F of each other, and their
    difference, a nonzero q with ||q||_inf <= Q, has |q.g| <= F.  Since
    ||q||_2 >= 1, F <= tol ||g||_2 makes such a relation meet the criterion
    of nonresonance whatever the gaps are.  Evaluated in exact integers:
    (Q+1)^m overflows a double from m = 207 at Q = 30.
    """
    g, d = _as_integers(np.abs(gaps))  # g[i] == d |g_i| exactly
    spread = Q * sum(g)  # d Q ||g||_1
    pairs = (Q + 1) ** len(g) - 1
    tn, td = tol.as_integer_ratio()
    forced = (spread * td) ** 2 <= (tn * pairs) ** 2 * sum(v * v for v in g)
    return spread / (d * pairs), forced  # int division rounds correctly


def _pslq(gaps, Q, tol, gnorm):
    import mpmath  # only PSLQ needs it: other commands skip its import
    with mpmath.workdps(40):
        try:
            rel = mpmath.pslq(
                [mpmath.mpf(g) for g in gaps],
                tol=mpmath.mpf(max(tol * gnorm, 1e-30)),
                maxcoeff=int(Q),
                maxsteps=20000,
            )
        except ValueError:
            rel = None
    if rel is None:
        return None
    q = np.array([int(v) for v in rel])
    if not q.any() or np.max(np.abs(q)) > Q:
        return None
    nz = q[q != 0]
    if nz[0] < 0:
        q = -q
    return q


def nonresonance(gaps, Q=30, tol=GAP_TOL):
    """Bounded search for an integer relation sum_i q_i g_i ~ 0.

    A candidate q (nonzero, ||q||_inf <= Q) counts as a relation when
    |sum q_i g_i| <= tol * ||g||_2 * ||q||_2.  Supports of size <= 2 are
    scanned first, all supports of one size at once (see _short_supports).
    If they hold no relation and the pigeonhole floor
    F = Q ||g||_1 / ((Q+1)^m - 1) is at most tol * ||g||_2, a relation exists
    for any m gaps (see _pigeonhole_floor), so a hit would say nothing about
    these ones: the search stops with status "inconclusive_precision".
    Otherwise, when the full candidate set, (2Q+1)^m vectors, is at most
    EXHAUSTIVE_BUDGET, the larger supports are scanned in canonical order
    (support size, support indices, max |q_i|, lexicographic), so the
    reported witness is the simplest one; beyond it PSLQ searches the rest.
    Each larger support is scanned on its own (see _scan_support).  Both
    scans meet left partial sums with sorted right ones by the range query
    of _range_pairs, and both report exactly the hits of the full grid.
    Every verdict carries F as its floor, and no verdict claims
    more than "none found within bounds".

    ||g||_2 is numpy's norm; only where its sum of squares overflows is it
    taken as max|g_i| ||g / max|g_i|||_2, so entries past 1e154 are accepted.
    Raises ValueError for non-finite gaps, a 2 Q ||g||_1 that overflows (it
    bounds every relation sum twice over, so no scan overflows), a tol that
    is negative or not finite, and a Q whose largest support scan would
    exceed EXHAUSTIVE_BUDGET candidate vectors (2Q+1 for one gap, 2Q^2 on a
    support of size 2).
    """
    gaps = _check_array(gaps, "gaps").ravel()
    m = gaps.shape[0]
    if m < 1:
        raise ValueError("need at least one gap")
    Q = _check_int(Q, "Q", 1)
    scan = 2 * Q + 1 if m == 1 else 2 * Q * Q
    if scan > EXHAUSTIVE_BUDGET:
        raise ValueError(
            f"Q={Q} needs a support scan of {scan} candidate vectors, over "
            f"the scan bound EXHAUSTIVE_BUDGET={EXHAUSTIVE_BUDGET:g}"
        )
    tol = _check_real(tol, "tol", 0.0, closed=True)
    with np.errstate(over="ignore"):
        if not math.isfinite(2.0 * Q * float(np.sum(np.abs(gaps)))):
            raise ValueError(f"2 Q ||gaps||_1 overflows a double at Q={Q}")
        gnorm = float(np.linalg.norm(gaps))
        if not math.isfinite(gnorm):  # only the squares overflowed
            top = np.max(np.abs(gaps))
            gnorm = float(top * np.linalg.norm(gaps / top))
    gkey = tuple(float(g) for g in gaps)
    floor, forced = _pigeonhole_floor(gaps, Q, tol)

    q = _short_supports(gaps, Q, tol, gnorm)
    # an exact int: no float overflow at large m
    exhaustive = (2 * Q + 1) ** m <= EXHAUSTIVE_BUDGET
    method = "exhaustive" if exhaustive else "exhaustive(support<=2)+pslq"
    if q is None and forced:
        return RelationVerdict("inconclusive_precision", None, Q, tol, gkey,
                               "exhaustive(support<=2)", floor)
    r = None
    if q is None and exhaustive:
        q = _exhaustive(gaps, Q, tol, gnorm, range(3, m + 1))
    elif q is None:
        q = _pslq(gaps, Q, tol, gnorm)
        if q is not None:
            ok, r = _relation_ok(gaps, q, tol, gnorm)
            q = q if ok else None

    if q is None:
        return RelationVerdict(
            "none_found_within_bounds", None, Q, tol, gkey, method, floor
        )
    if r is None:  # a scan hit: the scans apply the criterion themselves
        _, r = _relation_ok(gaps, q, tol, gnorm)
    return RelationVerdict(
        "relation_found", tuple(int(v) for v in q), Q, tol, gkey, method,
        floor, r
    )


# ---------------------------------------------------------------------------
# gap distinctness
# ---------------------------------------------------------------------------


def _close_pairs(g, thr):
    """(2, m) array of the index pairs a < b with |g[a] - g[b]| <= thr.

    Sort and sweep: g is sorted stably, and sweep step d compares every
    sorted entry with the one d places later, until a step finds no pair.
    Float subtraction is antisymmetric and monotone, so the sweep applies
    exactly the test |g[a] - g[b]| <= thr to every pair, in O(m log m) plus
    the pairs found.
    """
    order = np.argsort(g, kind="stable")
    gs = g[order]
    hits = [np.empty((2, 0), dtype=np.intp)]
    # sorted entries d places apart differ at least as much as closer ones,
    # so the sweep stops at the first offset d without a hit
    for d in range(1, g.size):
        close = np.flatnonzero(gs[d:] - gs[:-d] <= thr)
        if close.size == 0:
            break
        hits.append(np.sort([order[close], order[close + d]], axis=0))
    return np.concatenate(hits, axis=1)


def pairwise_gap_distinct(lam, tol=GAP_TOL):
    """Check |lambda_j - lambda_k| != |lambda_l - lambda_m| across all pairs.

    Two unordered pairs collide when their absolute gaps agree within
    tol * max(1, spectrum spread), found by the sort and sweep of
    _close_pairs in O(n^2 log n).  Violations are listed in row-major order
    of the pair indices.  Raises ValueError unless tol is finite and >= 0
    and the spectrum and its spread are finite.
    """
    lam = _check_array(lam, "lambda").ravel()
    n = lam.shape[0]
    if n < 2:
        raise ValueError("need at least two eigenvalues")
    tol = _check_real(tol, "tol", 0.0, closed=True)
    spread = float(lam.max()) - float(lam.min())  # no warning on overflow
    scale = max(1.0, _check_real(spread, "max(lambda) - min(lambda)"))
    j, k = np.triu_indices(n, 1)  # the order of itertools.combinations
    ab = _close_pairs(np.abs(lam[j] - lam[k]), tol * scale)
    a, b = ab[:, np.lexsort(ab[::-1])]  # row-major order
    violations = tuple(zip(zip(j[a].tolist(), k[a].tolist()),
                           zip(j[b].tolist(), k[b].tolist())))
    return GapDistinctness(not violations, violations, tol, scale)


# ---------------------------------------------------------------------------
# Lie rank
# ---------------------------------------------------------------------------


def _depth_cap(dim, max_depth):
    """The closure's bracket-depth limit: max_depth, by default 2 dim."""
    return _check_int(2 * dim if max_depth is None else max_depth,
                      "max_depth", 0)


def lie_rank(g, max_depth=None):
    """Real dimension of the Lie algebra generated by (A, B) inside u(n).

    Breadth-first commutator closure with a stacked orthonormal basis: the
    basis is the rows of one real (n^2, 2 n^2) array Q, each row the float
    view of an element of u(n), so a row dot product is the real Frobenius
    inner product.  Level by level, the brackets [G, X] of the elements X
    added at the previous level with the generators G are formed in one
    batched product (X-major, G-minor); each is projected out of the basis by
    classical Gram-Schmidt run twice, r -= Q^T (Q r), and kept when its
    residual exceeds max(1e-13, 1e-7 |r|).  Stops at stabilization, full rank
    n^2, or max_depth nested brackets (an integer >= 0, default 2 n^2);
    hitting the depth limit before stabilization marks the result
    inconclusive.
    """
    n = g.order
    dim = n * n
    max_depth = _depth_cap(dim, max_depth)

    gens = np.array([g.A, g.B], dtype=complex)
    Q = np.empty((dim, 2 * dim))
    rank = depth_reached = 0
    level = gens
    for depth in range(max_depth + 1):
        lo = rank
        for M in level:
            if rank == dim:
                break
            r = M.reshape(-1).view(float).copy()
            norm0 = float(np.linalg.norm(r))
            for _ in range(2):  # a second pass keeps the basis orthonormal
                r -= Q[:rank].T @ (Q[:rank] @ r)
            res = float(np.linalg.norm(r))
            if res > max(1e-13, 1e-7 * norm0):
                Q[rank] = r / res
                rank += 1
        if rank == lo or rank == dim:
            break
        depth_reached = depth
        X = Q[lo:rank].view(complex).reshape(-1, 1, n, n)
        level = (gens @ X - X @ gens).reshape(-1, n, n)

    return LieRankResult(
        rank=rank,
        dimension=dim,
        contains_su=rank >= dim - 1,
        stabilized=rank == lo or rank == dim,  # False when the depth cap hit
        depth_reached=depth_reached,
        max_depth=max_depth,
    )


def _gap_edges(lam, W, tol):
    """(j, k) index arrays, j < k, of the coupling edges no gap collides with.

    A pair counts as coupled when W[j][k] != 0 exactly, since any nonzero
    coupling enters the component that a filter on its squared gap
    isolates.  A coupled pair is an edge when |W[j][k]| > EDGE_THRESHOLD,
    its gap |lam_j - lam_k| exceeds tol * max(1, spectrum spread), and no
    other coupled pair's gap lies within that threshold of it (the sort and
    sweep of _close_pairs on the coupled gaps).
    """
    n = lam.shape[0]
    thr = tol * max(1.0, float(lam.max()) - float(lam.min()))
    j, k = np.triu_indices(n, 1)
    coupled = W[j, k] != 0
    j, k = j[coupled], k[coupled]
    g = np.abs(lam[j] - lam[k])
    keep = (np.abs(W[j, k]) > EDGE_THRESHOLD) & (g > thr)
    keep[_close_pairs(g, thr).ravel()] = False
    return j[keep], k[keep]


def _gap_graph(lam, W, tol):
    """Spanning tree of the _gap_edges, or None when they miss a level.

    The rank certificate for A = diag(i lam), B = -i W (Turinici & Rabitz,
    Chem. Phys. 267 (2001) 1; Altafini, J. Math. Phys. 43 (2002) 2051): on
    an edge (j, k), the Lagrange polynomial in ad_A^2 equal to 1 at its
    squared gap and 0 at 0 and at every other coupled pair's squared gap
    maps B to the (j, k) entries alone, and one more bracket with A gives
    e_jk - e_kj and i (e_jk + e_kj), as in constructive_generators.  These
    rotations along a spanning tree generate su(n).  The tree grows
    breadth-first from level 0, each new level joined to its lowest-index
    neighbour in the previous layer; its edges are listed as (j, k), j < k,
    in row-major order.
    """
    n = lam.shape[0]
    j, k = _gap_edges(lam, W, tol)
    adj = np.zeros((n, n), dtype=bool)
    adj[j, k] = adj[k, j] = True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    layer, tree = np.array([0]), []
    while layer.size:
        reach = adj[np.ix_(layer, ~seen)]  # previous layer x unseen levels
        hit = reach.any(axis=0)
        new = np.flatnonzero(~seen)[hit]
        parent = layer[reach[:, hit].argmax(axis=0)]
        tree += zip(np.minimum(parent, new).tolist(),
                    np.maximum(parent, new).tolist())
        seen[new] = True
        layer = new
    return tuple(sorted(tree)) if seen.all() else None


# ---------------------------------------------------------------------------
# constructive generators
# ---------------------------------------------------------------------------


def constructive_generators(g, j, k):
    """Isolate the (j, k) coupling direction by Lagrange filtering.

    Builds N = P(ad_A^2)(B) where P is the Lagrange polynomial equal to 1 at
    the squared-gap node of the pair (j, k) and 0 at every other pair's node
    and at 0 (the diagonal).  For diagonal A the operator ad_A^2 acts
    entrywise, so P is applied factor by factor without expanding monomial
    coefficients.  The elementary rotations are then recovered from one more
    bracket with A and normalization by B[j][k]:

        E ~ e_jk - e_kj,   F ~ i (e_jk + e_kj).

    Returns (E, F, N, residual) where residual is the max-abs distance of N
    from its ideal value b e_jk - conj(b) e_kj.  Raises ValueError when a
    Lagrange denominator is below DENOM_ATOL.
    """
    n = g.order
    j = _check_int(j, "j", 0, n - 1)
    k = _check_int(k, "k", 0, n - 1)
    if j == k:
        raise ValueError(f"need distinct indices in [0, {n}), got ({j}, {k})")
    b = complex(g.B[j, k])
    if b == 0:
        raise ValueError(f"B[{j}][{k}] is zero, no coupling to isolate")

    lam = g.lam
    D = lam[:, None] - lam[None, :]
    S = -(D**2)  # (alpha_jj - alpha_kk)^2, entrywise action of ad_A^2
    target = S[j, k]

    # every other pair's squared gap; with 0 (the diagonal) they are the nodes
    p, q = np.triu_indices(n, 1)
    other = (p != min(j, k)) | (q != max(j, k))
    p, q = p[other], q[other]
    gaps = S[p, q]
    near = np.abs(target - gaps) < DENOM_ATOL
    if near.any() or abs(target) < DENOM_ATOL:
        colliding = list(zip(p[near].tolist(), q[near].tolist()))
        raise ValueError(
            f"squared gap of pair ({j}, {k}) collides with "
            f"{colliding or ['the diagonal']} (Lagrange denominator "
            f"< {DENOM_ATOL:g})"
        )

    N = g.B.astype(complex).copy()
    for s in sorted({0.0, *gaps.tolist()}):
        N = N * (S - s) / (target - s)

    ideal = np.zeros((n, n), dtype=complex)
    ideal[j, k] = b
    ideal[k, j] = -np.conj(b)
    residual = float(np.max(np.abs(N - ideal)))

    # one further bracket with A rotates N by the gap phase; combining the two
    # isolates e_jk and e_kj separately
    gap = 1j * (lam[j] - lam[k])
    K = commutator(g.A, N) / gap
    e_jk = (N + K) / (2.0 * b)
    e_kj = (K - N) / (2.0 * np.conj(b))
    E = e_jk - e_kj
    F = 1j * (e_jk + e_kj)
    # enforce exact skewness (recovered matrices carry O(residual) defects)
    E = (E - E.conj().T) / 2.0
    F = (F - F.conj().T) / 2.0
    return ConstructiveGenerators(E=E, F=F, N=N, residual=residual)


# ---------------------------------------------------------------------------
# perturbation certificate and aggregation
# ---------------------------------------------------------------------------


def perturbation_certificate(sys, n, Q=30, tol=GAP_TOL):
    """Almost-every-coupling-strength certificate from first-order derivatives.

    The eigenvalue derivatives with respect to the coupling strength are the
    diagonal couplings W[k][k].  If no integer relation is found among the
    first n of them (within bounds) and the coupling matrix is connected at
    some stored order >= n, the system is approximately controllable for
    almost every coupling strength, up to the stated search bounds.  A search
    that stops at its precision floor ("inconclusive_precision") leaves the
    status "inconclusive".
    """
    n = _check_int(n, "order", 2, sys.levels)
    diag = np.diag(sys.W)[:n]
    verdict = nonresonance(diag, Q=Q, tol=tol)
    freq = frequently_connected(sys, n)
    if verdict.found:
        status = "refuted"
    elif (freq.holds_up_to_data
          and verdict.status == "none_found_within_bounds"):
        status = "almost_every_mu"
    else:
        status = "inconclusive"
    return PerturbationCertificate(
        status=status,
        diagonal=tuple(float(v) for v in diag),
        relation=verdict,
        frequent=freq,
    )


def certify(sys, n, Q=30, tol=GAP_TOL, max_depth=None):
    """Run every certification check at truncation order n and aggregate.

    overall is "certified" only when connectedness, pairwise gap
    distinctness, gap nonresonance ("none_found_within_bounds") and the rank
    condition all pass; "refuted" only when a concrete witness exists
    (invariant set, colliding gap pairs, or an integer gap relation);
    "inconclusive" otherwise, a gap search that stopped at its precision
    floor ("inconclusive_precision") included.
    Coupling-graph edges are couplings above EDGE_THRESHOLD.

    The rank condition is read from the coupling graph when _gap_graph finds
    a spanning tree of edges whose gaps no other coupled pair shares: the
    algebra then contains su(n), and its rank is n^2 when A or B has a
    nonzero trace (summed exactly), else n^2 - 1.  That lie_rank carries
    method "gap_graph", the tree as its evidence and depth_reached 0.
    Otherwise lie_rank runs its closure, bounded by max_depth.
    """
    g = truncate(sys, n)
    n = g.order
    conn = connectedness(sys.W[:n, :n])
    pairwise = pairwise_gap_distinct(sys.lam[:n], tol)
    nonres = nonresonance(sys.gaps(n), Q=Q, tol=tol)
    tree = _gap_graph(sys.lam[:n], sys.W[:n, :n], pairwise.tolerance)
    if tree is None:
        lie = lie_rank(g, max_depth=max_depth)
    else:
        dim = n * n
        traced = any(sum(_as_integers(v)[0]) != 0
                     for v in (sys.lam[:n], np.diag(sys.W)[:n]))
        lie = LieRankResult(
            rank=dim if traced else dim - 1,
            dimension=dim,
            contains_su=True,
            stabilized=True,
            depth_reached=0,
            max_depth=_depth_cap(dim, max_depth),
            method="gap_graph",
            tree=tree,
        )
    pert = perturbation_certificate(sys, n, Q=Q, tol=tol)

    if not conn.connected or not pairwise.ok or nonres.found:
        overall = "refuted"
    elif lie.contains_su and nonres.status == "none_found_within_bounds":
        overall = "certified"
    else:
        overall = "inconclusive"

    options = {
        "n": n,
        "Q": nonres.q_max,
        "tol": nonres.tolerance,
        "max_depth": lie.max_depth,
        "edge_threshold": conn.threshold,
    }
    return CertificationReport(
        order=n,
        connected=conn,
        nonresonant_gaps=nonres,
        pairwise_gaps_distinct=pairwise,
        lie_rank=lie,
        perturbation=pert,
        overall=overall,
        options=options,
    )
