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

import mpmath
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .linalg import commutator
from .models import truncate

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
# full exhaustive enumeration only below this many candidate vectors
EXHAUSTIVE_BUDGET = 3.0e7


# ---------------------------------------------------------------------------
# verdict records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectednessReport:
    connected: bool
    invariant_set: tuple | None  # smallest component when disconnected
    threshold: float

    def to_json(self):
        return {
            "connected": self.connected,
            "invariant_set": list(self.invariant_set)
            if self.invariant_set is not None
            else None,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class FrequentConnectedness:
    first_connected_order: int | None
    holds_up_to_data: bool
    levels_searched: int

    def to_json(self):
        return {
            "first_connected_order": self.first_connected_order,
            "holds_up_to_data": self.holds_up_to_data,
            "levels_searched": self.levels_searched,
        }


@dataclass(frozen=True)
class RelationVerdict:
    status: str  # "relation_found" | "none_found_within_bounds"
    relation: tuple | None
    q_max: int
    tolerance: float
    gaps: tuple
    method: str
    residual: float | None = None

    @property
    def found(self):
        return self.status == "relation_found"

    def to_json(self):
        return {
            "status": self.status,
            "relation": list(self.relation) if self.relation else None,
            "q_max": self.q_max,
            "tolerance": self.tolerance,
            "gaps": list(self.gaps),
            "method": self.method,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class GapDistinctness:
    ok: bool
    violations: tuple  # ((j, k), (l, m)) index pairs with colliding |gaps|
    tolerance: float
    scale: float

    def to_json(self):
        return {
            "ok": self.ok,
            "violations": [[list(a), list(b)] for a, b in self.violations],
            "tolerance": self.tolerance,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class LieRankResult:
    rank: int
    dimension: int  # ambient dim of u(n) = n^2
    contains_su: bool
    stabilized: bool
    depth_reached: int
    max_depth: int

    def to_json(self):
        return {
            "rank": self.rank,
            "dimension": self.dimension,
            "contains_su": self.contains_su,
            "stabilized": self.stabilized,
            "depth_reached": self.depth_reached,
            "max_depth": self.max_depth,
        }


@dataclass(frozen=True)
class ConstructiveGenerators:
    E: np.ndarray
    F: np.ndarray
    N: np.ndarray
    residual: float


@dataclass(frozen=True)
class PerturbationCertificate:
    status: str  # "almost_every_mu" | "refuted" | "inconclusive"
    diagonal: tuple
    relation: RelationVerdict
    frequent: FrequentConnectedness

    def to_json(self):
        return {
            "status": self.status,
            "diagonal": list(self.diagonal),
            "relation": self.relation.to_json(),
            "frequent": self.frequent.to_json(),
        }


@dataclass(frozen=True)
class CertificationReport:
    order: int
    connected: ConnectednessReport
    nonresonant_gaps: RelationVerdict
    pairwise_gaps_distinct: GapDistinctness
    lie_rank: LieRankResult
    perturbation: PerturbationCertificate
    overall: str  # "certified" | "refuted" | "inconclusive"
    options: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "order": self.order,
            "overall": self.overall,
            "connected": self.connected.to_json(),
            "nonresonant_gaps": self.nonresonant_gaps.to_json(),
            "pairwise_gaps_distinct": self.pairwise_gaps_distinct.to_json(),
            "lie_rank": self.lie_rank.to_json(),
            "perturbation": self.perturbation.to_json(),
            "options": dict(self.options),
        }


# ---------------------------------------------------------------------------
# connectedness
# ---------------------------------------------------------------------------


def connectedness(W, threshold=EDGE_THRESHOLD):
    """Connectivity of the coupling graph (edges where |W[j][k]| > threshold).

    A disconnected graph yields an invariant index set: the smallest connected
    component (ties broken by lowest index), which spans a subspace the
    dynamics can never leave.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"W must be square, got shape {W.shape}")
    n = W.shape[0]
    adj = (np.abs(W) > threshold).astype(np.int8)
    np.fill_diagonal(adj, 0)
    ncomp, labels = connected_components(
        csr_matrix(adj), directed=False, return_labels=True
    )
    if ncomp <= 1:
        return ConnectednessReport(True, None, float(threshold))
    comps = [tuple(np.flatnonzero(labels == c)) for c in range(ncomp)]
    comps.sort(key=lambda c: (len(c), c[0]))
    witness = tuple(int(i) for i in comps[0])
    return ConnectednessReport(False, witness, float(threshold))


def frequently_connected(sys, n, threshold=EDGE_THRESHOLD):
    """First truncation order >= n whose coupling matrix is connected.

    Only the stored levels can be inspected, so a positive verdict means
    "holds up to the stored data", never a claim about the infinite family.
    """
    n = int(n)
    if not 2 <= n <= sys.levels:
        raise ValueError(f"order must be in [2, {sys.levels}], got {n}")
    for k in range(n, sys.levels + 1):
        if connectedness(sys.W[:k, :k], threshold).connected:
            return FrequentConnectedness(k, True, sys.levels)
    return FrequentConnectedness(None, False, sys.levels)


# ---------------------------------------------------------------------------
# nonresonance
# ---------------------------------------------------------------------------


def _relation_ok(gaps, q, tol, gnorm):
    q = np.asarray(q, dtype=float)
    r = abs(float(np.dot(q, gaps)))
    return r <= tol * gnorm * math.sqrt(float(np.dot(q, q))), r


def _scan_support(gaps, support, Q, tol, gnorm):
    """Best admissible relation supported exactly on `support`, or None.

    Coefficients run over nonzero integers with the first support coordinate
    positive (sign normalization).  Returns the hit minimizing (max |q_i|,
    lexicographic coefficients).
    """
    s = len(support)
    pos = np.arange(1, Q + 1, dtype=float)
    signed = np.concatenate([np.arange(-Q, 0), np.arange(1, Q + 1)]).astype(float)
    axes = [pos] + [signed] * (s - 1)
    shape = [len(ax) for ax in axes]

    resid = np.zeros(shape)
    normsq = np.zeros(shape)
    for i, ax in enumerate(axes):
        view = ax.reshape([-1 if j == i else 1 for j in range(s)])
        resid = resid + view * gaps[support[i]]
        normsq = normsq + view**2
    mask = np.abs(resid) <= tol * gnorm * np.sqrt(normsq)
    if not mask.any():
        return None

    coords = list(np.nonzero(mask))
    vals = [axes[i][coords[i]] for i in range(s)]
    maxabs = np.max(np.abs(np.stack(vals)), axis=0)
    keep = maxabs == maxabs.min()
    vals = [v[keep] for v in vals]
    for i in range(s):  # lexicographic tie-break, coordinate by coordinate
        keep = vals[i] == vals[i].min()
        vals = [v[keep] for v in vals]
    q = np.zeros(len(gaps), dtype=int)
    for i, idx in enumerate(support):
        q[idx] = int(vals[i][0])
    return q


def _exhaustive(gaps, Q, tol, gnorm, max_support):
    m = len(gaps)
    for size in range(1, max_support + 1):
        for support in itertools.combinations(range(m), size):
            q = _scan_support(gaps, support, Q, tol, gnorm)
            if q is not None:
                return q
    return None


def _pslq(gaps, Q, tol, gnorm):
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
    |sum q_i g_i| <= tol * ||g||_2 * ||q||_2.  Small problems are scanned
    exhaustively in canonical order (support size, support indices, max |q_i|,
    lexicographic), so the reported witness is the simplest one; larger
    problems fall back to PSLQ after an exhaustive scan of supports of size
    <= 2.  Either way the verdict is only "none found within bounds".
    """
    gaps = np.asarray(gaps, dtype=float).ravel()
    m = gaps.shape[0]
    if m < 1:
        raise ValueError("need at least one gap")
    Q = int(Q)
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    tol = float(tol)
    gnorm = float(np.linalg.norm(gaps))
    gkey = tuple(float(g) for g in gaps)

    full_cost = float(2 * Q + 1) ** m
    if full_cost <= EXHAUSTIVE_BUDGET:
        q = _exhaustive(gaps, Q, tol, gnorm, m)
        method = "exhaustive"
    else:
        q = _exhaustive(gaps, Q, tol, gnorm, min(m, 2))
        method = "exhaustive(support<=2)+pslq"
        if q is None:
            q = _pslq(gaps, Q, tol, gnorm)
            if q is not None:
                ok, _ = _relation_ok(gaps, q, tol, gnorm)
                if not ok:
                    q = None

    if q is None:
        return RelationVerdict(
            "none_found_within_bounds", None, Q, tol, gkey, method
        )
    _, r = _relation_ok(gaps, q, tol, gnorm)
    return RelationVerdict(
        "relation_found", tuple(int(v) for v in q), Q, tol, gkey, method, r
    )


# ---------------------------------------------------------------------------
# gap distinctness
# ---------------------------------------------------------------------------


def pairwise_gap_distinct(lam, tol=GAP_TOL):
    """Check |lambda_j - lambda_k| != |lambda_l - lambda_m| across all pairs.

    Two unordered pairs collide when their absolute gaps agree within
    tol * max(1, spectrum spread).  Sort and sweep: the |gaps| are sorted
    stably (O(n^2 log n)), and sweep step d compares every sorted gap with
    the one d places later, until a step finds no collision.  Float
    subtraction is antisymmetric and monotone, so the sweep applies exactly
    the test |g_a - g_b| <= threshold to every pair of pairs.  Violations
    are listed in row-major order of the pair indices.
    """
    lam = np.asarray(lam, dtype=float).ravel()
    n = lam.shape[0]
    if n < 2:
        raise ValueError("need at least two eigenvalues")
    j, k = np.triu_indices(n, 1)  # the order of itertools.combinations
    g = np.abs(lam[j] - lam[k])
    scale = max(1.0, float(lam.max() - lam.min()))
    thr = tol * scale
    order = np.argsort(g, kind="stable")
    gs = g[order]
    hits = [np.empty((2, 0), dtype=np.intp)]
    # sorted gaps d places apart differ at least as much as closer ones, so
    # the sweep stops at the first offset d without a hit
    for d in range(1, g.size):
        close = np.flatnonzero(gs[d:] - gs[:-d] <= thr)
        if close.size == 0:
            break
        hits.append(np.sort([order[close], order[close + d]], axis=0))
    ab = np.concatenate(hits, axis=1)
    a, b = ab[:, np.lexsort(ab[::-1])]  # row-major order
    violations = tuple(zip(zip(j[a].tolist(), k[a].tolist()),
                           zip(j[b].tolist(), k[b].tolist())))
    return GapDistinctness(not violations, violations, float(tol), scale)


# ---------------------------------------------------------------------------
# Lie rank
# ---------------------------------------------------------------------------


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
    n^2, or max_depth nested brackets (default 2 n^2); hitting the depth
    limit before stabilization marks the result inconclusive.
    """
    n = g.order
    dim = n * n
    if max_depth is None:
        max_depth = 2 * dim
    max_depth = int(max_depth)

    gens = np.array([g.A, g.B], dtype=complex)
    Q = np.empty((dim, 2 * dim))
    rank = depth_reached = 0
    level = gens
    for depth in range(max(max_depth, 0) + 1):
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


# ---------------------------------------------------------------------------
# constructive generators
# ---------------------------------------------------------------------------


def constructive_generators(g, j, k, denom_atol=1e-12):
    """Isolate the (j, k) coupling direction by Lagrange filtering.

    Builds N = P(ad_A^2)(B) where P is the Lagrange polynomial equal to 1 at
    the squared-gap node of the pair (j, k) and 0 at every other pair's node
    and at 0 (the diagonal).  For diagonal A the operator ad_A^2 acts
    entrywise, so P is applied factor by factor without expanding monomial
    coefficients.  The elementary rotations are then recovered from one more
    bracket with A and normalization by B[j][k]:

        E ~ e_jk - e_kj,   F ~ i (e_jk + e_kj).

    Returns (E, F, N, residual) where residual is the max-abs distance of N
    from its ideal value b e_jk - conj(b) e_kj.
    """
    n = g.order
    j = int(j)
    k = int(k)
    if j == k or not (0 <= j < n and 0 <= k < n):
        raise ValueError(f"need distinct indices in [0, {n}), got ({j}, {k})")
    b = complex(g.B[j, k])
    if b == 0:
        raise ValueError(f"B[{j}][{k}] is zero, no coupling to isolate")

    lam = g.lam
    D = lam[:, None] - lam[None, :]
    S = -(D**2)  # (alpha_jj - alpha_kk)^2, entrywise action of ad_A^2
    target = S[j, k]

    nodes = {0.0}
    for p, q in itertools.combinations(range(n), 2):
        if {p, q} != {j, k}:
            nodes.add(float(S[p, q]))
    for s in nodes:
        if abs(target - s) < denom_atol:
            colliding = [
                (p, q)
                for p, q in itertools.combinations(range(n), 2)
                if {p, q} != {j, k} and abs(float(S[p, q]) - s) < denom_atol
            ]
            raise ValueError(
                f"squared gap of pair ({j}, {k}) collides with "
                f"{colliding or ['the diagonal']} (Lagrange denominator "
                f"< {denom_atol:g})"
            )

    N = g.B.astype(complex).copy()
    for s in sorted(nodes):
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


def perturbation_certificate(sys, n, Q=30, tol=GAP_TOL, threshold=EDGE_THRESHOLD):
    """Almost-every-coupling-strength certificate from first-order derivatives.

    The eigenvalue derivatives with respect to the coupling strength are the
    diagonal couplings W[k][k].  If no integer relation is found among the
    first n of them (within bounds) and the coupling matrix is connected at
    some stored order >= n, the system is approximately controllable for
    almost every coupling strength, up to the stated search bounds.
    """
    n = int(n)
    if not 2 <= n <= sys.levels:
        raise ValueError(f"order must be in [2, {sys.levels}], got {n}")
    diag = np.diag(sys.W)[:n]
    verdict = nonresonance(diag, Q=Q, tol=tol)
    freq = frequently_connected(sys, n, threshold)
    if verdict.found:
        status = "refuted"
    elif freq.holds_up_to_data:
        status = "almost_every_mu"
    else:
        status = "inconclusive"
    return PerturbationCertificate(
        status=status,
        diagonal=tuple(float(v) for v in diag),
        relation=verdict,
        frequent=freq,
    )


def certify(sys, n, Q=30, tol=GAP_TOL, max_depth=None, threshold=EDGE_THRESHOLD):
    """Run every certification check at truncation order n and aggregate.

    overall is "certified" only when connectedness, pairwise gap
    distinctness, gap nonresonance and the rank condition all pass;
    "refuted" only when a concrete witness exists (invariant set, colliding
    gap pairs, or an integer gap relation); "inconclusive" otherwise.
    """
    g = truncate(sys, n)
    conn = connectedness(sys.W[:n, :n], threshold)
    pairwise = pairwise_gap_distinct(sys.lam[:n], tol)
    nonres = nonresonance(np.diff(sys.lam[:n]), Q=Q, tol=tol)
    lie = lie_rank(g, max_depth=max_depth)
    pert = perturbation_certificate(sys, n, Q=Q, tol=tol, threshold=threshold)

    if not conn.connected or not pairwise.ok or nonres.found:
        overall = "refuted"
    elif lie.contains_su:
        overall = "certified"
    else:
        overall = "inconclusive"

    options = {
        "n": int(n),
        "Q": int(Q),
        "tol": float(tol),
        "max_depth": lie.max_depth,
        "edge_threshold": float(threshold),
    }
    return CertificationReport(
        order=int(n),
        connected=conn,
        nonresonant_gaps=nonres,
        pairwise_gaps_distinct=pairwise,
        lie_rank=lie,
        perturbation=pert,
        overall=overall,
        options=options,
    )
