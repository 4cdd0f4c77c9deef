"""Generated-input properties of the array-form certification checks, of
constructive_generators, of decoupling_error, of the frame exchange and of
the box and oscillator models, each against a direct reference kept here."""

import functools
import itertools
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from bqcontrol import certification
from bqcontrol.certification import (
    DENOM_ATOL,
    EDGE_THRESHOLD,
    certify,
    connectedness,
    constructive_generators,
    lie_rank,
    nonresonance,
    pairwise_gap_distinct,
)
from bqcontrol.models import (_box1d_coupling, _box_triples, box3d_system,
                              custom_system, oscillator_system, truncate)
from bqcontrol.linalg import commutator
from bqcontrol.synthesis import (PiecewiseConstantControl, decoupling_error,
                                 final_state, reparametrize)

PROPS = settings(max_examples=80, deadline=None, derandomize=True,
                 database=None)


# -- coupling-graph connectedness ---------------------------------------------


@st.composite
def coupling_matrices(draw):
    """Sparse, possibly asymmetric W; some entries sit below the edge threshold."""
    n = draw(st.integers(0, 12))
    W = np.zeros((n, n))
    if n:
        idx = st.integers(0, n - 1)
        for j, k in draw(st.lists(st.tuples(idx, idx), max_size=2 * n)):
            W[j, k] = draw(st.sampled_from([0.5, -2.0, 0.1 * EDGE_THRESHOLD]))
    return W


@PROPS
@given(coupling_matrices())
def test_connectedness_matches_scipy_components(W):
    adj = csr_matrix((np.abs(W) > EDGE_THRESHOLD).astype(np.int8))
    ncomp, labels = connected_components(adj, directed=False)
    comps = sorted((np.flatnonzero(labels == c).tolist() for c in range(ncomp)),
                   key=lambda c: (len(c), c[0]))
    got = connectedness(W)
    assert got.connected == (ncomp <= 1)
    assert got.invariant_set == (None if ncomp <= 1 else tuple(comps[0]))


# -- pairwise gap distinctness ------------------------------------------------


def gap_collisions(lam, tol):
    """Every pair of pairs, compared directly: O(P^2) in the P = n(n-1)/2 pairs."""
    lam = [float(x) for x in lam]
    pairs = list(itertools.combinations(range(len(lam)), 2))
    g = [abs(lam[j] - lam[k]) for j, k in pairs]
    thr = tol * max(1.0, max(lam) - min(lam))
    return tuple(
        (pairs[a], pairs[b])
        for a in range(len(pairs))
        for b in range(a + 1, len(pairs))
        if abs(g[a] - g[b]) <= thr
    )


spectra = st.one_of(
    # integer levels: repeated gaps, so collisions are common
    st.lists(st.integers(-6, 6).map(float), min_size=2, max_size=12),
    st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=12),
)


@PROPS
@given(spectra, st.sampled_from([1e-9, 1e-3, 0.05, 0.25]))
def test_gap_check_matches_all_pairs_of_pairs(lam, tol):
    got = pairwise_gap_distinct(lam, tol)
    ref = gap_collisions(lam, tol)
    assert got.violations == ref
    assert got.ok == (not ref)


# -- integer-relation search -------------------------------------------------


def dense_scan(gaps, support, Q, tol, gnorm):
    """The whole (Q, 2Q, ..., 2Q) coefficient grid of one support, summed in
    support order and tie-broken by (max |q_i|, lexicographic)."""
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
    for i in range(s):
        keep = vals[i] == vals[i].min()
        vals = [v[keep] for v in vals]
    q = np.zeros(len(gaps), dtype=int)
    for i, idx in enumerate(support):
        q[idx] = int(vals[i][0])
    return q


def dense_short_supports(gaps, Q, tol, gnorm):
    """dense_scan on every support of size 1, then of size 2, in
    itertools.combinations order: the first hit wins."""
    for size in (1, 2):
        for support in itertools.combinations(range(len(gaps)), size):
            q = dense_scan(gaps, support, Q, tol, gnorm)
            if q is not None:
                return q
    return None


@st.composite
def relation_inputs(draw):
    """Gap vectors with exact, rounded, planted or no integer relations."""
    m = draw(st.integers(1, 4))
    Q = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 5e-2]))
    kind = draw(st.sampled_from(["generic", "integer", "sqrt2", "planted"]))
    ints = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    if kind == "integer":
        gaps = [float(k) for k in draw(ints)]
    elif kind == "sqrt2":  # relations exact in the integers, rounded in floats
        gaps = [k * math.sqrt(2.0) for k in draw(ints)]
    else:
        gaps = draw(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m))
    if kind == "planted":  # solved for the last gap
        q = draw(st.lists(st.integers(-Q, Q), min_size=m - 1, max_size=m - 1))
        last = draw(st.integers(1, Q)) * draw(st.sampled_from([-1, 1]))
        gaps[-1] = -sum(a * b for a, b in zip(q, gaps)) / last
    return gaps, Q, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relation_inputs())
# an exact zero of the support-order sum that a split sum rounds away
@example(([k * math.sqrt(2.0) for k in (3, -1, 2, -6)], 1, 0.0))
# two hits share the least max |q_i|: the lexicographic tie-break decides
@example(([5.0, 4.0, -3.0, 1.0], 2, 0.0))
@example(([-5.0, -3.0, -1.0, 4.0], 2, 0.0))
def test_relation_scan_matches_dense_grid(case):
    gaps, Q, tol = case
    got = nonresonance(gaps, Q=Q, tol=tol).to_json()
    with mock.patch.object(certification, "_scan_support", dense_scan), \
            mock.patch.object(certification, "_short_supports",
                              dense_short_supports):
        ref = nonresonance(gaps, Q=Q, tol=tol).to_json()
    assert got == ref


@st.composite
def short_support_inputs(draw):
    """Gap vectors of 1-24 entries with planted 1- and 2-term relations and
    zero, tiny or near-threshold entries, at Q up to 200."""
    m = draw(st.integers(1, 24))
    Q = draw(st.integers(1, 200))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 5e-2]))
    gaps = draw(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m))
    index = st.integers(0, m - 1)
    for kind in draw(st.lists(st.sampled_from(
            ["zero", "tiny", "one-term", "two-term"]), max_size=3)):
        i = draw(index)
        if kind == "zero":
            gaps[i] = 0.0
        elif kind == "tiny":
            gaps[i] *= 1e-12
        elif kind == "one-term":  # around the size-1 and pair thresholds
            scale = tol * float(np.linalg.norm(gaps))
            gaps[i] = scale * draw(st.floats(0.0, 2.0 * Q))
        elif m > 1:  # q_1 g_i + q_2 g_k = 0, solved for g_k
            k = draw(index.filter(lambda k: k != i))
            q1 = draw(st.integers(1, Q))
            q2 = draw(st.integers(1, Q)) * draw(st.sampled_from([-1, 1]))
            gaps[k] = -q1 * gaps[i] / q2
    return np.array(gaps), Q, tol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(short_support_inputs(), st.integers(1, 40))
# 0.01 and 0.02 lie between the size-1 threshold and the pair reach: the
# pair (0, 2) hits before the pair (1, 3)
@example((np.array([0.01, 3.0, 0.02, 6.0]), 3, 1e-3), 1)
# an exact zero of the rounded sum at tol = 0
@example((np.array([1.0, math.sqrt(2.0), 3.0 * math.sqrt(2.0)]), 200, 0.0), 7)
# the witness (9, 1) has q_2 = 1, the integer above 9 * 0.12 / 1.768 = 0.61
@example((np.array([-0.12, 1.768]), 10, 5e-2), 3)
# 2 g_0 + g_2 = 0 at tol = 0 beside a gap 1e162 times larger
@example((np.array([3e-12, 5e150, -6e-12, 7.0]), 4, 0.0), 2)
# (1, 1) meets the largest threshold T to the last bit, and g_0 + g_1
# rounds (|g_1| > 2 |g_0|): its exact sum lies past T, within T (1 + 4 eps)
@example((np.array([1.5897002867792083, -3.620044474660616]), 1,
          0.3631192020070617), 1)
# row 0 hits on (0, 2) at q_1 = 1 in an earlier block than its witness
# (3, -4) on (0, 1): the scan finishes the row before it stops
@example((np.array([1.0, 0.75, -1.0]), 4, 0.0), 1)
# row 0 hits (3, -2) on (0, 1) in the block of q_1 = 3 before its witness
# (3, -3): a block that starts at q_1 = max |q| of the best hit can still
# hold a better one, so only a larger q_1 ends the row
@example((np.array([-1.3333333333333333, -1.6666666666666667, -1.0]), 4,
          0.1), 1)
def test_short_support_broadcast_matches_per_support_scan(case, cells):
    # blocks of a few cells split rows and kept-pair runs at every boundary
    gaps, Q, tol = case
    gnorm = float(np.linalg.norm(gaps))
    ref = certification._exhaustive(gaps, Q, tol, gnorm, (1, 2))
    got = certification._short_supports(gaps, Q, tol, gnorm)
    with mock.patch.object(certification, "_CELLS", cells):
        split = certification._short_supports(gaps, Q, tol, gnorm)
    for q in (got, split):
        assert (q is None) == (ref is None)
        if ref is not None:
            assert q.tolist() == ref.tolist()


def exact_floor(gaps, Q):
    """Q ||g||_1 / ((Q+1)^m - 1) in exact rationals."""
    l1 = sum(abs(Fraction(float(g))) for g in gaps)
    return Q * l1 / ((Q + 1) ** len(gaps) - 1)


@PROPS
@given(st.integers(1, 8), st.integers(1, 10),
       st.sampled_from([0.0, 1e-9, 1e-3]), st.data())
def test_relation_floor_is_the_exact_pigeonhole_floor(m, Q, tol, data):
    gaps = data.draw(st.lists(st.floats(-20.0, 20.0), min_size=m, max_size=m))
    ref = float(exact_floor(gaps, Q))
    got = nonresonance(gaps, Q=Q, tol=tol).floor
    assert abs(got - ref) <= 1e-12 * ref


@st.composite
def forced_relation_inputs(draw):
    """Generic gaps at a length m where (Q+1)^m - 1 >= Q sqrt(m) / tol, so
    the pigeonhole floor is at most tol ||g||_2 whatever the gaps are."""
    Q = draw(st.integers(2, 30))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    m0 = next(m for m in itertools.count(1)
              if (Q + 1) ** m - 1 >= Q * math.sqrt(m) / tol)
    m = draw(st.integers(m0, 30))
    gaps = draw(st.lists(st.floats(0.5, 20.0), min_size=m, max_size=m))
    return gaps, Q, tol


@PROPS
@given(forced_relation_inputs())
def test_forced_relation_stops_after_the_support2_scan(case):
    gaps, Q, tol = case
    assert exact_floor(gaps, Q) <= tol * np.linalg.norm(gaps)
    with mock.patch.object(mpmath, "pslq", side_effect=AssertionError):
        v = nonresonance(gaps, Q=Q, tol=tol)
    if v.status == "relation_found":
        assert np.count_nonzero(v.relation) <= 2
    else:
        assert v.status == "inconclusive_precision" and v.relation is None


@PROPS
@given(st.integers(2, 30), st.integers(1, 30),
       st.sampled_from([1e-12, 1e-9, 1e-6]), st.data())
def test_planted_support2_relation_is_found(m, Q, tol, data):
    gaps = data.draw(st.lists(st.floats(0.5, 20.0), min_size=m, max_size=m))
    i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                              unique=True))
    a = data.draw(st.integers(1, Q))
    b = data.draw(st.integers(1, Q)) * data.draw(st.sampled_from([-1, 1]))
    gaps[j] = -a * gaps[i] / b  # a g_i + b g_j = 0 up to one rounding
    v = nonresonance(gaps, Q=Q, tol=tol)
    assert v.status == "relation_found"
    assert np.count_nonzero(v.relation) <= 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
# (Q, tol) pairs whose floor falls below tol ||g||_2 from about 8-12 levels on
@given(st.integers(3, 13), st.sampled_from([(30, 1e-9), (2, 1e-4), (3, 1e-5)]),
       st.integers(0, 2**32 - 1))
def test_certify_never_certifies_at_the_precision_floor(n, Q_tol, seed):
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0, (n, n))
    Q, tol = Q_tol
    rep = certify(custom_system(np.sort(rng.uniform(0.0, 20.0, n)), W + W.T),
                  n, Q=Q, tol=tol)
    if rep.nonresonant_gaps.status == "inconclusive_precision":
        assert rep.overall != "certified"
    if rep.perturbation.relation.status == "inconclusive_precision":
        assert rep.perturbation.status == "inconclusive"


# -- Lie rank -----------------------------------------------------------------


def bracket_span_rank(A, B, depth, rtol=1e-9):
    """Real dimension of the span of all nested brackets of (A, B) up to `depth`.

    T_0 = span{A, B}, T_d = T_{d-1} + [A, T_{d-1}] + [B, T_{d-1}]; each T_d is
    carried as the orthonormal right-singular vectors of its stacked real
    vectors, and its dimension is the number of singular values above
    rtol times the largest.
    """
    def vec(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])

    def span(mats):
        if not mats:
            return []
        _, s, vt = np.linalg.svd(np.array([vec(M) for M in mats]))
        if s[0] == 0.0:
            return []
        m = A.size
        return [(v[:m] + 1j * v[m:]).reshape(A.shape)
                for v in vt[:int(np.sum(s > rtol * s[0]))]]

    T = span([A, B])
    for _ in range(depth):
        T = span(T + [G @ X - X @ G for X in T for G in (A, B)])
    return len(T)


@st.composite
def galerkin_pairs(draw):
    """Order-2..4 pairs on a coarse grid, so that subalgebras are common."""
    n = draw(st.integers(2, 4))
    a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    lam = np.array(a, dtype=float) + math.sqrt(2.0) * np.array(b)
    W = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n,
                               max_size=n * n)), dtype=float).reshape(n, n)
    return truncate(custom_system(lam, (W + W.T) / 4.0), n)


@PROPS
@given(galerkin_pairs(), st.sampled_from([None, 0, 1, 2, 3]))
def test_lie_rank_matches_bracket_span(g, max_depth):
    r = lie_rank(g, max_depth=max_depth)
    # brackets one level past depth_reached were formed unless the cap stopped it
    depth = min(r.depth_reached + 1, r.max_depth)
    assert r.rank == bracket_span_rank(g.A, g.B, depth)
    assert r.contains_su == (r.rank >= r.dimension - 1)
    if r.stabilized and r.rank < r.dimension:
        assert bracket_span_rank(g.A, g.B, depth + 1) == r.rank
    # the deepest level whose brackets were formed added to the span
    assert r.depth_reached <= r.max_depth
    assert r.stabilized or r.depth_reached == r.max_depth
    if r.depth_reached > 0:
        assert (bracket_span_rank(g.A, g.B, r.depth_reached - 1)
                < bracket_span_rank(g.A, g.B, r.depth_reached))


# -- gap-graph rank certificate ---------------------------------------------


def gap_graph_reference(lam, W, tol):
    """(surviving edges in row-major order, whether they connect every level):
    every pair of coupled pairs compared directly, O(P^2) in the P coupled
    pairs, then a breadth-first search over the surviving edges."""
    lam = [float(x) for x in lam]
    n = len(lam)
    thr = tol * max(1.0, max(lam) - min(lam))
    coupled = [(j, k) for j, k in itertools.combinations(range(n), 2)
               if W[j][k] != 0]
    gap = {p: abs(lam[p[0]] - lam[p[1]]) for p in coupled}
    edges = [p for p in coupled
             if abs(W[p[0]][p[1]]) > EDGE_THRESHOLD and gap[p] > thr
             and not any(abs(gap[p] - gap[q]) <= thr
                         for q in coupled if q != p)]
    seen, queue = {0}, [0]
    while queue:
        v = queue.pop(0)
        for j, k in edges:
            for a, b in ((j, k), (k, j)):
                if a == v and b not in seen:
                    seen.add(b)
                    queue.append(b)
    return edges, len(seen) == n


@st.composite
def coupled_spectra(draw):
    """A spectrum from `spectra` and a symmetric W whose off-diagonal
    entries are exact zeros, ordinary couplings, or couplings at and below
    EDGE_THRESHOLD."""
    lam = np.array(draw(spectra))
    n = lam.size
    W = np.zeros((n, n))
    entry = st.sampled_from([0.0, 0.0, 0.7, -1.3, EDGE_THRESHOLD,
                             0.5 * EDGE_THRESHOLD])
    for j, k in itertools.combinations(range(n), 2):
        W[j, k] = W[k, j] = draw(entry)
    return lam, W


@PROPS
@given(coupled_spectra(), st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.25]))
def test_gap_graph_sweep_matches_all_pairs_of_coupled_pairs(case, tol):
    lam, W = case
    edges, connected = gap_graph_reference(lam, W, tol)
    j, k = certification._gap_edges(lam, W, tol)
    assert list(zip(j.tolist(), k.tolist())) == edges
    tree = certification._gap_graph(lam, W, tol)
    assert (tree is not None) == connected
    if tree is not None:
        # n - 1 surviving edges, row-major, that connect n levels: a tree
        assert len(tree) == lam.size - 1 and list(tree) == sorted(tree)
        assert set(tree) <= set(edges)
        rows, cols = zip(*tree)
        graph = csr_matrix((np.ones(len(tree)), (rows, cols)),
                           shape=(lam.size, lam.size))
        assert connected_components(graph, directed=False)[0] == 1


@functools.cache
def bench_system(name):
    """The fixed systems of the benchmark's certify workload."""
    if name == "box":
        return box3d_system((1.0, 1.3, 1.7), (0.5, 0.7, 0.9), levels=40)
    return oscillator_system(-0.5, 0.3 if name == "oscillator" else 0.0,
                             levels=40 if name == "oscillator" else 12)


@pytest.mark.parametrize("name, n, count, holds", [
    ("box", 6, 11, True), ("box", 10, 23, True), ("box", 14, 41, True),
    ("box", 20, 82, True), ("oscillator", 6, 1, False),
    ("oscillator", 10, 1, False), ("oscillator", 20, 1, False),
    ("parity", 6, 0, False),
])
def test_gap_graph_on_the_bench_systems(name, n, count, holds):
    s = bench_system(name)
    lam, W = s.lam[:n], s.W[:n, :n]
    edges, connected = gap_graph_reference(lam, W, 1e-9)
    assert (len(edges), connected) == (count, holds)
    j, k = certification._gap_edges(lam, W, 1e-9)
    assert list(zip(j.tolist(), k.tolist())) == edges
    assert (certification._gap_graph(lam, W, 1e-9) is not None) == holds
    lie = certify(s, n).lie_rank
    assert lie.method == ("gap_graph" if holds else "closure")


# marks whose pairwise differences are all distinct
GOLOMB_RULER = (0, 1, 4, 9, 15, 22, 32, 34)


@st.composite
def gap_graph_systems(draw):
    """Order-2..5 systems on which the closure can see what the graph sees.

    The closure keeps a bracket when its residual exceeds 1e-7 of its norm,
    so it cannot resolve couplings near zero, gaps that nearly collide, or
    a trace part that is nearly zero.  Levels and couplings are therefore
    drawn on the grid of multiples of 1/64, levels in [-10, 10] and
    couplings in [-1, 1]: every coupling is 0 or at least 1/64 >= 1e-3
    max|W|, any two gaps are equal or at least 1/64 >= 1e-4 spread apart,
    and each trace is 0 or at least 1/64.  The levels are any grid points,
    where planted equal gaps are common, or marks of a Golomb ruler, whose
    gaps are all distinct.  W is sparse, or diagonal only.
    """
    n = draw(st.integers(2, 5))
    grid = st.integers(-640, 640).map(lambda i: i / 64)
    golomb = st.lists(st.sampled_from(GOLOMB_RULER), min_size=n, max_size=n,
                      unique=True)
    lam = draw(st.one_of(
        st.lists(grid, min_size=n, max_size=n),
        st.builds(lambda marks, shift: [m / 4 - shift for m in marks],
                  golomb, st.integers(0, 320).map(lambda i: i / 64)),
    ))
    diagonal_only = draw(st.booleans())
    W = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            if j == k or not diagonal_only:
                W[j, k] = W[k, j] = draw(st.integers(-64, 64)) / 64
    return custom_system(lam, W)


@PROPS
@given(gap_graph_systems())
# a repeated level: the coupled pair has no gap, and the closure finds rank 1
@example(custom_system([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]))
# traceless A and B: su(2) alone; then a trace part from diag W: u(2)
@example(custom_system([-0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]))
@example(custom_system([-0.5, 0.5], [[0.3, 1.0], [1.0, 0.0]]))
@example(custom_system([-3.0, 1.0, 2.0],
                       [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]))
# levels 2, 3 share the (0, 1) gap through a coupling below EDGE_THRESHOLD
@example(custom_system([0.0, 1.0, 2.5, 3.5],
                       [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0],
                        [0.0, 0.5, 0.0, 1e-13], [0.5, 0.0, 1e-13, 0.0]]))
def test_gap_graph_agrees_with_the_closure(system):
    n = system.levels
    lie = certify(system, n, Q=2).lie_rank
    tree = certification._gap_graph(system.lam, system.W, 1e-9)
    if not np.any(system.W - np.diag(np.diag(system.W))):
        assert tree is None
    if tree is None:
        assert lie.method == "closure" and lie.tree is None
        return
    closure = lie_rank(truncate(system, n))
    assert lie.method == "gap_graph" and lie.tree == tree
    assert lie.stabilized and lie.depth_reached == 0
    assert (lie.rank, lie.contains_su) == (closure.rank, closure.contains_su)
    assert lie.contains_su


# -- constructive generators -------------------------------------------------


def lagrange_filter_loop(g, j, k):
    """(E, F, N, residual) of the Lagrange filter with the nodes gathered in a
    set by a loop over the pairs, or None when a node collides with the
    target's squared gap."""
    n, lam = g.order, g.lam
    D = lam[:, None] - lam[None, :]
    S = -(D**2)
    target = S[j, k]
    nodes = {0.0}
    for p, q in itertools.combinations(range(n), 2):
        if {p, q} != {j, k}:
            nodes.add(float(S[p, q]))
    if any(abs(target - s) < DENOM_ATOL for s in nodes):
        return None
    b = complex(g.B[j, k])
    N = g.B.astype(complex).copy()
    for s in sorted(nodes):
        N = N * (S - s) / (target - s)
    ideal = np.zeros((n, n), dtype=complex)
    ideal[j, k] = b
    ideal[k, j] = -np.conj(b)
    K = commutator(g.A, N) / (1j * (lam[j] - lam[k]))
    e_jk = (N + K) / (2.0 * b)
    e_kj = (K - N) / (2.0 * np.conj(b))
    E, F = e_jk - e_kj, 1j * (e_jk + e_kj)
    return ((E - E.conj().T) / 2.0, (F - F.conj().T) / 2.0, N,
            float(np.max(np.abs(N - ideal))))


@st.composite
def filter_pairs(draw):
    """Order-2..6 pairs; small integer levels force equal gaps and
    degenerate levels, uniform ones are generic."""
    n = draw(st.integers(2, 6))
    level = draw(st.sampled_from([st.integers(0, 4).map(float),
                                  st.floats(0.0, 5.0)]))
    lam = draw(st.lists(level, min_size=n, max_size=n))
    entry = st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-1.0, 1.0)
    W = np.reshape(draw(st.lists(entry, min_size=n * n, max_size=n * n)),
                   (n, n))
    return truncate(custom_system(lam, (W + W.T) / 2.0), n)


@PROPS
@given(filter_pairs())
def test_constructive_generators_match_set_based_filter(g):
    n, S = g.order, -(np.subtract.outer(g.lam, g.lam) ** 2)
    for j, k in itertools.permutations(range(n), 2):
        if g.B[j, k] == 0:
            continue
        ref = lagrange_filter_loop(g, j, k)
        if ref is None:
            near = [(p, q) for p, q in itertools.combinations(range(n), 2)
                    if {p, q} != {j, k}
                    and abs(S[p, q] - S[j, k]) < DENOM_ATOL]
            with pytest.raises(ValueError) as e:
                constructive_generators(g, j, k)
            assert (f"pair ({j}, {k}) collides with "
                    f"{near or ['the diagonal']} (") in str(e.value)
            continue
        got = constructive_generators(g, j, k)
        for a, b in zip((got.E, got.F, got.N), ref[:3]):
            assert a.tobytes() == b.tobytes()
        assert got.residual == ref[3]


# -- decoupling error ---------------------------------------------------------


def decoupling_reference(c, sys, n, N, grid):
    """Off-block running integral, rebuilt piece by piece at every grid time."""
    lam = sys.lam[:N]
    B = -1j * sys.W[:N, :N]
    Om = lam[None, :] - lam[:, None]
    off = np.zeros((N, N), dtype=bool)
    off[:n, n:] = off[n:, :n] = True
    worst = 0.0
    for t in np.linspace(0.0, c.total_duration, grid + 1)[1:]:
        I = np.zeros((N, N), dtype=complex)
        start = v = 0.0
        for p, (dur, u) in enumerate(c.pieces):
            last = p == c.npieces - 1
            dt = t - start if last or t < start + dur else dur
            for j, k in zip(*np.nonzero(off)):
                w = Om[j, k]
                if w == 0.0:
                    I[j, k] += B[j, k] * dt
                else:
                    I[j, k] += (B[j, k] * np.exp(1j * w * v)
                                * (np.exp(1j * w * u * dt) - 1.0) / (1j * w * u))
            if dt < dur:
                break
            start += dur
            v += dur * u
        worst = max(worst, float(np.max(np.abs(I[off]))))
    return worst


@st.composite
def reparametrized_controls(draw):
    N = draw(st.integers(2, 5))
    n = draw(st.integers(1, N))
    levels = draw(st.lists(st.integers(0, 4), min_size=N, max_size=N))
    lam = np.array(levels, dtype=float) * draw(st.sampled_from([1.0, 0.7071]))
    W = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=N * N,
                               max_size=N * N))).reshape(N, N)
    sys = custom_system(lam, (W + W.T) / 2.0)
    k = draw(st.integers(0, 5))
    durations = draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))
    values = draw(st.lists(st.floats(0.2, 6.0), min_size=k, max_size=k))
    c = PiecewiseConstantControl("reparametrized", zip(durations, values), 0.1)
    grid = draw(st.one_of(st.integers(1, 40), st.just(max(k, 1))))
    return c, sys, n, N, grid


@PROPS
@given(reparametrized_controls())
def test_decoupling_error_matches_per_time_loop(case):
    c, sys, n, N, grid = case
    got = decoupling_error(c, sys, n, N, grid)
    if n == N or c.npieces == 0:
        assert got == 0.0
        return
    ref = decoupling_reference(c, sys, n, N, grid)
    assert abs(got - ref) <= 1e-12 * max(1.0, ref)


# -- frame exchange -------------------------------------------------------------


FRAME_PAIR = truncate(custom_system([0.0, 1.0, 2.5], [[0.0, 0.4, 0.1],
                                                     [0.4, 0.0, 0.4],
                                                     [0.1, 0.4, 0.0]]), 3)
FRAME_STATE = np.array([0.6, 0.8j, 0.0])


def _ulps_from(x, i, toward):
    for _ in range(i):
        x = np.nextafter(x, toward)
    return float(x)


@st.composite
def frame_problems(draw):
    """(Galerkin pair, control, unit state); the control's values lie
    anywhere in its frame's band, the last doubles before delta included."""
    n = draw(st.integers(2, 4))
    lam = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    W = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                 max_size=n * n)), (n, n))
    g = truncate(custom_system(lam, (W + W.T) / 2.0), n)
    frame = draw(st.sampled_from(["original", "reparametrized"]))
    delta = draw(st.floats(0.05, 2.0))
    inside, fractions = ((0.0, st.floats(0.02, 0.98)) if frame == "original"
                         else (math.inf, st.floats(1.02, 10.0)))
    value = (fractions.map(lambda f: delta * f)
             | st.integers(1, 3).map(lambda i: _ulps_from(delta, i, inside)))
    pieces = draw(st.lists(st.tuples(st.floats(0.01, 2.0), value),
                           max_size=4))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                               max_size=2 * n)))
    x = x[:n] + 1j * x[n:]
    x = x / np.linalg.norm(x) if np.linalg.norm(x) > 0.1 else np.eye(n)[0]
    return g, PiecewiseConstantControl(frame, pieces, delta), x


@PROPS
# 1/u rounds onto 1/delta: the value sits on the new frame's open end
@example((FRAME_PAIR, PiecewiseConstantControl(
    "original", [(0.5, np.nextafter(0.1, 0.0))], 0.1), FRAME_STATE))
@example((FRAME_PAIR, PiecewiseConstantControl(
    "reparametrized", [(0.5, np.nextafter(7.0, math.inf))], 7.0), FRAME_STATE))
@given(frame_problems())
def test_reparametrize_is_its_own_inverse_up_to_rounding(p):
    g, c, x = p
    r = reparametrize(c)
    back = reparametrize(r)
    assert r.frame != c.frame and back.frame == c.frame
    for got, want in ((back.delta, c.delta), (back.durations, c.durations),
                      (back.values, c.values)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(final_state(g, c, x) - final_state(g, r, x))) <= 1e-12


POSITIVE = st.floats(0.0, sys.float_info.max, exclude_min=True)


@st.composite
def wide_controls(draw):
    """Controls whose durations, values and delta are any positive doubles,
    subnormals included."""
    frame = draw(st.sampled_from(["original", "reparametrized"]))
    pieces = draw(st.lists(st.tuples(POSITIVE, POSITIVE), max_size=3))
    values = [u for _, u in pieces]
    if frame == "original":  # delta in (max value, max double]
        lo, hi = max(values, default=0.0), sys.float_info.max
        assume(lo < hi)
    else:  # delta in (0, min value)
        lo, hi = 0.0, min(values, default=sys.float_info.max)
        assume(hi > math.ulp(0.0))
    delta = draw(st.floats(lo, hi, exclude_min=True,
                           exclude_max=frame == "reparametrized"))
    return PiecewiseConstantControl(frame, pieces, delta)


@settings(PROPS, max_examples=300)
# 1/u overflows; t u underflows to 0; t u overflows
@example(PiecewiseConstantControl("original", [(1.0, 1e-310)], 0.1))
@example(PiecewiseConstantControl("original", [(1e-200, 1e-200)], 0.1))
@example(PiecewiseConstantControl("reparametrized", [(1e300, 1e300)], 0.1))
@given(wide_controls())
def test_reparametrize_refuses_or_round_trips_any_positive_doubles(c):
    """The frame change either refuses a control with a ValueError naming
    the change, with no warning on the way, or converts it back within
    rounding."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = reparametrize(c)
        except ValueError as e:
            assert str(e).startswith("the frame change (t, u) -> (t u, 1/u) "
                                     "takes ")
            return
        back = reparametrize(r)
    assert r.frame != c.frame and back.frame == c.frame
    for got, want in ((back.delta, c.delta), (back.durations, c.durations),
                      (back.values, c.values)):
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# -- model builders -------------------------------------------------------------


def box_coupling_loop(l, alpha, triples):
    """W entry by entry from per-axis tables: v = 1.0, then v *= the axis
    factor for axes 0, 1, 2 in turn."""
    tables = []
    for d in range(3):
        ks = {t[d] for t in triples}
        tables.append({(k, h): _box1d_coupling(k, h, alpha[d], l[d])
                       for k in ks for h in ks})
    W = np.empty((len(triples), len(triples)))
    for i, ti in enumerate(triples):
        for j, tj in enumerate(triples[: i + 1]):
            v = 1.0
            for d in range(3):
                v *= tables[d][(ti[d], tj[d])]
            W[i, j] = W[j, i] = v
    return W


@PROPS
@given(st.tuples(*[st.floats(0.5, 2.0)] * 3),
       st.tuples(*[st.one_of(st.just(0.0), st.floats(-2.0, 2.0))] * 3),
       st.integers(2, 60))
def test_box_couplings_match_per_entry_loop(l, alpha, levels):
    kept = _box_triples(l, levels)
    lam, triples = [v for v, _ in kept], [t for _, t in kept]
    ref = custom_system(lam, box_coupling_loop(l, alpha, triples)).W
    W = box3d_system(l, alpha, levels=levels).W
    assert W.tobytes() == ref.tobytes()  # bit for bit, signed zeros too


def box1d_closed_form(k, h, al):
    """The 1D box coupling at al = alpha l, evaluated at 60 digits:
    4 k h pi^2 al ((-1)^(k+h) e^al - 1) / ((al^2 + (k-h)^2 pi^2)
    (al^2 + (k+h)^2 pi^2)), whose al^2 neither underflows nor cancels here."""
    with mpmath.workdps(60):
        al, pi2 = mpmath.mpf(al), mpmath.pi**2
        rise = mpmath.expm1(al) if (k + h) % 2 == 0 else -mpmath.exp(al) - 1
        return (4 * k * h * pi2 * al * rise
                / ((al**2 + (k - h) ** 2 * pi2) * (al**2 + (k + h) ** 2 * pi2)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 8), st.floats(0.5, 2.0),
       st.floats(-300.0, math.log10(30.0)), st.sampled_from([1.0, -1.0]))
@example(1, 1, 1.0, -200.0, 1.0)  # (alpha l)^2 underflows to 0
@example(2, 2, 1.0, -17.0, 1.0)  # e^al - 1 rounds to 0
def test_box_coupling_matches_closed_form_at_60_digits(k, h, l, exponent,
                                                       sign):
    alpha = sign * 10.0**exponent / l
    ref = box1d_closed_form(k, h, alpha * l)
    got = _box1d_coupling(k, h, alpha, l)
    # relative 1e-12; below the normal range an absolute floor of a few
    # thousand subnormal spacings
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-320


def osc_recurrence(a, b, c, levels, dps=50):
    """The oscillator couplings at dps digits, every row in full: column 0
    from I_00 = exp(c + b^2/(4(1-a))) / sqrt(1-a), row 0 equal to it, then
    I_{j+1,k} = (2a sqrt(j/2) I_{j-1,k} + b I_jk + 2 sqrt(k/2) I_{j,k-1})
    / ((2-2a) sqrt((j+1)/2)), with 0 at index -1."""
    with mpmath.workdps(dps):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        h = [mpmath.sqrt(mpmath.mpf(k) / 2) for k in range(levels)]
        I = [[mpmath.mpf(0)] * levels for _ in range(levels)]
        I[0][0] = mpmath.exp(c + b * b / (4 * (1 - a))) / mpmath.sqrt(1 - a)
        for j in range(levels - 1):
            I[j + 1][0] = (2 * a * h[j] * (I[j - 1][0] if j else 0)
                           + b * I[j][0]) / ((2 - 2 * a) * h[j + 1])
        I[0] = [I[k][0] for k in range(levels)]
        for j in range(levels - 1):
            I[j + 1][1:] = [(2 * a * h[j] * (I[j - 1][k] if j else 0)
                             + b * I[j][k] + 2 * h[k] * I[j][k - 1])
                            / ((2 - 2 * a) * h[j + 1])
                            for k in range(1, levels)]
        return np.array(I, dtype=float)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(-50.0, -0.01), st.floats(-3.0, 3.0), st.integers(2, 200))
@example(-0.01, 3.0, 200)  # entries up to 1e22
@example(-50.0, -3.0, 200)
def test_oscillator_matches_recurrence_at_50_digits(a, b, levels):
    s = oscillator_system(a, b, levels=levels)
    ref = osc_recurrence(a, b, s.meta["c"], levels)
    assert np.max(np.abs(s.W - ref)) <= 1e-13 * np.max(np.abs(ref))


def osc_gauss_hermite(a, b, c, levels, nodes=256):
    """The oscillator couplings by a nodes-point Gauss-Hermite rule: the
    orthonormal Hermite polynomials h_k at the nodes (phi_j phi_k = h_j h_k
    exp(-x^2), the rule's weight) against exp(a x^2 + b x + c)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    H = np.empty((levels, nodes))
    H[0] = math.pi ** -0.25
    H[1] = math.sqrt(2.0) * x * H[0]
    for k in range(1, levels - 1):
        H[k + 1] = (math.sqrt(2.0 / (k + 1)) * x * H[k]
                    - math.sqrt(k / (k + 1.0)) * H[k - 1])
    return (H * (w * np.exp(a * x**2 + b * x + c))) @ H.T


@pytest.mark.parametrize("levels", [8, 40])
@pytest.mark.parametrize("a, b", [(-0.5, 0.3), (-2.0, 1.5), (-0.05, 0.0),
                                  (-0.5, 3.0), (-1.0, 1.0)])
def test_oscillator_matches_gauss_hermite(a, b, levels):
    s = oscillator_system(a, b, levels=levels)
    ref = osc_gauss_hermite(a, b, s.meta["c"], levels)
    assert np.max(np.abs(s.W - ref)) <= 1e-13 * np.max(np.abs(ref))
