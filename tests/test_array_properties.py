"""Generated-input properties of the array-form certification checks and of
decoupling_error, each against a direct reference kept here."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bqcontrol.certification import lie_rank, pairwise_gap_distinct
from bqcontrol.models import custom_system, truncate
from bqcontrol.synthesis import PiecewiseConstantControl, decoupling_error

PROPS = settings(max_examples=80, deadline=None, derandomize=True,
                 database=None)


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
