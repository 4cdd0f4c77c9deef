"""Tests for connectedness, nonresonance, rank and generator construction."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import mpmath
import numpy as np
import pytest

from bqcontrol import certification
from bqcontrol.certification import (
    EDGE_THRESHOLD,
    EXHAUSTIVE_BUDGET,
    certify,
    connectedness,
    constructive_generators,
    frequently_connected,
    lie_rank,
    nonresonance,
    pairwise_gap_distinct,
    perturbation_certificate,
)
from bqcontrol.linalg import commutator
from bqcontrol.models import custom_system, oscillator_system, truncate


def tridiag_system(lam, offdiag):
    n = len(lam)
    W = np.zeros((n, n))
    for i, v in enumerate(offdiag):
        W[i, i + 1] = W[i + 1, i] = v
    return custom_system(lam, W)


# -- connectedness ----------------------------------------------------------


def test_connected_chain():
    r = connectedness(np.array([[0.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0],
                                [0.0, 1.0, 0.0]]))
    assert r.connected
    assert r.invariant_set is None


def test_disconnected_reports_smallest_component():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0  # component {0,1}, isolated {2}
    r = connectedness(W)
    assert not r.connected
    assert r.invariant_set == (2,)


def test_disconnected_tie_breaks_by_lowest_index():
    W = np.zeros((4, 4))
    W[0, 2] = W[2, 0] = 1.0
    W[1, 3] = W[3, 1] = 1.0  # parity classes {0,2} and {1,3}
    r = connectedness(W)
    assert r.invariant_set == (0, 2)


def test_threshold_separates_weak_edges():
    W = np.array([[0.0, 1e-13], [1e-13, 0.0]])
    assert not connectedness(W).connected
    assert connectedness(W * (20 * EDGE_THRESHOLD / 1e-13)).connected


def test_frequently_connected():
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 0.3
    W[1, 2] = W[2, 1] = 0.3  # order 2 disconnected, order 3 connected
    s = custom_system([0.0, 1.0, 2.5], W)
    f = frequently_connected(s, 2)
    assert f.first_connected_order == 3
    assert f.holds_up_to_data
    g = frequently_connected(custom_system([0.0, 1.0], np.zeros((2, 2))), 2)
    assert g.first_connected_order is None
    assert not g.holds_up_to_data


# -- nonresonance -----------------------------------------------------------


def test_equal_gaps_relation():
    v = nonresonance([2.0, 2.0, 2.0, 2.0], Q=30)
    assert v.status == "relation_found"
    assert v.relation == (1, -1, 0, 0)
    assert v.residual == 0.0


def test_commensurate_gaps_canonical_witness():
    assert nonresonance([1.0, 1.0], Q=10).relation == (1, -1)
    assert nonresonance([1.0, 2.0], Q=10).relation == (2, -1)


def test_zero_gap_witness():
    v = nonresonance([0.0, 1.7], Q=10)
    assert v.relation == (1, 0)


def test_single_irrational_gap_none():
    v = nonresonance([math.sqrt(2)], Q=1000)
    assert v.status == "none_found_within_bounds"


def test_sqrt2_pair_none_at_q100():
    v = nonresonance([1.0, math.sqrt(2)], Q=100, tol=1e-9)
    assert v.status == "none_found_within_bounds"
    assert v.method == "exhaustive"


def test_pslq_path_finds_planted_relation():
    # 7 gaps exceed the exhaustive budget at Q=30
    base = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7),
            math.sqrt(11)]
    gaps = base + [base[0] + base[1]]  # support-3 relation
    v = nonresonance(gaps, Q=30, tol=1e-9)
    assert v.status == "relation_found"
    assert v.method == "exhaustive(support<=2)+pslq"
    q = np.array(v.relation, dtype=float)
    assert np.max(np.abs(q)) <= 30
    g = np.array(gaps)
    assert abs(q @ g) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(q)


def test_pslq_hit_is_tested_once():
    # the acceptance test of a PSLQ hit also gives its residual
    gaps = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7),
            math.sqrt(11), 1.0 + math.sqrt(2)]
    with mock.patch.object(certification, "_relation_ok",
                           wraps=certification._relation_ok) as ok:
        v = nonresonance(gaps, Q=30, tol=1e-9)
    assert v.method == "exhaustive(support<=2)+pslq"
    assert v.status == "relation_found" and v.residual is not None
    assert ok.call_count == 1


def test_pslq_path_support2_prepass():
    base = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7),
            math.sqrt(11)]
    gaps = base + [2.0]  # (2, 0, ..., -1)
    v = nonresonance(gaps, Q=30, tol=1e-9)
    assert v.relation == (2, 0, 0, 0, 0, 0, -1)


def test_pslq_path_sound_and_deterministic():
    gaps = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7),
            math.sqrt(11), math.sqrt(13)]
    # with 3e12 candidate vectors at Q=30, near-relations at the 1e-9 level
    # exist for any 7 floats; whatever is reported must satisfy the criterion
    v = nonresonance(gaps, Q=30, tol=1e-9)
    if v.found:
        q = np.array(v.relation, dtype=float)
        g = np.array(gaps)
        assert np.max(np.abs(q)) <= 30
        assert abs(q @ g) <= 1e-9 * np.linalg.norm(g) * np.linalg.norm(q)
    v2 = nonresonance(gaps, Q=30, tol=1e-9)
    assert v2.status == v.status and v2.relation == v.relation
    # a tolerance near machine precision rules the spurious ones out
    v3 = nonresonance(gaps, Q=30, tol=1e-14)
    assert v3.status == "none_found_within_bounds"
    assert v3.method == "exhaustive(support<=2)+pslq"


def test_relation_scales_with_tolerance():
    # near-relation at 1e-6 is found only with the loose tolerance
    gaps = [1.0, 1.0 + 1e-6]
    assert nonresonance(gaps, Q=5, tol=1e-9).status == "none_found_within_bounds"
    assert nonresonance(gaps, Q=5, tol=1e-5).relation == (1, -1)


def test_support4_scan_stays_small():
    # the (2Q+1)^4 grid at Q=30 would take ~200 MB of float64 arrays
    gaps = np.random.default_rng(3).uniform(0.0, 20.0, 4)
    tracemalloc.start()
    try:
        v = nonresonance(gaps, Q=30, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.method == "exhaustive"
    assert peak < 8e6


def test_short_support_broadcast_stays_small():
    # at the largest Q of a pair scan, 20 gaps hold 20 Q ~ 7.7e4 products
    # q_1 g_i and twice as many q_2 g_k, and the 190 pairs 190 x 2 Q^2 ~ 5.7e9
    # candidates; each q_1 g_i keeps at least the pair k = i, q_2 = -q_1
    Q = math.isqrt(int(EXHAUSTIVE_BUDGET) // 2)
    gaps = np.random.default_rng(5).uniform(0.0, 20.0, 20)
    tracemalloc.start()
    try:
        v = nonresonance(gaps, Q=Q, tol=1e-14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no short support holds a relation, so every block was scanned
    assert v.status == "inconclusive_precision"
    assert peak < 8e6


def peak_bytes(f):
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_gap_scan_stays_small():
    # the largest Q one gap accepts: 1.5e7 products q g_1, 120 MB unblocked
    v, peak = peak_bytes(lambda: nonresonance([1.0], Q=14_999_999))
    assert v.status == "none_found_within_bounds"
    assert peak < 8e6


@pytest.mark.parametrize("gaps, kwargs, expected", [
    # the reach 37.9 keeps 3.8e8 pairs, 2.5e4 per q_1 g_i: most q_2 g_k
    (np.full(500, 1.0), {"Q": 30, "tol": 0.04}, (1, -1) + (0,) * 498),
    # every q_1 g_i meets -q_1 g_k exactly, for all 2,000 k
    (np.full(2000, 2.0), {}, (1, -1) + (0,) * 1998),
    (np.random.default_rng(7).random(2000), {"tol": 1e-14}, None),
], ids=["equal500-wide-reach", "equal2000", "random2000"])
def test_pair_scan_keeps_its_budget(gaps, kwargs, expected):
    v, peak = peak_bytes(lambda: nonresonance(gaps, **kwargs))
    assert v.relation == expected
    if expected is None:
        assert v.status == "inconclusive_precision"
    assert peak < 8e6


# [1e308, 1e308] and [1e307, 1e307] have a finite ||g||_2, but 2 Q ||g||_1
# (which bounds every relation sum the scans form) overflows
@pytest.mark.parametrize("gaps", [[math.inf, 1.0], [1e308, 1e308], [math.nan, 1.0],
                                  [1.7e308, 1.7e308], [1e307, 1e307]])
def test_nonfinite_gaps_rejected(gaps):
    with pytest.raises(ValueError):
        nonresonance(gaps)


def test_gaps_past_1e154_get_a_scaled_norm():
    # numpy's ||g||_2 squares 1e200 to inf; max|g| ||g / max|g|||_2 is 1e200
    v = nonresonance([1e200, 1.0])
    assert v.status == "relation_found"
    assert v.relation == (0, 1) and v.residual == 1.0


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="tol"):
        nonresonance([1.0, math.sqrt(2)], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        pairwise_gap_distinct([0.0, 1.0, 3.0, 4.0], tol=tol)


def test_negative_tolerance_cannot_certify():
    # at the default tol, gaps (1, 2, 1) are refuted by (2, -1, 0)
    W = np.random.default_rng(0).normal(size=(4, 4))
    s = custom_system([0.0, 1.0, 3.0, 4.0], W + W.T)
    assert certify(s, 4).nonresonant_gaps.relation == (2, -1, 0)
    with pytest.raises(ValueError, match="tol"):
        certify(s, 4, tol=-1)


def test_q_bound_on_support_scans():
    # support-2 scans hold 2 Q^2 candidate vectors, one gap 2Q + 1
    q2 = math.isqrt(int(EXHAUSTIVE_BUDGET) // 2)
    assert nonresonance([1.0, math.sqrt(2)], Q=q2).method == (
        "exhaustive(support<=2)+pslq")
    with pytest.raises(ValueError, match="EXHAUSTIVE_BUDGET"):
        nonresonance([1.0, math.sqrt(2)], Q=q2 + 1)
    with pytest.raises(ValueError, match="EXHAUSTIVE_BUDGET"):
        nonresonance([1.0], Q=int(EXHAUSTIVE_BUDGET) // 2)


def test_precision_floor_skips_pslq(monkeypatch):
    # 180 gaps at Q=30: the pigeonhole floor (~1e-265) is far below
    # tol ||g||_2, so a relation exists for any input of that length
    calls = []
    monkeypatch.setattr(mpmath, "pslq", lambda *a, **k: calls.append(1))
    v = nonresonance(np.random.default_rng(0).random(180))
    assert calls == []
    assert v.status == "inconclusive_precision"
    assert v.relation is None and v.residual is None
    assert v.method == "exhaustive(support<=2)"
    assert 0.0 < v.floor <= v.tolerance * np.linalg.norm(v.gaps)


def test_mpmath_is_imported_only_for_pslq():
    # the package and the CLI load without mpmath; 7 generic gaps at Q=30
    # exceed the exhaustive budget, so the search reaches PSLQ and loads it
    src = os.path.dirname(os.path.dirname(certification.__file__))
    code = ("import sys, numpy, bqcontrol, bqcontrol.cli\n"
            "print('mpmath' in sys.modules)\n"
            "bqcontrol.nonresonance(numpy.random.default_rng(0).random(7))\n"
            "print('mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_precision_floor_on_the_exhaustive_path():
    # 4 gaps fit the exhaustive budget; at tol=1e-4 their floor
    # 30 ||g||_1 / (31^4 - 1) ~ 2.1e-4 is below tol ||g||_2 ~ 3.3e-4, so the
    # supports of size 3 and 4 are not scanned; at Q=2 the floor is above it
    gaps = [1.0, math.sqrt(2), math.sqrt(3), math.sqrt(5)]
    v = nonresonance(gaps, Q=30, tol=1e-4)
    assert v.status == "inconclusive_precision"
    assert v.floor == pytest.approx(30 * sum(gaps) / (31**4 - 1), rel=1e-12)
    w = nonresonance(gaps, Q=2, tol=1e-4)
    assert w.status == "none_found_within_bounds" and w.method == "exhaustive"
    assert w.floor > 1e-4 * np.linalg.norm(gaps)


def test_bench_style_random12_is_inconclusive():
    # 12 uniform levels in [0, 20]: the default search used to "refute" them
    # by a relation that exists for any 11 gaps at Q=30, tol=1e-9
    rng = np.random.default_rng(1)
    lam = np.sort(rng.uniform(0.0, 20.0, 12))
    W = rng.normal(0.0, 1.0, (12, 12))
    rep = certify(custom_system(lam, (W + W.T) / 2.0), 12)
    assert rep.overall == "inconclusive"
    assert rep.nonresonant_gaps.status == "inconclusive_precision"
    assert rep.perturbation.status == "inconclusive"
    assert rep.perturbation.relation.status == "inconclusive_precision"
    assert rep.connected.connected and rep.pairwise_gaps_distinct.ok
    assert rep.lie_rank.contains_su  # only the floor stands in the way


def test_oscillator_n10_still_refuted_by_its_relation():
    rep = certify(oscillator_system(-0.5, 0.3, levels=12), 10)
    assert rep.overall == "refuted"
    gaps = rep.nonresonant_gaps
    assert gaps.status == "relation_found"
    assert gaps.relation == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    assert gaps.floor > gaps.residual
    # the diagonal couplings hit the floor: no refutation from them
    assert rep.perturbation.status == "inconclusive"
    assert rep.perturbation.relation.status == "inconclusive_precision"


# -- pairwise gaps ----------------------------------------------------------


def test_pairwise_gap_distinct():
    ok = pairwise_gap_distinct([0.0, 1.0, 2.5, 4.1])
    assert ok.ok and not ok.violations
    bad = pairwise_gap_distinct([0.0, 1.0, 2.0])
    assert not bad.ok
    assert ((0, 1), (1, 2)) in bad.violations


def test_pairwise_gap_scale_relative():
    # the tolerance scales with the spectral spread
    lam = [0.0, 1e6, 2e6 + 1e-4]
    assert not pairwise_gap_distinct(lam, tol=1e-9).ok


# -- Lie rank ---------------------------------------------------------------


def test_lie_rank_full_un():
    g = truncate(custom_system([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]), 2)
    r = lie_rank(g)
    assert r.rank == 4 and r.dimension == 4
    assert r.contains_su and r.stabilized


def test_lie_rank_proportional_generators():
    # B = -A spans a single line and brackets vanish
    g = truncate(custom_system([1.0, 2.0], np.diag([1.0, 2.0])), 2)
    r = lie_rank(g)
    assert r.rank == 1
    assert not r.contains_su


def test_lie_rank_three_level_chain():
    g = truncate(tridiag_system([0.0, 1.0, 2.5], [0.4, 0.4]), 3)
    r = lie_rank(g)
    assert r.rank == 9
    assert r.contains_su


def test_lie_rank_depth_cap_reports_unstabilized():
    g = truncate(tridiag_system([0.0, 1.0, 2.5], [0.4, 0.4]), 3)
    r = lie_rank(g, max_depth=0)
    assert r.rank == 2  # just span{A, B}
    assert not r.stabilized


def test_lie_rank_su_only():
    # traceless A and B: the algebra closes inside su(2)
    g = truncate(custom_system([-0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), 2)
    r = lie_rank(g)
    assert r.rank == 3 == g.order ** 2 - 1
    assert r.contains_su


def test_lie_rank_cut_is_strict():
    # A = 0, and B's one entry 1e-13 leaves a residual equal to the cut
    # max(1e-13, 1e-7 |r|) exactly: it is not kept
    g = truncate(custom_system([0.0, 0.0], [[1e-13, 0.0], [0.0, 0.0]]), 2)
    assert lie_rank(g).rank == 0


# -- constructive generators -------------------------------------------------


def test_generators_two_level_exact():
    g = truncate(custom_system([0.0, 1.3], [[0.2, 0.7], [0.7, -0.1]]), 2)
    out = constructive_generators(g, 0, 1)
    # the filter must kill the diagonal exactly and keep the coupling
    assert out.N[0, 0] == 0 and out.N[1, 1] == 0
    assert out.N[0, 1] == g.B[0, 1]
    assert out.residual == 0.0


def test_generators_rotation_pair():
    g = truncate(tridiag_system([0.0, 1.0, 2.5], [0.4, 0.7]), 3)
    for j, k in ((0, 1), (0, 2), (1, 2)):
        if g.B[j, k] == 0:
            continue
        out = constructive_generators(g, j, k)
        assert out.residual <= 1e-10
        # skew bit for bit
        assert np.array_equal(out.E, -out.E.conj().T)
        assert np.array_equal(out.F, -out.F.conj().T)
        # E and F generate the expected planar rotation: e^{t E} acts as
        # cos/sin in the (j, k) plane
        E = np.zeros((3, 3), dtype=complex)
        E[j, k] = 1.0
        E[k, j] = -1.0
        assert np.max(np.abs(out.E - E)) < 1e-10
        F = np.zeros((3, 3), dtype=complex)
        F[j, k] = 1j
        F[k, j] = 1j
        assert np.max(np.abs(out.F - F)) < 1e-10


def test_generators_bracket_consistency():
    # [A, N] rotates N by the gap: check [A, [A, N]] = -gap^2 N
    g = truncate(tridiag_system([0.0, 1.1, 2.9], [0.5, 0.3]), 3)
    out = constructive_generators(g, 1, 2)
    gap = g.lam[1] - g.lam[2]
    lhs = commutator(g.A, commutator(g.A, out.N))
    assert np.max(np.abs(lhs + gap ** 2 * out.N)) < 1e-12


def test_generators_degenerate_gap_collision():
    g = truncate(custom_system([0.0, 1.0, 2.0],
                               [[0.0, 0.4, 0.4], [0.4, 0.0, 0.4],
                                [0.4, 0.4, 0.0]]), 3)
    with pytest.raises(ValueError):
        constructive_generators(g, 0, 1)  # gap(0,1) collides with gap(1,2)


def test_generators_require_coupling():
    g = truncate(custom_system([0.0, 1.0, 2.5],
                               [[0.0, 0.4, 0.0], [0.4, 0.0, 0.4],
                                [0.0, 0.4, 0.0]]), 3)
    with pytest.raises(ValueError):
        constructive_generators(g, 0, 2)  # B[0][2] = 0


# -- perturbation and aggregate ---------------------------------------------


def test_perturbation_certificate_positive():
    W = np.array([[0.3, 0.5, 0.0], [0.5, 0.7 * math.sqrt(2), 0.5],
                  [0.0, 0.5, 0.9 * math.sqrt(3)]])
    s = custom_system([0.0, 1.0, 2.5], W)
    p = perturbation_certificate(s, 3, Q=20)
    assert p.status == "almost_every_mu"
    assert p.relation.status == "none_found_within_bounds"


def test_perturbation_certificate_refuted_by_zero_derivative():
    # zero diagonal entry gives the trivial relation (1, 0, ...)
    s = tridiag_system([0.0, 1.0, 2.5], [0.4, 0.4])
    p = perturbation_certificate(s, 3)
    assert p.status == "refuted"
    assert p.relation.relation == (1, 0, 0)


def test_certify_positive():
    W = np.array([[0.1, 0.5, 0.2], [0.5, -0.4, 0.5], [0.2, 0.5, 0.3]])
    s = custom_system([0.0, 1.0, 1.0 + math.sqrt(2)], W)
    rep = certify(s, 3, Q=30)
    assert rep.overall == "certified"
    assert rep.lie_rank.contains_su
    assert not rep.nonresonant_gaps.found
    doc = rep.to_json()
    assert doc["overall"] == "certified"
    assert doc["options"]["Q"] == 30


def test_certify_refutes_equal_gaps():
    rep = certify(oscillator_system(-1.0, 1.0, levels=5), 4)
    assert rep.overall == "refuted"
    assert rep.nonresonant_gaps.relation == (1, -1, 0)
    assert not rep.pairwise_gaps_distinct.ok


def test_certify_refutes_disconnected():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 0.5
    rep = certify(custom_system([0.0, 1.0, 2.5], W), 3)
    assert rep.overall == "refuted"
    assert rep.connected.invariant_set == (2,)



def test_certify_reads_the_rank_from_the_gap_graph():
    # gaps 1, 1.41 and 2.41 are distinct, so the closure is not run
    W = np.array([[0.1, 0.5, 0.2], [0.5, -0.4, 0.5], [0.2, 0.5, 0.3]])
    s = custom_system([0.0, 1.0, 1.0 + math.sqrt(2)], W)
    with mock.patch.object(certification, "lie_rank",
                           side_effect=AssertionError("closure ran")):
        rep = certify(s, 3)
    lie = rep.lie_rank
    assert (lie.method, lie.tree) == ("gap_graph", ((0, 1), (0, 2)))
    assert (lie.rank, lie.contains_su, lie.stabilized) == (9, True, True)
    assert (lie.depth_reached, lie.max_depth) == (0, 18)
    assert rep.to_json()["lie_rank"]["tree"] == [[0, 1], [0, 2]]
    assert lie_rank(truncate(s, 3)).method == "closure"


def test_gap_edges_drop_a_gap_at_the_threshold():
    # thr = 0.25 max(1, 2) = 0.5 exactly: the coupled gap 0.5 of (0, 1) is
    # not above it, the gap 1.5 of (1, 2) is
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    j, k = certification._gap_edges(np.array([0.0, 0.5, 2.0]), W, 0.25)
    assert (j.tolist(), k.tolist()) == ([1], [2])


def test_certify_depth_cap_binds_only_the_closure():
    # the closure alone stops at depth 0 unstabilized; the graph needs none
    s = tridiag_system([0.0, 1.0, 2.5], [0.4, 0.4])
    assert not lie_rank(truncate(s, 3), max_depth=0).stabilized
    rep = certify(s, 3, max_depth=0)
    assert rep.lie_rank.method == "gap_graph" and rep.lie_rank.contains_su
    assert rep.options["max_depth"] == 0
    with pytest.raises(ValueError, match="max_depth"):
        certify(s, 3, max_depth=-1)


@pytest.mark.parametrize("s, rank", [
    # the chain's two edges share the gap 1: neither survives
    (tridiag_system([0.0, 1.0, 2.0], [0.4, 0.4]), 4),
    # a repeated level: the one coupled pair has no gap
    (custom_system([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]), 1),
], ids=["equal-gaps", "repeated-level"])
def test_certify_falls_back_to_the_closure(s, rank):
    lie = certify(s, s.levels).lie_rank
    assert (lie.method, lie.tree, lie.rank) == ("closure", None, rank)
    assert lie == lie_rank(truncate(s, s.levels))

# -- symmetric-function determinant identity --------------------------------


def elem_sym(vals, r):
    if r == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in combinations(vals, r):
        term = Fraction(1)
        for v in combo:
            term *= v
        total += term
    return total


def build_filter_matrix(q):
    # row k lists the elementary symmetric functions of the other nodes
    N = len(q)
    return [[elem_sym([q[j] for j in range(N) if j != k], r)
             for r in range(N)] for k in range(N)]


def det_exact(M):
    N = len(M)
    total = Fraction(0)
    for perm in permutations(range(N)):
        sign = 1
        for a in range(N):
            for b in range(a + 1, N):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(1)
        for i in range(N):
            term *= M[i][perm[i]]
        total += sign * term
    return total


def test_filter_matrix_determinant_identity():
    """det of the symmetric-function matrix is the pairwise-difference product.

    Exact rational arithmetic; the row ordering used here contributes a sign
    (-1)^(N(N-1)/2), so the row-reversed matrix gives the product itself.
    """
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 50:
        N = int(rng.integers(2, 7))
        qs = set()
        while len(qs) < N:
            v = Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 9)))
            if v != 0:
                qs.add(v)
        q = sorted(qs)
        prod = Fraction(1)
        for j in range(N):
            for k in range(j + 1, N):
                prod *= q[k] - q[j]
        S = build_filter_matrix(q)
        assert det_exact(S) == (-1) ** (N * (N - 1) // 2) * prod
        assert det_exact(S[::-1]) == prod
        checked += 1
