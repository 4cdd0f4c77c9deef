"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Each test prints a single summary line; tolerances and runtime budgets are
pinned in the assertions.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
from scipy.integrate import quad

from bqcontrol.certification import (
    certify,
    constructive_generators,
    lie_rank,
    nonresonance,
    pairwise_gap_distinct,
)
from bqcontrol.linalg import expm_skew
from bqcontrol.models import (
    box3d_lambda_prime,
    custom_system,
    oscillator_system,
    truncate,
)
from bqcontrol.simulation import (
    modulus_drift_check,
    propagate,
    propagate_density,
    steering_time_lower_bound,
)
from bqcontrol.synthesis import (
    PiecewiseConstantControl,
    decoupling_error,
    lift_control,
    reparametrize,
    steer_state,
    steer_unitary,
)


def basis(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def padded(system, order):
    # zero-pad the coupling past the stored levels; the extension has growing
    # gaps and leaves the new levels dark, so stored-block dynamics are intact
    lam = list(system.lam)
    gap = (lam[-1] - lam[0]) / max(1, len(lam) - 1) + 1.0
    while len(lam) < order:
        lam.append(lam[-1] + gap)
        gap += 1.0
    W = np.zeros((order, order))
    W[: system.levels, : system.levels] = system.W
    return truncate(custom_system(lam, W), order)


def test_criterion_01_oscillator_golden_value():
    t0 = time.perf_counter()
    s = oscillator_system(-1.0, 1.0, levels=6)  # normalized c = -1/8
    w01 = s.W[0, 1]
    closed_form = 1.0 / (math.sqrt(2.0) * (1.0 - (-1.0)) ** 1.5)
    assert abs(w01 - 0.25) <= 1e-8
    assert abs(w01 - closed_form) <= 1e-8
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1: W[0][1] = {w01:.10f} (target 0.25, "
          f"err {abs(w01 - 0.25):.2e}), {dt:.2f}s -- PASS")


def test_criterion_02_box_diagonal_coupling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        l = tuple(rng.uniform(0.6, 2.0, size=3))
        alpha = tuple(rng.uniform(-0.8, 0.8, size=3) + 0.2)  # keep away from 0
        triple = tuple(int(k) for k in rng.integers(1, 4, size=3))
        value = box3d_lambda_prime(l, alpha, triple)
        oracle = 1.0
        for d in range(3):
            k, L, a = triple[d], l[d], alpha[d]
            f = lambda x, k=k, L=L, a=a: (2.0 / L) * math.sin(k * math.pi * x / L) ** 2 * math.exp(a * x)
            val, err = quad(f, 0.0, L, limit=200)
            oracle *= val
        worst = max(worst, abs(value - oracle))
        assert abs(value - oracle) <= 1e-8
    # alpha -> 0 limit: every axis factor tends to orthonormality
    lim = box3d_lambda_prime((1.0, 1.3, 0.9), (1e-5, 1e-5, 1e-5), (1, 2, 3))
    assert abs(lim - 1.0) <= 1e-4
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 2: quadrature match, worst err {worst:.2e}; "
          f"alpha->0 gives {lim:.6f}, {dt:.2f}s -- PASS")


def test_criterion_03_resonance_detection():
    t0 = time.perf_counter()
    hit = nonresonance((2.0, 2.0, 2.0, 2.0))
    assert hit.status == "relation_found"
    assert hit.relation == (1, -1, 0, 0)
    miss = nonresonance((1.0, math.sqrt(2.0), math.sqrt(3.0)), Q=100, tol=1e-9)
    assert miss.status == "none_found_within_bounds"
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 3: (2,2,2,2) -> {hit.relation}; (1,sqrt2,sqrt3) -> "
          f"{miss.status} by {miss.method}, {dt:.2f}s -- PASS")


def test_criterion_04_parity_obstruction():
    s = oscillator_system(-1.0, 0.0, levels=6)  # even coupling potential
    # exact parity selection rule on the stored couplings
    j, k = np.indices(s.W.shape)
    assert np.max(np.abs(s.W[(j + k) % 2 == 1])) <= 1e-14
    rep = certify(s, 6)
    assert rep.overall == "refuted"
    assert rep.connected.invariant_set == (0, 2, 4)
    g = truncate(s, 6)
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(100):
        frame = "original" if i % 2 else "reparametrized"
        pieces = []
        for _ in range(int(rng.integers(1, 6))):
            dur = rng.uniform(0.05, 1.0)
            val = rng.uniform(0.01, 0.99) * 0.1 if frame == "original" \
                else 0.1 * rng.uniform(1.1, 10.0)
            pieces.append((dur, val))
        c = PiecewiseConstantControl(frame, pieces, 0.1)
        psi0 = random_state(rng, 6)
        traj = propagate(g, c, psi0, samples_per_piece=4)
        even0 = traj.populations[0, ::2].sum()
        drift = np.max(np.abs(traj.populations[:, ::2].sum(axis=1) - even0))
        worst = max(worst, drift)
        assert drift <= 1e-10
    print(f"criterion 4: refuted with invariant set {rep.connected.invariant_set}; "
          f"even population drift <= {worst:.2e} over 100 controls -- PASS")


def test_criterion_05_lie_generation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 7))
        lam = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=n - 1))])
        if not pairwise_gap_distinct(lam).ok:
            continue
        W = np.zeros((n, n))
        for i in range(n - 1):
            W[i, i + 1] = W[i + 1, i] = rng.uniform(0.3, 1.0)
        g = truncate(custom_system(lam, W), n)
        res = lie_rank(g)
        assert res.rank >= n * n - 1
        for j, k in combinations(range(n), 2):
            if W[j, k] == 0.0:
                continue  # only coupled pairs can be isolated
            gen = constructive_generators(g, j, k)
            worst = max(worst, gen.residual)
            assert gen.residual <= 1e-8
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 5: 20 systems, rank >= n^2-1, generator residual "
          f"<= {worst:.2e}, {dt:.2f}s -- PASS")


def test_criterion_06_end_to_end_steering():
    t0 = time.perf_counter()
    two = custom_system([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    three = custom_system([0.0, 1.0, 1.0 + math.sqrt(2.0)],
                          [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]])
    infid = {}
    for s, src, dst in ((two, 0, 1), (three, 0, 2)):
        n = s.levels
        r = steer_state(truncate(s, n), basis(n, src), basis(n, dst),
                        delta=0.1, tol=1e-3, seed=1)
        assert r.converged
        # verify on the order-2n truncation, not the search model
        gv = padded(s, 2 * n)
        traj = propagate(gv, r.control, basis(2 * n, src), samples_per_piece=1)
        f = abs(np.vdot(basis(2 * n, dst), traj.final)) ** 2
        infid[n] = 1.0 - f
        assert 1.0 - f <= 1e-3
    sq = custom_system([0.0, 1.0, math.sqrt(2.0)],
                       [[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
    raw = PiecewiseConstantControl("reparametrized", [(2.0, 0.25)], 0.1)
    lifted = lift_control(raw, sq, 2, 3, phase_tol=0.05)
    e_raw = decoupling_error(raw, sq, 2, 3)
    e_lift = decoupling_error(lifted, sq, 2, 3)
    assert e_lift < e_raw
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 6: infidelity at order 2n = {infid[2]:.2e} (2-level), "
          f"{infid[3]:.2e} (3-level); decoupling {e_raw:.3f} -> {e_lift:.3f}, "
          f"{dt:.2f}s -- PASS")


def test_criterion_07_lower_bound_soundness():
    rng = np.random.default_rng(707)
    margin = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 5))
        lam = np.sort(rng.uniform(0.0, 5.0, size=n))
        W = rng.uniform(-1.0, 1.0, size=(n, n))
        W = (W + W.T) / 2.0
        s = custom_system(lam, W)
        g = truncate(s, n)
        delta = rng.uniform(0.1, 1.0)
        pieces = [(rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.99) * delta)
                  for _ in range(int(rng.integers(1, 6)))]
        c = PiecewiseConstantControl("original", pieces, delta)
        psi0 = random_state(rng, n)
        traj = propagate(g, c, psi0, samples_per_piece=1)
        bound = steering_time_lower_bound(s, psi0, traj.final, 1e-6, delta)
        margin = min(margin, c.total_duration - bound)
        assert c.total_duration >= bound - 1e-8
        assert modulus_drift_check(g, c, psi0).ok
    print(f"criterion 7: 100 transfers, duration - bound >= {margin:.3f}, "
          f"drift check passed on all -- PASS")


def test_criterion_08_density_matrix_steering():
    s = custom_system([-0.5, 0.5], [[0.0, 0.6], [0.6, 0.0]])
    g = truncate(s, 2)
    eye = np.eye(2, dtype=complex)
    target = expm_skew(0.9 * g.A + g.B, 1.1)
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=3)
    assert r.converged
    assert r.distance <= 1e-3  # Frobenius distance up to global phase
    assert 0.0 <= r.theta <= 2.0 * math.pi / 2
    U = eye
    for t, u in r.control.pieces:
        U = expm_skew(u * g.A + g.B, t) @ U
    phase = np.exp(1j * np.angle(np.trace(U.conj().T @ target)))
    forward = np.linalg.norm(phase * U - target)
    assert forward <= 1e-3 + 1e-10

    sm = custom_system([0.0, 1.0, 1.0 + math.sqrt(2.0)],
                       [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]])
    gm = truncate(sm, 3)
    rng = np.random.default_rng(808)
    pieces = [(rng.uniform(0.05, 0.5), 0.1 * rng.uniform(1.1, 10.0))
              for _ in range(50)]
    c = PiecewiseConstantControl("reparametrized", pieces, 0.1)
    rho0 = np.diag([0.6, 0.3, 0.1]).astype(complex)
    dtraj = propagate_density(gm, c, rho0, samples_per_piece=2)
    assert dtraj.spectrum_drift <= 1e-10
    psi = random_state(rng, 3)
    straj = propagate(gm, c, psi, samples_per_piece=2)
    ptraj = propagate_density(gm, c, np.outer(psi, psi.conj()),
                              samples_per_piece=2)
    proj = np.outer(straj.final, straj.final.conj())
    consistency = np.max(np.abs(proj - ptraj.final))
    assert consistency <= 1e-10
    print(f"criterion 8: unitary distance {r.distance:.2e} at theta "
          f"{r.theta:.4f}; spectrum drift {dtraj.spectrum_drift:.2e}; "
          f"pure-state consistency {consistency:.2e} -- PASS")


def test_criterion_09_numerical_kernels():
    rng = np.random.default_rng(909)
    worst_u = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M = (H - H.conj().T) / 2.0
        U = expm_skew(M, rng.uniform(0.1, 3.0))
        worst_u = max(worst_u, np.max(np.abs(U.conj().T @ U - np.eye(n))))
    assert worst_u <= 1e-12

    lam = [0.0, 1.0, 1.0 + math.sqrt(2.0), 4.1]
    W = rng.uniform(-0.5, 0.5, size=(4, 4))
    s = custom_system(lam, (W + W.T) / 2.0)
    g = truncate(s, 4)
    pieces = [(rng.uniform(0.01, 0.2), 0.1 * rng.uniform(1.1, 10.0))
              for _ in range(1000)]
    c = PiecewiseConstantControl("reparametrized", pieces, 0.1)
    traj = propagate(g, c, basis(4, 0), samples_per_piece=1)
    assert traj.norm_drift <= 1e-10

    orig = [(rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.99) * 0.1)
            for _ in range(30)]
    co = PiecewiseConstantControl("original", orig, 0.1)
    a = propagate(g, co, basis(4, 0), samples_per_piece=1).final
    b = propagate(g, reparametrize(co), basis(4, 0), samples_per_piece=1).final
    frame_gap = np.max(np.abs(a - b))
    assert frame_gap <= 1e-10
    print(f"criterion 9: unitarity defect {worst_u:.2e}; 1000-piece norm "
          f"drift {traj.norm_drift:.2e}; frame gap {frame_gap:.2e} -- PASS")


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


def test_criterion_10_symmetric_filter_determinant():
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 50:
        N = int(rng.integers(2, 7))
        qs = set()
        while len(qs) < N:
            v = Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 9)))
            if v != 0:
                qs.add(v)
        q = sorted(qs)
        S = [[elem_sym([q[j] for j in range(N) if j != k], r)
              for r in range(N)] for k in range(N)]
        prod = Fraction(1)
        for j in range(N):
            for k in range(j + 1, N):
                prod *= q[k] - q[j]
        # exact equality in rational arithmetic; this row ordering carries
        # the sign (-1)^(N(N-1)/2), the reversed one yields the product itself
        assert det_exact(S) == (-1) ** (N * (N - 1) // 2) * prod
        assert det_exact(S[::-1]) == prod
        checked += 1
    print("criterion 10: 50 exact determinant identities, N <= 6 -- PASS")
