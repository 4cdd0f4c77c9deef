"""Tests for control containers, steering search and the lift."""

import collections
import json
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bqcontrol import synthesis
from bqcontrol.linalg import _piece_factors, expm_skew
from bqcontrol.models import (box3d_system, custom_system, oscillator_system,
                              truncate)
from bqcontrol.simulation import propagate
from bqcontrol.synthesis import (
    PhaseSearchError,
    PiecewiseConstantControl,
    control_from_json,
    control_to_json,
    decoupling_error,
    dump_control,
    final_state,
    lift_control,
    load_control,
    reparametrize,
    steer_state,
    steer_unitary,
)

TWO_LEVEL = custom_system([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
THREE_LEVEL = custom_system([0.0, 1.0, 2.5],
                            [[0.0, 0.4, 0.1],
                             [0.4, 0.0, 0.4],
                             [0.1, 0.4, 0.0]])


def basis(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


# -- control container -------------------------------------------------------


def test_control_basic_accounting():
    c = PiecewiseConstantControl("reparametrized", [(1.0, 2.0), (0.5, 4.0)], 0.1)
    assert c.npieces == 2
    assert c.total_duration == 1.5
    assert c.integrated_value == 1.0 * 2.0 + 0.5 * 4.0


def test_control_value_ranges_per_frame():
    PiecewiseConstantControl("original", [(1.0, 0.05)], 0.1)
    with pytest.raises(ValueError):
        PiecewiseConstantControl("original", [(1.0, 0.2)], 0.1)  # above delta
    PiecewiseConstantControl("reparametrized", [(1.0, 0.2)], 0.1)
    with pytest.raises(ValueError):
        PiecewiseConstantControl("reparametrized", [(1.0, 0.05)], 0.1)
    with pytest.raises(ValueError):
        PiecewiseConstantControl("reparametrized", [(-1.0, 0.2)], 0.1)
    with pytest.raises(ValueError):
        PiecewiseConstantControl("sideways", [(1.0, 0.2)], 0.1)
    # empty control is legal in either frame
    assert PiecewiseConstantControl("original", [], 0.1).npieces == 0


def test_control_array_frame_is_named():
    with pytest.raises(ValueError, match=r"^frame must be one of"):
        PiecewiseConstantControl(np.array([1.0, 2.0]), [(1.0, 0.5)], 1.0)


def test_control_rejects_nonfinite_pieces():
    for piece in [(1.0, math.inf), (math.nan, 0.2), (math.inf, 0.2)]:
        with pytest.raises(ValueError, match="finite"):
            PiecewiseConstantControl("reparametrized", [piece], 0.1)
    with pytest.raises(ValueError, match="finite"):
        PiecewiseConstantControl("reparametrized", [], math.inf)
    tiny = PiecewiseConstantControl("original", [(1.0, 1e-310)], 0.1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        reparametrize(tiny)  # 1 / 1e-310 overflows


def test_final_state_rejects_overflowing_control():
    g = truncate(THREE_LEVEL, 3)
    for piece in [(1e308, 1e308), (1e308, 1.0)]:
        c = PiecewiseConstantControl("reparametrized", [piece], 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            final_state(g, c, basis(3, 0))


def test_reparametrize_single_piece():
    c = PiecewiseConstantControl("original", [(2.0, 0.5)], 1.0)
    r = reparametrize(c)
    assert r.frame == "reparametrized"
    assert r.pieces == ((1.0, 2.0),)
    assert r.delta == 1.0  # bound maps delta -> 1/delta


def test_reparametrize_is_involutive():
    c = PiecewiseConstantControl("original", [(2.0, 0.5), (0.3, 0.9)], 1.0)
    rr = reparametrize(reparametrize(c))
    assert rr.frame == "original"
    assert np.allclose(rr.durations, c.durations, rtol=1e-15, atol=0)
    assert np.allclose(rr.values, c.values, rtol=1e-15, atol=0)


def test_reparametrize_preserves_propagator():
    rng = np.random.default_rng(11)
    g = truncate(TWO_LEVEL, 2)
    for _ in range(20):
        t = rng.uniform(0.1, 3.0)
        u = rng.uniform(0.01, 0.99)
        c = PiecewiseConstantControl("original", [(t, u)], 1.0)
        r = reparametrize(c)
        U1 = expm_skew(g.A + u * g.B, t)
        (t2, u2), = r.pieces
        U2 = expm_skew(u2 * g.A + g.B, t2)
        assert np.max(np.abs(U1 - U2)) < 1e-10


def test_control_json_round_trip(tmp_path):
    c = PiecewiseConstantControl("reparametrized", [(1.0, 2.0), (0.5, 4.0)],
                                 0.1, meta={"seed": 3})
    doc = json.loads(json.dumps(control_to_json(c)))
    c2 = control_from_json(doc)
    assert c2.frame == c.frame and c2.delta == c.delta
    assert c2.pieces == c.pieces
    assert c2.meta["seed"] == 3

    path = tmp_path / "control.json"
    dump_control(c, path)
    c3 = load_control(path)
    assert c3.pieces == c.pieces


# -- state steering -----------------------------------------------------------


def test_steer_state_identity_target():
    g = truncate(TWO_LEVEL, 2)
    r = steer_state(g, basis(2, 0), basis(2, 0), delta=0.1)
    assert r.converged and r.infidelity == 0.0
    assert r.control.npieces == 0


def test_steer_state_phase_quotient():
    g = truncate(TWO_LEVEL, 2)
    r = steer_state(g, basis(2, 0), np.exp(0.7j) * basis(2, 0), delta=0.1)
    assert r.control.npieces == 0  # projective target semantics


def test_steer_state_two_level_transfer():
    g = truncate(TWO_LEVEL, 2)
    r = steer_state(g, basis(2, 0), basis(2, 1), delta=0.1, tol=1e-3, seed=0)
    assert r.converged
    assert r.infidelity <= 1e-3
    # closed loop: re-propagating the returned control reproduces the score
    traj = propagate(g, r.control, basis(2, 0))
    assert 1.0 - abs(np.vdot(basis(2, 1), traj.final)) ** 2 <= 1e-3
    # values respect the reparametrized frame and the documented ceiling
    assert np.all(r.control.values > 0.1)
    assert np.all(r.control.values <= 0.1 * 1e3)


def hex_pieces(c):
    return [(float.hex(t), float.hex(u)) for t, u in c.pieces]


def test_steer_state_deterministic_per_seed():
    g = truncate(TWO_LEVEL, 2)
    a = steer_state(g, basis(2, 0), basis(2, 1), delta=0.1, seed=7)
    b = steer_state(g, basis(2, 0), basis(2, 1), delta=0.1, seed=7)
    assert np.array_equal(a.control.durations, b.control.durations)
    assert np.array_equal(a.control.values, b.control.values)
    assert a.infidelity == b.infidelity
    # the same for a unitary search: bit-identical pieces, count and phase
    g3 = truncate(THREE_LEVEL, 3)
    eye = np.eye(3, dtype=complex)
    target = expm_skew(0.7 * g3.A + g3.B, 1.9)
    a, b = (steer_unitary(g3, eye, target, delta=0.1, seed=7) for _ in "ab")
    assert a.control.npieces > 0
    assert hex_pieces(a.control) == hex_pieces(b.control)
    assert a.evaluations == b.evaluations
    assert float.hex(a.theta) == float.hex(b.theta)


def test_steer_state_budget_exhaustion_tags_unconverged():
    g = truncate(THREE_LEVEL, 3)
    r = steer_state(g, basis(3, 0), basis(3, 2), delta=0.1, tol=1e-12,
                    budget=300, seed=0)
    assert not r.converged
    assert r.control.meta.get("unconverged") is True
    assert 0.0 <= r.infidelity <= 1.0


def test_steer_state_validates_inputs():
    g = truncate(TWO_LEVEL, 2)
    with pytest.raises(ValueError):
        steer_state(g, basis(2, 0) * 2.0, basis(2, 1), delta=0.1)
    with pytest.raises(ValueError):
        steer_state(g, basis(2, 0), basis(2, 1), delta=-1.0)
    with pytest.raises(ValueError):
        steer_state(g, np.zeros(3, dtype=complex), basis(2, 1), delta=0.1)


# -- unitary steering ----------------------------------------------------------


def test_steer_unitary_identity():
    g = truncate(TWO_LEVEL, 2)
    eye = np.eye(2, dtype=complex)
    r = steer_unitary(g, eye, eye, delta=0.1)
    assert r.converged and r.theta == 0.0
    assert r.control.npieces == 0


def test_steer_unitary_forward_target():
    g = truncate(TWO_LEVEL, 2)
    eye = np.eye(2, dtype=complex)
    target = expm_skew(0.8 * g.A + g.B, 1.3)  # reachable by construction
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=0)
    assert r.converged
    assert r.distance <= 1e-3
    U = eye
    for t, u in r.control.pieces:
        U = expm_skew(u * g.A + g.B, t) @ U
    assert np.linalg.norm(np.exp(1j * r.theta) * U - target) <= 2e-3


def test_steer_unitary_su2_target_on_the_circle():
    # tr A = tr B = 0: the propagators lie in SU(2), and theta may be either
    # of the two phases pi apart that meet the target
    s = custom_system([-0.5, 0.5], [[0.0, 0.6], [0.6, 0.0]])
    g = truncate(s, 2)
    eye = np.eye(2, dtype=complex)
    target = expm_skew(0.9 * g.A + g.B, 1.1)
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=0)
    assert 0.0 <= r.theta < 2.0 * math.pi
    if r.converged:
        U = eye
        for t, u in r.control.pieces:
            U = expm_skew(u * g.A + g.B, t) @ U
        assert np.linalg.norm(np.exp(1j * r.theta) * U - target) <= 2e-3


def test_steer_unitary_unconverged_theta_matches_distance():
    # the budget is too small to converge, so theta is the best phase of an
    # unconverged control, anywhere on the circle
    s = custom_system([-1.1, 0.2, 0.9],
                      [[0.0, 0.5, 0.2], [0.5, 0.0, 0.4], [0.2, 0.4, 0.0]])
    g = truncate(s, 3)
    eye = np.eye(3, dtype=complex)
    target = eye
    for t, u in ((0.6, 0.7), (1.1, 1.9), (0.5, 0.4)):
        target = expm_skew(u * g.A + g.B, t) @ target
    for seed in range(4):
        r = steer_unitary(g, eye, target, delta=0.1, budget=3000, seed=seed)
        assert r.evaluations <= 3000
        assert 0.0 <= r.theta < 2.0 * math.pi
        U = eye
        for t, u in r.control.pieces:
            U = expm_skew(u * g.A + g.B, t) @ U
        phased = np.linalg.norm(np.exp(1j * r.theta) * U - target)
        assert abs(r.distance - phased) <= 1e-9


@st.composite
def zero_trace_targets(draw):
    """(g, g1) at n = 2-4: tr A = tr B = 0, and g1 is three pieces' product
    times a random phase, so any of n phases 2 pi / n apart may meet it."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(0.0, 4.0, n)
    W = rng.normal(size=(n, n))
    W = W + W.T - 2.0 * np.trace(W) / n * np.eye(n)
    g = truncate(custom_system(lam - lam.mean(), W), n)
    g1 = values_pass(g, np.eye(n, dtype=complex), rng.uniform(0.2, 1.5, 3),
                     rng.uniform(0.2, 2.0, 3))
    return g, np.exp(2j * math.pi * rng.uniform()) * g1


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(zero_trace_targets(), st.integers(0, 2))
def test_steer_unitary_zero_trace_theta_and_distance(case, seed):
    # theta lies on the whole circle and the reported distance is the one
    # at theta, for the propagator rebuilt from the returned pieces
    g, g1 = case
    eye = np.eye(g.order, dtype=complex)
    r = steer_unitary(g, eye, g1, delta=0.1, budget=3000, seed=seed)
    assert 0.0 <= r.theta < 2.0 * math.pi
    U = eye
    for t, u in r.control.pieces:
        U = scipy.linalg.expm(t * (u * g.A + g.B)) @ U
    phased = np.linalg.norm(np.exp(1j * r.theta) * U - g1)
    assert abs(r.distance - phased) <= 1e-9
    assert not r.converged or r.distance <= 1e-3


def test_steering_meta_keys_in_order():
    # control.json bytes follow the key order of control.meta
    g2, g3 = truncate(TWO_LEVEL, 2), truncate(THREE_LEVEL, 3)
    cases = [
        (steer_state(g2, basis(2, 0), basis(2, 1), delta=0.1, seed=0),
         ["seed", "target", "infidelity"]),
        (steer_state(g3, basis(3, 0), basis(3, 2), delta=0.1, tol=1e-12,
                     budget=300, seed=0),
         ["seed", "target", "infidelity", "unconverged"]),
        (steer_state(g2, basis(2, 0), basis(2, 0), delta=0.1, seed=4),
         ["seed", "target"]),
    ]
    for r, keys in cases:
        assert list(r.control.meta) == keys
        assert r.control.meta["target"] == "state"
        assert r.converged == ("unconverged" not in keys)
        if "infidelity" in keys:
            assert r.control.meta["infidelity"] == r.infidelity
    assert cases[2][0].control.meta["seed"] == 4


def test_steering_unitary_meta_keys_in_order():
    g = truncate(TWO_LEVEL, 2)
    eye = np.eye(2, dtype=complex)
    target = expm_skew(0.8 * g.A + g.B, 1.3)
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=0)
    assert r.converged
    assert list(r.control.meta) == ["seed", "target", "distance", "theta"]
    assert r.control.meta["target"] == "unitary"
    assert r.control.meta["distance"] == r.distance
    assert r.control.meta["theta"] == r.theta

    s = custom_system([-1.1, 0.2, 0.9],
                      [[0.0, 0.5, 0.2], [0.5, 0.0, 0.4], [0.2, 0.4, 0.0]])
    g3 = truncate(s, 3)
    target3 = expm_skew(0.7 * g3.A + g3.B, 1.9)
    r = steer_unitary(g3, np.eye(3, dtype=complex), target3, delta=0.1,
                      tol=1e-12, budget=300, seed=0)
    assert not r.converged
    assert list(r.control.meta) == ["seed", "target", "distance", "theta",
                                    "unconverged"]


@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_trivial_unitary_target_keeps_phase_distance(phase):
    # g1 = e^{i phase} g0 is met at g0: the empty control, with theta and
    # the distance of g0 itself
    g = truncate(THREE_LEVEL, 3)
    g0 = expm_skew(g.B, 0.5)
    g1 = np.exp(1j * phase) * g0
    r = steer_unitary(g, g0, g1, delta=0.1, seed=2)
    assert r.converged and r.control.npieces == 0 and r.evaluations == 0
    assert list(r.control.meta) == ["seed", "target"]
    assert (r.distance, r.theta) == synthesis._phase_distance(g0, g1)
    assert r.theta == pytest.approx(phase, abs=1e-12)


@st.composite
def unitary_pairs(draw):
    """(U, G): random n x n unitaries."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(np.linalg.qr(rng.normal(size=(n, n))
                              + 1j * rng.normal(size=(n, n)))[0]
                 for _ in range(2))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(unitary_pairs())
def test_phase_distance_is_circle_minimum(p):
    U, G = p
    d, theta = synthesis._phase_distance(U, G)
    assert 0.0 <= theta < 2.0 * math.pi
    assert abs(d - np.linalg.norm(np.exp(1j * theta) * U - G)) <= 1e-12
    grid = np.linspace(0.0, 2.0 * math.pi, 256)
    on_grid = np.linalg.norm(
        np.exp(1j * grid)[:, None, None] * U - G, axis=(1, 2))
    assert on_grid.min() >= d - 1e-12


def test_reported_evaluations_are_objective_calls(monkeypatch):
    # evaluations count objective calls of the search: each start score and
    # each L-BFGS trial point, scored by value, calls h once (the gradient,
    # taken only at points the refinement steps from, reuses that call's
    # cotangent), and one more call scores x0 itself before the search; the
    # starts of a piece count share one kernel call, so kernel calls stay
    # fewer than evaluations
    scored, calls = [], []
    steer, factors = synthesis._steer, synthesis._piece_factors

    def counted_steer(g, x0, h, *args):
        def counted(x):
            scored.append(1)
            return h(x)
        return steer(g, x0, counted, *args)

    def counted_factors(*args):
        calls.append(1)
        return factors(*args)

    monkeypatch.setattr(synthesis, "_steer", counted_steer)
    monkeypatch.setattr(synthesis, "_piece_factors", counted_factors)
    g = truncate(oscillator_system(-0.5, 0.3), 3)
    res = steer_state(g, basis(3, 0), basis(3, 1), delta=0.1, seed=1,
                      budget=5000)
    assert res.evaluations == len(scored) - 1 <= 5000
    assert len(calls) < res.evaluations


def test_budget_too_small_to_search_rejected():
    g = truncate(THREE_LEVEL, 3)
    with pytest.raises(ValueError, match="at least 125"):
        steer_state(g, basis(3, 0), basis(3, 1), delta=0.1, budget=100)
    with pytest.raises(ValueError, match="at least 125"):
        steer_unitary(g, np.eye(3, dtype=complex), expm_skew(g.B, 0.5),
                      delta=0.1, budget=100)


def test_steer_unitary_rejects_nonunitary():
    g = truncate(TWO_LEVEL, 2)
    with pytest.raises(ValueError):
        steer_unitary(g, 1.5 * np.eye(2, dtype=complex),
                      np.eye(2, dtype=complex), delta=0.1)


# -- exact gradients and the L-BFGS refinement -------------------------------


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0]


def random_generators(rng, n):
    W = rng.normal(size=(n, n))
    return truncate(custom_system(np.sort(rng.uniform(0.0, 4.0, n)), W + W.T),
                    n)


def full_pass(g, x0, q):
    """x_m for the parameters q, one factor at a time."""
    m = len(q) // 2
    return values_pass(g, x0, q[:m], np.exp(q[m:]))


def values_pass(g, x0, t, u):
    """x_m for durations t and reparametrized values u, one factor at a
    time."""
    x = x0
    for F in _piece_factors(g.A, g.B, t, u, "reparametrized")[-1]:
        x = F @ x
    return x


@st.composite
def objectives(draw):
    """(g, x0, h, p) with n = 2-5 and m = 1-8: h is a state infidelity or
    a phase fit."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_generators(rng, n)
    p = np.concatenate([rng.uniform(0.05, 2.0, m),
                        rng.uniform(math.log(0.1), math.log(5.0), m)])
    if draw(st.booleans()):
        x0 = random_unitary(rng, n)[:, :1]
        return g, x0, synthesis._infidelity(np.eye(n)[draw(
            st.integers(0, n - 1))]), p
    g0, g1 = random_unitary(rng, n), random_unitary(rng, n)
    return g, np.eye(n, dtype=complex), synthesis._phase_fit(g0, g1), p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(objectives())
def test_gradient_matches_central_differences(case):
    g, x0, h, p = case
    value, finish = synthesis._value_and_gradient(g, x0, h, p)
    grad = finish()
    assert value == h(full_pass(g, x0, p))[0]
    eps = 1e-6
    central = np.array([
        (h(full_pass(g, x0, p + eps * e))[0]
         - h(full_pass(g, x0, p - eps * e))[0]) / (2.0 * eps)
        for e in np.eye(len(p))])
    scale = max(1.0, np.max(np.abs(central)))
    assert np.max(np.abs(grad - central)) <= 1e-6 * scale


def test_phase_fit_gradient_is_zero_at_distance_zero():
    eye = np.eye(3, dtype=complex)
    value, C = synthesis._phase_fit(eye, eye)(eye)
    assert value == 0.0 and C.shape == (3, 3) and not np.any(C)


@st.composite
def refinements(draw):
    """An objective, a start in a box with pinned coordinates, a cap and
    a tol between 0 and the start's score."""
    g, x0, h, p = draw(objectives())
    m = len(p) // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.array([1e-3] * m + [math.log(0.1)] * m)
    hi = np.array([synthesis.MAX_DURATION] * m + [math.log(100.0)] * m)
    p = rng.uniform(lo, hi)
    pinned = rng.random(2 * m) < draw(st.sampled_from([0.0, 0.3]))
    p[pinned] = np.where(rng.random(2 * m) < 0.5, lo, hi)[pinned]
    cap = draw(st.integers(1, 120))
    frac = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    return g, x0, h, p, lo, hi, cap, frac * h(full_pass(g, x0, p))[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(refinements())
def test_lbfgs_invariants(case):
    g, x0, h, p, lo, hi, cap, tol = case
    trials = []  # (point, value) of every evaluation
    value_and_gradient = synthesis._value_and_gradient

    def spy(g, x0, h, q):
        out = value_and_gradient(g, x0, h, q)
        trials.append((q.copy(), out[0]))
        return out

    with mock.patch.object(synthesis, "_value_and_gradient", spy):
        q, score, used = synthesis._lbfgs(g, x0, h, p, lo, hi, cap, tol)
    # every iterate stays inside the box, and evaluations are calls <= cap
    assert all(np.all(lo <= t) and np.all(t <= hi) for t, _ in trials)
    assert used == len(trials) <= cap
    # the result is an evaluated point, no worse than the start
    assert any(np.array_equal(q, t) and score == v for t, v in trials)
    assert score <= trials[0][1] == h(full_pass(g, x0, p))[0]
    # the search returns at the first point scoring tol or below
    hits = [k for k, (_, v) in enumerate(trials) if v <= tol]
    if hits:
        assert hits[0] == len(trials) - 1 and score <= tol
    # the best score never rises: a larger cap follows the same path
    # and ends no higher
    if cap > 1:
        shorter = synthesis._lbfgs(g, x0, h, p, lo, hi, cap // 2, tol)
        assert score <= shorter[1]


def test_lbfgs_returns_at_tol_even_short_of_armijo():
    # the first trial scores 0.99 <= tol, far less of a drop than the
    # gradient predicts; the search still stops there
    start = np.array([1.0, 1.0])

    def surface(g, x0, h, q):
        value = 1.0 if np.array_equal(q, start) else 0.99
        return value, lambda: np.full(2, 100.0)

    with mock.patch.object(synthesis, "_value_and_gradient", surface):
        q, score, used = synthesis._lbfgs(None, None, None, start,
                                          np.zeros(2), np.full(2, 5.0),
                                          50, 0.995)
    assert (score, used) == (0.99, 2) and np.array_equal(q, [0.0, 0.0])


def always_gradient_lbfgs(g, x0, h, p, lo, hi, cap, tol, steps_from=None):
    """The projected L-BFGS refinement as it ran when every trial point took
    its gradient, kept here as the reference for the value-only trials.
    steps_from, when given, collects the trial index of each point the
    search computes a direction from (once per attempt)."""
    def evaluate(q):
        value, finish = synthesis._value_and_gradient(g, x0, h, q)
        return value, finish()

    f, grad = evaluate(p)
    used, at = 1, 0
    pairs = collections.deque(maxlen=synthesis._HISTORY)
    recent = collections.deque([f], maxlen=synthesis._STALL + 1)
    while f > tol and used < cap:
        if steps_from is not None:
            steps_from.append(at)
        free = ~(((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0)))
        top = np.max(np.abs(grad * free))
        if not top > synthesis._GRAD_FLOOR:
            break
        if pairs:
            d = -synthesis._two_loop(grad * free, pairs) * free
        if not pairs or not d @ grad < 0:
            pairs.clear()
            d = -grad * free / top
        step, moved = 1.0, False
        for _ in range(synthesis._HALVINGS):
            q = np.minimum(hi, np.maximum(lo, p + step * d))
            if used >= cap or not np.any(q != p):
                break
            fq, gq = evaluate(q)
            used += 1
            if fq <= tol or fq < f and fq - f <= synthesis._ARMIJO * (
                    grad @ (q - p)):
                moved = True
                break
            step *= 0.5
        if not moved:
            if not pairs:
                break
            pairs.clear()
            continue
        s, y = q - p, gq - grad
        sy = s @ y
        if sy > 1e-10 * (y @ y):
            pairs.append((s, y, 1.0 / sy))
        p, f, grad, at = q, fq, gq, used - 1
        recent.append(f)
        if (len(recent) > synthesis._STALL
                and recent[0] - f < synthesis._STALL_DROP * recent[0]):
            break
    return p, f, used


def counting_gradients(values, finished):
    """A _value_and_gradient that appends each trial's value to `values` and
    the trial index of each gradient it finishes to `finished`."""
    real = synthesis._value_and_gradient

    def spy(g, x0, h, q):
        value, finish = real(g, x0, h, q)
        k = len(values)
        values.append(value)

        def counted():
            finished.append(k)
            return finish()

        return value, counted

    return spy


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(refinements())
def test_lbfgs_matches_always_gradient_loop(case):
    g, x0, h, p, lo, hi, cap, tol = case
    values, finished, steps_from = [], [], []
    with mock.patch.object(synthesis, "_value_and_gradient",
                           counting_gradients(values, finished)):
        q, score, used = synthesis._lbfgs(g, x0, h, p, lo, hi, cap, tol)
    q0, score0, used0 = always_gradient_lbfgs(g, x0, h, p, lo, hi, cap, tol,
                                              steps_from)
    assert q.tobytes() == q0.tobytes()
    assert float(score).hex() == float(score0).hex() and used == used0
    # a gradient once at the start, then once per accepted step the search
    # goes on from: never at a rejected trial, twice at one point, or at a
    # step that ends the search by reaching tol
    assert finished == [0] + [k for k in dict.fromkeys(steps_from) if k]
    assert all(values[k] > tol for k in finished[1:])


QUICKSTART = custom_system([0.0, 1.0, 1.0 + math.sqrt(2.0)],
                           [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4],
                            [0.1, 0.4, 0.0]])


def quickstart_e1_e3():
    return steer_state(truncate(QUICKSTART, 3), basis(3, 0), basis(3, 2),
                       delta=0.1, tol=1e-3, seed=1)


def fixed3_target(g):
    """A reachable target: three reparametrized pieces on the quick-start
    system."""
    target = np.eye(3, dtype=complex)
    for t, u in ((0.7, 0.5), (1.3, 2.0), (0.4, 0.9)):
        target = expm_skew(u * g.A + g.B, t) @ target
    return target


def fixed3_reduced():
    g = truncate(QUICKSTART, 3)
    return steer_unitary(g, np.eye(3, dtype=complex), fixed3_target(g),
                         delta=0.1, tol=1e-3, budget=3000, seed=0)


@pytest.mark.parametrize("search", [quickstart_e1_e3, fixed3_reduced])
def test_seeded_searches_match_always_gradient_loop(search):
    def answer(r):
        return ([(t.hex(), u.hex()) for t, u in r.control.pieces],
                r.evaluations, r.converged,
                float(getattr(r, "theta", math.nan)).hex(),
                float(getattr(r, "infidelity", getattr(r, "distance",
                                                       math.nan))).hex())

    new = answer(search())
    with mock.patch.object(synthesis, "_lbfgs", always_gradient_lbfgs):
        assert new == answer(search())


def test_quickstart_search_takes_fewer_gradients_than_evaluations():
    values, finished = [], []
    with mock.patch.object(synthesis, "_value_and_gradient",
                           counting_gradients(values, finished)):
        r = quickstart_e1_e3()
    assert r.converged and 0 < len(finished) < len(values) < r.evaluations


def reference_partial_products(x, factors):
    """_partial_products as it stood before the trim."""
    xs = np.empty((len(factors) + 1, *np.shape(x)), dtype=complex)
    xs[0] = x
    for F, a, b in zip(factors, xs, xs[1:]):
        np.matmul(F, a, out=b)
    return xs


def reference_value_and_gradient(g, x0, h, p):
    """_value_and_gradient as its formulas stood before the search's numpy
    calls were trimmed (np.swapaxes, np.diagonal, np.sum, np.real, np.imag,
    V^H built again from V, np.ones_like), kept as the reference that every
    trim must match bit for bit.  Only the eigenpairs and phases come from
    the kernel: F is rebuilt from them by the kernel's previous formula, so
    the kernel's own F and V^H are pinned too."""
    m = len(p) // 2
    t, w = p[:m], p[m:]
    u = np.exp(w)
    omega, V, _, phases, _ = _piece_factors(g.A, g.B, t, u, "reparametrized")
    F = (V * phases[:, None, :]) @ np.swapaxes(V.conj(), -1, -2)
    xs = reference_partial_products(x0, F)
    value, C = h(xs[-1])

    def finish():
        Fh = np.swapaxes(F[:0:-1].conj(), -1, -2)
        lams = reference_partial_products(C, Fh)[::-1]
        Vh = np.swapaxes(V.conj(), -1, -2)
        O = (Vh @ lams).conj() @ np.swapaxes(Vh @ xs[:-1], -1, -2)
        half = 0.5 * t[:, None] * omega
        diff = half[:, :, None] - half[:, None, :]
        sinc = np.divide(np.sin(diff), diff, out=np.ones_like(diff),
                         where=diff != 0.0)
        root = np.exp(-1j * half)
        GO = root[:, :, None] * root[:, None, :] * sinc * O
        grad_t = np.imag(np.sum(np.diagonal(GO, axis1=1, axis2=2) * omega,
                                axis=1))
        grad_w = np.real(np.sum(GO * (Vh @ g.A @ V), axis=(1, 2))) * t * u
        return np.concatenate([grad_t, grad_w])

    return value, finish


def reference_two_loop(grad, pairs):
    """_two_loop with the matmul operator and numpy scalars, the reference
    of its trimmed form."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    _, y, rho = pairs[-1]
    q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(objectives(), st.integers(1, synthesis._HISTORY))
def test_search_kernels_match_reference_formulas(case, history):
    # the value, the gradient and the L-BFGS product are the references'
    # to the last bit; the pairs come from gradients at nearby points
    g, x0, h, p = case
    value, finish = synthesis._value_and_gradient(g, x0, h, p)
    ref_value, ref_finish = reference_value_and_gradient(g, x0, h, p)
    grad = finish()
    assert float(value).hex() == float(ref_value).hex()
    assert np.array_equal(grad, ref_finish())
    rng = np.random.default_rng(history)
    pairs = collections.deque(maxlen=synthesis._HISTORY)
    for _ in range(history):
        q = p + rng.normal(0.0, 0.1, len(p))
        s = q - p
        y = reference_value_and_gradient(g, x0, h, q)[1]() - grad
        pairs.append((s, y, 1.0 / (s @ y)))
    assert np.array_equal(synthesis._two_loop(grad, pairs),
                          reference_two_loop(grad, pairs))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("target", ["state", "unitary"])
def test_seeded_searches_match_reference_formulas(target, seed):
    # the whole search on the reference kernels and the reference L-BFGS
    # loop returns the same control, evaluation count and verdict
    g = truncate(QUICKSTART, 3)
    eye = np.eye(3, dtype=complex)

    def answer():
        if target == "state":
            r = steer_state(g, eye[0], eye[2], delta=0.1, tol=1e-3,
                            budget=3000, seed=seed)
        else:
            r = steer_unitary(g, eye, fixed3_target(g), delta=0.1, tol=1e-3,
                              budget=3000, seed=seed)
        return ([(t.hex(), u.hex()) for t, u in r.control.pieces],
                r.evaluations, r.converged)

    new = answer()
    with mock.patch.object(synthesis, "_value_and_gradient",
                           reference_value_and_gradient), \
            mock.patch.object(synthesis, "_two_loop", reference_two_loop), \
            mock.patch.object(synthesis, "_lbfgs", always_gradient_lbfgs):
        assert answer() == new


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(refinements())
def test_search_starts_score_full_passes(case):
    # the starts of a search, scored from one kernel call, score full passes
    g, x0, h, p, lo, hi, cap, _ = case
    m = len(p) // 2
    batches, scores = [], []

    def spy(A, B, t, u, frame):
        batches.append((np.array(t), np.array(u)))
        return factors(A, B, t, u, frame)

    def recorded(x):
        scores.append(h(x)[0])
        return scores[-1], None

    factors = synthesis._piece_factors
    with mock.patch.object(synthesis, "_piece_factors", spy):
        _, best, used = synthesis._search(g, x0, recorded, m, 0.1, 0.0,
                                          np.random.default_rng(cap),
                                          synthesis.N_STARTS)
    (t, u), = batches
    assert used == len(t) // m == synthesis.N_STARTS
    assert scores == [h(values_pass(g, x0, t[k:k + m], u[k:k + m]))[0]
                      for k in range(0, len(t), m)]
    assert best == min(scores)


def test_steer_unitary_reaches_fixed3_target():
    g = truncate(QUICKSTART, 3)
    eye = np.eye(3, dtype=complex)
    target = fixed3_target(g)
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=0)
    assert r.converged and r.distance <= 1e-3
    U = final_state(g, r.control, eye)
    assert np.linalg.norm(np.exp(1j * r.theta) * U - target) <= 1e-3 + 1e-12


@pytest.mark.parametrize("s", [0, 3])
def test_steer_state_reaches_box5_targets(s):
    # e1 driven by three random pieces on the 5-level box truncation
    g = truncate(box3d_system((1.0, 1.3, 1.7), (0.5, 0.7, 0.9)), 5)
    rng = np.random.default_rng(s)
    pieces = zip(rng.uniform(0.2, 1.0, 3), rng.uniform(0.3, 3.0, 3))
    x1 = basis(5, 0)
    for t, u in pieces:
        x1 = expm_skew(u * g.A + g.B, t) @ x1
    r = steer_state(g, basis(5, 0), x1, delta=0.1, tol=1e-3, seed=s)
    assert r.converged and r.infidelity <= 1e-3
    assert 1.0 - abs(np.vdot(x1, final_state(g, r.control,
                                             basis(5, 0)))) ** 2 <= 1e-3


# -- oscillation lift ----------------------------------------------------------


SQRT2_SYS = custom_system([0.0, 1.0, math.sqrt(2)],
                          [[0.0, 0.5, 0.3],
                           [0.5, 0.0, 0.4],
                           [0.3, 0.4, 0.0]])


def test_lift_noop_when_orders_match():
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.3)], 0.1)
    assert lift_control(c, SQRT2_SYS, 3, 3) is c


def test_lift_requires_reparametrized_frame():
    c = PiecewiseConstantControl("original", [(1.0, 0.05)], 0.1)
    with pytest.raises(ValueError):
        lift_control(c, SQRT2_SYS, 2, 3)


def test_lift_reduces_decoupling_error():
    raw = PiecewiseConstantControl("reparametrized", [(2.0, 0.25)], 0.1)
    lifted = lift_control(raw, SQRT2_SYS, 2, 3, phase_tol=0.05)
    e_raw = decoupling_error(raw, SQRT2_SYS, 2, 3)
    e_lift = decoupling_error(lifted, SQRT2_SYS, 2, 3)
    assert e_lift < e_raw  # strict improvement
    assert lifted.npieces == 2 * 8 * raw.npieces  # ramp+hold per subinterval


def test_lift_plateaus_satisfy_congruences():
    raw = PiecewiseConstantControl("reparametrized", [(2.0, 0.25)], 0.1)
    lifted = lift_control(raw, SQRT2_SYS, 2, 3, phase_tol=0.05)
    lam = SQRT2_SYS.lam
    freqs = lam[0] - lam[1:]
    kinds = []
    for p in lifted.meta["plateaus"]:
        s, w = p["time"], p["target"]
        kinds.append(p["type"])
        offs = np.array([0.0, math.pi if p["type"] == "z" else 0.0])
        d = np.abs(np.mod(freqs * s - freqs * w - offs + math.pi,
                          2.0 * math.pi) - math.pi)
        assert np.max(d) <= 0.05 + 1e-12
        assert p["residual"] <= 0.05
    assert kinds == ["w", "z"] * 4  # strict alternation across 8 plateaus


def test_lift_single_mode_congruence():
    # two levels, one protected mode: z-times must land at w + odd pi
    s = custom_system([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
    raw = PiecewiseConstantControl("reparametrized", [(1.0, 0.3)], 0.1)
    lifted = lift_control(raw, s, 1, 2, phase_tol=0.01)
    for p in lifted.meta["plateaus"]:
        if p["type"] != "z":
            continue
        # (s - w - pi) mod 2 pi ~ 0
        r = math.remainder(p["time"] - p["target"] - math.pi, 2.0 * math.pi)
        assert abs(r) <= 0.01 + 1e-12


def test_lift_warns_and_fails_on_resonant_gaps():
    s = custom_system([0.0, 1.0, 2.0],
                      [[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]])
    raw = PiecewiseConstantControl("reparametrized", [(1.0, 0.3)], 0.1)
    with pytest.warns(UserWarning):
        with pytest.raises(PhaseSearchError):
            lift_control(raw, s, 2, 3, phase_tol=0.01)


def test_lift_refutes_resonant_relation_without_scanning():
    W = 0.4 * (np.ones((5, 5)) - np.eye(5))
    s = custom_system([0.0, 1.0, 2.3, 3.9, 5.2], W)
    raw = PiecewiseConstantControl("reparametrized", [(0.5, 0.8), (0.7, 1.5)],
                                   0.1)
    with mock.patch.object(synthesis, "_torus_return",
                           wraps=synthesis._torus_return) as scan:
        with pytest.warns(UserWarning):
            with pytest.raises(PhaseSearchError, match=r"\(8, 0, -5, 0\)"):
                lift_control(raw, s, 3, 5)
    assert scan.call_count == 0  # 8 gap1 = 5 gap3 decides it before any scan


@pytest.mark.parametrize("lam, points, interval", [
    # step 3.5e307: the cut keeps the grid below max double / 4
    (2.2250738585072014e-308, 2, "[0.0140625, 7.05952e+307]"),
    # the step pi / 2e-323 itself overflows: no point is scanned
    (5e-324, 0, "[0.0015625, 0.0015625]"),
], ids=["min-normal", "min-subnormal"])
def test_lift_tiny_gap_ends_scan_before_overflow(lam, points, interval):
    s = custom_system([0.0, lam], [[0.0, 0.3], [0.3, 0.0]])
    raw = PiecewiseConstantControl("reparametrized", [(0.5, 0.3)], 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        with pytest.raises(PhaseSearchError,
                           match=rf"\({points} grid points of step") as e:
            lift_control(raw, s, 1, 2)
    assert interval in str(e.value) and "nan" not in str(e.value)


def test_lift_zero_frequency_beside_infinite_step_scans_nothing_quietly():
    """A repeated level gives a zero frequency, and a subnormal gap a step
    of inf: the per-frequency slack meets 0 inf, but with no point to scan
    the lift only reports the empty interval, warning-free."""
    s = custom_system([0.0, 0.0, 5e-324], 0.3 * (np.ones((3, 3)) - np.eye(3)))
    raw = PiecewiseConstantControl("reparametrized", [(0.5, 0.3)], 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(UserWarning, match="gap relation"):
            with pytest.raises(PhaseSearchError,
                               match=r"\[0\.0015625, 0\.0015625\] \(0 grid "
                                     r"points of step inf\)"):
                lift_control(raw, s, 1, 3)


@settings(max_examples=60, deadline=None)
@given(
    freqs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
    data=st.data(),
    lo=st.floats(0.0, 50.0),
    tol=st.floats(1e-3, 0.5),
    step=st.floats(0.01, 1.0),
)
def test_torus_return_lands_within_tol_or_raises(freqs, data, lo, tol, step):
    targets = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                 min_size=len(freqs), max_size=len(freqs)))
    try:
        with mock.patch.object(synthesis, "MAX_SCAN_POINTS", 3000):
            s, resid = synthesis._torus_return(np.array(freqs),
                                               np.array(targets), lo, tol, step)
    except PhaseSearchError:
        return
    assert s >= lo
    # the returned residual is the one the scan accepted, bit for bit
    assert resid == float(np.max(synthesis._circ_dist(np.array(freqs) * s,
                                                      np.array(targets))))
    assert resid <= tol
    for f, t in zip(freqs, targets):
        assert abs(math.remainder(f * s - t, 2.0 * math.pi)) <= tol + 1e-9


def _all_frequency_scan(freqs, targets, lo, tol, step):
    """Reference scan: the coarse pass tests the max over all frequencies at
    every grid point; the overflow cut of MAX_SCAN_POINTS and the fine and
    zoom stages as in synthesis."""
    lipschitz = float(np.max(np.abs(freqs)))
    points = synthesis.MAX_SCAN_POINTS if lipschitz else 1
    reach = sys.float_info.max / (4.0 * max(1.0, lipschitz)) - abs(lo)
    if not float(step) * points <= reach:
        points = (int(reach // step) + 1 if reach >= 0.0 and math.isfinite(step)
                  else 0)

    def resid(s):
        d = synthesis._circ_dist(np.multiply.outer(freqs, s), targets[:, None])
        return np.max(d, axis=0)

    fine_n = synthesis._FINE
    unit = np.linspace(-1.0, 1.0, fine_n)
    cell = step / (fine_n - 1)
    slack = tol + 0.5 * step * lipschitz
    chunk = synthesis._SCAN_CHUNK
    for start in range(0, points, chunk):
        grid = lo + step * np.arange(start, min(start + chunk, points))
        for g in grid[resid(grid) <= slack]:
            fine = np.clip(g + 0.5 * step * unit, lo, None)
            fr = resid(fine)
            if fr.min() > tol + 0.5 * cell * lipschitz:
                continue
            span = cell
            for _ in range(3):
                fine = np.clip(fine[np.argmin(fr)] + span * unit, lo, None)
                fr = resid(fine)
                span *= 2.0 / (fine_n - 1)
            b = int(np.argmin(fr))
            if fr[b] <= tol:
                return float(fine[b]), float(fr[b])
    end = lo + points * step if points else lo  # no point scanned: [lo, lo]
    raise PhaseSearchError(
        f"no s with phase residual <= {tol:.6g} in [{lo:.6g}, "
        f"{end:.6g}] ({points} grid points of step {step:.6g}) "
        f"for phase targets {np.round(targets, 6).tolist()}"
    )


def _outcome(fn, *args):
    """fn's result as bits, or its PhaseSearchError text."""
    try:
        out = fn(*args)
    except PhaseSearchError as e:
        return "error", str(e)
    return tuple(float(x).hex() for x in out)


# zeros and repeated values come from the short pool
_FREQ = st.one_of(st.sampled_from([0.0, 1.25, -2.5, 3.0]),
                  st.floats(-4.0, 4.0))
# plus subnormal and large frequencies, whose phases f s reach 1e10 at lo = 1e6
_WIDE_FREQ = st.one_of(_FREQ, st.sampled_from([5e-324, -2.2e-311, 1e-300]),
                       st.floats(1e3, 1e4), st.floats(-1e4, -1e3))


# the benchmark lift's four frequencies lambda_1 - lambda_j, its scan step
_LIFT_FREQS = [-1.050147, -2.029601, -2.975209, -4.463352]
_LIFT_STEP = math.pi / (4.0 * 4.463352)


def _near_miss_example(tol):
    """Bench-lift frequencies whose phases pass 300 steps on, within 0.8-0.99
    of tol each: the scan needs its fine and zoom stages there."""
    lo = 12.5
    s0 = lo + 300.37 * _LIFT_STEP
    off = tol * np.array([0.9, -0.99, 0.8, -0.95])
    targets = np.mod(np.array(_LIFT_FREQS) * s0 + off, 2.0 * math.pi)
    return example(freqs=_LIFT_FREQS, targets=targets.tolist(), lo=lo,
                   tol=tol, step=_LIFT_STEP, lift_step=True, chunk=64,
                   points=400, rows=3)


@settings(max_examples=150, deadline=None)
@given(
    freqs=st.lists(_WIDE_FREQ, min_size=1, max_size=6),
    targets=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=6, max_size=6),
    lo=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e6)),
    tol=st.floats(1e-3, 0.5),
    step=st.floats(0.01, 1.0),
    lift_step=st.booleans(),
    chunk=st.integers(1, 64),
    points=st.integers(1, 400),
    rows=st.integers(1, 8),
)
@_near_miss_example(0.1)
@_near_miss_example(0.05)
@_near_miss_example(0.025)
def test_torus_return_matches_all_frequency_scan(freqs, targets, lo, tol,
                                                 step, lift_step, chunk,
                                                 points, rows):
    freqs = np.array(freqs)
    targets = np.array(targets[:len(freqs)])
    fastest = float(np.max(np.abs(freqs)))
    if lift_step and fastest >= 1.0:  # the lift's step: pi/4 per fastest cell
        step = math.pi / (4.0 * fastest)
    # small chunks: scans cross chunks, end on a partial one and hit
    # MAX_SCAN_POINTS; at most `rows` candidates per fine block: the growing
    # blocks reach the cap, and their boundaries fall inside a chunk
    with mock.patch.object(synthesis, "_SCAN_CHUNK", chunk), \
            mock.patch.object(synthesis, "MAX_SCAN_POINTS", points), \
            mock.patch.object(synthesis, "_FINE_BLOCK",
                              rows * synthesis._FINE * len(freqs)):
        got = _outcome(synthesis._torus_return, freqs, targets, lo, tol, step)
        want = _outcome(_all_frequency_scan, freqs, targets, lo, tol, step)
    assert got == want


class _PivotSlack(Exception):
    pass


def _pivot_slack(freqs, targets, lo, tol, step, points):
    """The slack _torus_return hands _reachable for its pivot, read by
    stopping the scan there; None when no point is scanned."""
    def stop(f, t, lo, step, slack, start, end):
        raise _PivotSlack(slack)

    with mock.patch.object(synthesis, "_reachable", stop), \
            mock.patch.object(synthesis, "MAX_SCAN_POINTS", points):
        try:
            synthesis._torus_return(np.array(freqs), np.array(targets), lo,
                                    tol, step)
        except _PivotSlack as e:
            return float(e.args[0])
    return None


@settings(max_examples=300, deadline=None)
@given(
    f=st.one_of(st.floats(1e-8, 1e4), st.floats(-1e4, -1e-8),
                st.sampled_from([5e-324, 2.2e-311, 1e-300])),
    ratio=st.floats(1.0, 1e3),
    lo=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e6),
                 st.floats(0.0, 1e12)),
    tol=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
    step=st.one_of(st.none(), st.floats(1e-9, 1.0)),
    t=st.floats(0.0, 2.0 * math.pi),
    start=st.integers(0, synthesis.MAX_SCAN_POINTS),
    length=st.integers(1, 5000),
    own=st.booleans(),
)
def test_reachable_keeps_every_passing_point(f, ratio, lo, tol, step, t,
                                             start, length, own):
    """The pivot pre-filter returns, in increasing order, every k of the
    chunk whose coarse test passes, with the pivot `ratio` times slower than
    the fastest frequency; slack is the fastest frequency's Lipschitz slack
    or, if `own`, the pivot's own slack_j as the scan computes it."""
    if step is None:  # the lift's step, finite over the chunk
        assume(abs(f) >= 1e-300)
        step = math.pi / (4.0 * abs(f) * ratio)
    slack = tol + 0.5 * step * abs(f) * ratio
    stop = start + length
    if own:
        slack = _pivot_slack([f, f * ratio], [t, 0.0], lo, tol, step, stop)
        assume(slack is not None)
    k = synthesis._reachable(f, t, lo, step, slack, start, stop)
    assert np.all(np.diff(k) > 0) and np.all((start <= k) & (k < stop))
    every = np.arange(start, stop)
    passing = every[synthesis._circ_dist(f * (lo + step * every), t) <= slack]
    assert np.isin(passing, k).all()


@settings(max_examples=200, deadline=None)
@given(
    f=st.one_of(st.floats(1e-3, 1e4), st.floats(-1e4, -1e-3)),
    ratio=st.floats(2.0, 1e3),
    lo=st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e6)),
    tol=st.floats(1e-3, 0.5),
    scale=st.floats(0.05, 1.0),
    k=st.integers(0, synthesis.MAX_SCAN_POINTS - 1),
    side=st.sampled_from([-1.0, 1.0]),
    excess=st.floats(0.0, 1e-3),
)
def test_point_past_own_slack_has_no_passing_point_within_reach(
        f, ratio, lo, tol, scale, k, side, excess):
    """A coarse point g = lo + k step that fails the pivot's own slack_j has
    no point s within step/2 + z of it (z = cell (1 + 2/128 + (2/128)^2),
    the farthest a zoom point lands past the fine window) with arc(f s) <=
    tol, so no fine or zoom point of g could be accepted.  The target puts
    the arc at g just past slack_j; 2,001 points spread over the reach, its
    ends included, are tried."""
    # up to the lift's step, pi/4 per cell of the fastest frequency
    step = scale * math.pi / (4.0 * abs(f) * ratio)
    freqs, g = [f, f * ratio], lo + step * k
    aim = _pivot_slack(freqs, [0.0, 0.0], lo, tol, step, k + 1)
    t = float(np.mod(f * g + side * aim * (1.0 + excess), 2.0 * math.pi))
    slack = _pivot_slack(freqs, [t, 0.0], lo, tol, step, k + 1)
    # the pivot's own term, not the fastest frequency's slack, is the min
    assert slack < tol + 0.5 * step * abs(f) * ratio
    assume(synthesis._circ_dist(f * g, t) > slack)
    fine = synthesis._FINE
    z = step / (fine - 1) * (1.0 + 2.0 / (fine - 1) + (2.0 / (fine - 1)) ** 2)
    s = g + np.linspace(-1.0, 1.0, 2001) * (0.5 * step + z)
    assert np.all(synthesis._circ_dist(f * s, t) > tol)


def test_lift_scan_filters_frequencies_on_survivors():
    """The benchmark's lifts 3 -> 5 and 2 -> 3 on its 5-level lift spectrum:
    the scan evaluates at most 10 % more arcs than the 1,768,302 and 332,584
    measured with per-frequency slacks and growing fine blocks (the
    all-frequency scan evaluates 41,275,192 and 2,127,596), and each lift is
    bit for bit the all-frequency scan's."""
    lam = [0.0, 1.050147, 2.029601, 2.975209, 4.463352]
    W = 0.3 * (np.ones((5, 5)) - np.eye(5))
    raw = PiecewiseConstantControl("reparametrized", [(0.5, 0.8), (0.7, 1.5)],
                                   0.1)
    system = custom_system(lam, W)
    circ = synthesis._circ_dist
    count = [0]

    def spy(a, b):
        count[0] += np.size(a)
        return circ(a, b)

    def run(scan, n, N):
        count[0] = 0
        with mock.patch.object(synthesis, "_circ_dist", spy), \
                mock.patch.object(synthesis, "_torus_return", scan):
            lc = lift_control(raw, system, n, N)
        return lc, count[0]

    for n, N, measured in ((3, 5, 1_768_302), (2, 3, 332_584)):
        new, n_new = run(synthesis._torus_return, n, N)
        old, n_old = run(_all_frequency_scan, n, N)
        assert new.pieces == old.pieces
        assert new.meta["plateaus"] == old.meta["plateaus"]
        assert n_new <= 1.1 * measured, (n, N, n_new, n_old)


def test_decoupling_error_trivial_cases():
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.3)], 0.1)
    # block-diagonal coupling: nothing to cancel
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 0.5
    s = custom_system([0.0, 1.0, math.sqrt(2)], W)
    assert decoupling_error(c, s, 2, 3) <= 1e-12
    assert decoupling_error(c, SQRT2_SYS, 3, 3) == 0.0


def test_decoupling_error_positive_when_coupled():
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.3)], 0.1)
    assert decoupling_error(c, SQRT2_SYS, 2, 3) > 0.1


def test_final_state_matches_propagate():
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.3, 1.1)], 0.1)
    x = final_state(g, c, basis(3, 0))
    traj = propagate(g, c, basis(3, 0))
    assert np.max(np.abs(x - traj.final)) < 1e-13
