"""Tests for control containers, steering search, lift and phase correction."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqcontrol import synthesis
from bqcontrol.linalg import expm_skew
from bqcontrol.models import custom_system, oscillator_system, truncate
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
    phase_correction,
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
    assert c.integrated_value_at(0.0) == 0.0
    assert c.integrated_value_at(1.0) == 2.0
    assert c.integrated_value_at(1.25) == pytest.approx(3.0)
    assert c.integrated_value_at(10.0) == 4.0  # clamps past the end


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


def test_steer_state_deterministic_per_seed():
    g = truncate(TWO_LEVEL, 2)
    a = steer_state(g, basis(2, 0), basis(2, 1), delta=0.1, seed=7)
    b = steer_state(g, basis(2, 0), basis(2, 1), delta=0.1, seed=7)
    assert np.array_equal(a.control.durations, b.control.durations)
    assert np.array_equal(a.control.values, b.control.values)
    assert a.infidelity == b.infidelity


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


def test_steer_unitary_traceless_sector():
    s = custom_system([-0.5, 0.5], [[0.0, 0.6], [0.6, 0.0]])
    g = truncate(s, 2)
    eye = np.eye(2, dtype=complex)
    target = expm_skew(0.9 * g.A + g.B, 1.1)
    r = steer_unitary(g, eye, target, delta=0.1, tol=1e-3, seed=0)
    assert r.traceless
    assert 0.0 <= r.theta < 2.0 * math.pi / 2  # reduced sector [0, 2 pi / n)
    if r.converged:
        U = eye
        for t, u in r.control.pieces:
            U = expm_skew(u * g.A + g.B, t) @ U
        assert np.linalg.norm(np.exp(1j * r.theta) * U - target) <= 2e-3


def test_steer_unitary_unconverged_theta_matches_distance():
    # the budget is too small to converge, so the best phase of these
    # searches often lies outside the sector [0, 2 pi / 3]
    s = custom_system([-1.1, 0.2, 0.9],
                      [[0.0, 0.5, 0.2], [0.5, 0.0, 0.4], [0.2, 0.4, 0.0]])
    g = truncate(s, 3)
    eye = np.eye(3, dtype=complex)
    target = eye
    for t, u in ((0.6, 0.7), (1.1, 1.9), (0.5, 0.4)):
        target = expm_skew(u * g.A + g.B, t) @ target
    for seed in range(4):
        r = steer_unitary(g, eye, target, delta=0.1, budget=3000, seed=seed)
        assert r.traceless and r.evaluations <= 3000
        assert 0.0 <= r.theta <= 2.0 * math.pi / 3
        U = eye
        for t, u in r.control.pieces:
            U = expm_skew(u * g.A + g.B, t) @ U
        phased = np.linalg.norm(np.exp(1j * r.theta) * U - target)
        assert abs(r.distance - phased) <= 1e-9


@st.composite
def unitary_pairs(draw):
    """(U, G, sector): random n x n unitaries, sector 2 pi / n or 2 pi."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, G = (np.linalg.qr(rng.normal(size=(n, n))
                         + 1j * rng.normal(size=(n, n)))[0] for _ in range(2))
    return U, G, draw(st.sampled_from([2.0 * math.pi / n, 2.0 * math.pi]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(unitary_pairs())
def test_phase_distance_is_sector_minimum(p):
    U, G, sector = p
    d, theta = synthesis._phase_distance(U, G, sector)
    assert 0.0 <= theta <= sector and theta < 2.0 * math.pi
    assert abs(d - np.linalg.norm(np.exp(1j * theta) * U - G)) <= 1e-12
    grid = np.linspace(0.0, sector, 256)
    on_grid = np.linalg.norm(
        np.exp(1j * grid)[:, None, None] * U - G, axis=(1, 2))
    assert on_grid.min() >= d - 1e-12


def test_reported_evaluations_are_objective_calls(monkeypatch):
    calls = []
    kernel = synthesis._piece_unitaries

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(synthesis, "_piece_unitaries", counted)
    g = truncate(oscillator_system(-0.5, 0.3), 3)
    res = steer_state(g, basis(3, 0), basis(3, 1), delta=0.1, seed=1,
                      budget=5000)
    assert res.evaluations == len(calls) <= 5000


def test_budget_too_small_to_search_rejected():
    g = truncate(THREE_LEVEL, 3)
    with pytest.raises(ValueError, match="at least 125"):
        steer_state(g, basis(3, 0), basis(3, 1), delta=0.1, budget=100)
    with pytest.raises(ValueError, match="at least 125"):
        steer_unitary(g, np.eye(3, dtype=complex), expm_skew(g.B, 0.5),
                      delta=0.1, budget=100)
    with pytest.raises(ValueError, match="piece count"):
        steer_state(g, basis(3, 0), basis(3, 1), delta=0.1, piece_counts=())


def test_steer_unitary_rejects_nonunitary():
    g = truncate(TWO_LEVEL, 2)
    with pytest.raises(ValueError):
        steer_unitary(g, 1.5 * np.eye(2, dtype=complex),
                      np.eye(2, dtype=complex), delta=0.1)


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
            lift_control(raw, s, 2, 3, phase_tol=0.01, horizon=2e3)


def test_lift_refutes_resonant_relation_without_scanning():
    W = 0.4 * (np.ones((5, 5)) - np.eye(5))
    s = custom_system([0.0, 1.0, 2.3, 3.9, 5.2], W)
    raw = PiecewiseConstantControl("reparametrized", [(0.5, 0.8), (0.7, 1.5)],
                                   0.1)
    t0 = time.perf_counter()
    with pytest.warns(UserWarning):
        with pytest.raises(PhaseSearchError, match=r"\(8, 0, -5, 0\)"):
            lift_control(raw, s, 3, 5)
    assert time.perf_counter() - t0 < 2.0  # 8 gap1 = 5 gap3 decides it


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
        s = synthesis._torus_return(np.array(freqs), np.array(targets), lo,
                                    tol, step, points=3000)
    except PhaseSearchError:
        return
    assert s >= lo
    for f, t in zip(freqs, targets):
        assert abs(math.remainder(f * s - t, 2.0 * math.pi)) <= tol + 1e-9


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


# -- phase correction -----------------------------------------------------------


def test_phase_correction_commensurate():
    pc = phase_correction([1.0, 2.0], v1=1.0, delta=0.5, eps=0.1, tau_max=1.0)
    # common period 2 pi: the search lands on a full recurrence
    m = pc.v2 / (2.0 * math.pi)
    assert abs(m - round(m)) < 1e-6 and round(m) >= 1
    assert pc.residual <= 0.05
    assert pc.tau * pc.u == 1.0 + pc.v2  # product identity, exact
    assert pc.u > 0.5
    assert pc.tau <= 1.0


def test_phase_correction_single_eigenvalue():
    pc = phase_correction([1.0], v1=0.0, delta=0.1, eps=0.01, tau_max=2.0)
    m = pc.v2 / (2.0 * math.pi)
    assert abs(m - round(m)) < 1e-6


def test_phase_correction_negative_v1():
    pc = phase_correction([1.0, math.sqrt(2)], v1=-0.3, delta=0.5, eps=0.1,
                          tau_max=5.0)
    assert pc.v2 > 0.3  # total integrated value must be positive
    assert pc.u > 0.5
    assert pc.tau * pc.u == -0.3 + pc.v2


def test_phase_correction_coupling_bound_caps_tau():
    pc = phase_correction([1.0, math.sqrt(2)], v1=0.0, delta=0.1, eps=0.05,
                          tau_max=2.0, coupling_bound=1.0)
    assert pc.tau <= 0.05 / 2.0


def test_phase_correction_validates():
    with pytest.raises(ValueError):
        phase_correction([1.0], v1=0.0, delta=0.1, eps=-1.0, tau_max=1.0)
    with pytest.raises(ValueError):
        phase_correction([], v1=0.0, delta=0.1, eps=0.1, tau_max=1.0)


def test_final_state_matches_propagate():
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.3, 1.1)], 0.1)
    x = final_state(g, c, basis(3, 0))
    traj = propagate(g, c, basis(3, 0))
    assert np.max(np.abs(x - traj.final)) < 1e-13
