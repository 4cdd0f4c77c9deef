"""Every scalar and array argument of the public API fails closed.

NaN, +inf and -inf, values outside a parameter's stated range, and numeric
text or booleans where a number belongs raise ValueError: never another
exception and never a result.  So do None or boolean entries, complex
entries where reals belong, ragged lists and non-square matrices where a
square one belongs.
"""

import math

import numpy as np
import pytest

from bqcontrol import (
    PiecewiseConstantControl,
    as_density,
    as_state,
    assert_unitary,
    box3d_lambda_prime,
    box3d_system,
    certify,
    commutator,
    connectedness,
    constructive_generators,
    custom_system,
    decoupling_error,
    expm_skew,
    fidelity,
    final_state,
    frequently_connected,
    lie_rank,
    lift_control,
    modulus_margins,
    nonresonance,
    oscillator_system,
    pairwise_gap_distinct,
    perturbation_certificate,
    propagate,
    propagate_density,
    skew_eigensystem,
    skew_hermitian,
    steer_state,
    steer_unitary,
    steering_time_lower_bound,
    truncate,
    unitarity_defect,
)

SYS = custom_system([0.0, 1.0, 1.0 + math.sqrt(2)],
                    [[0.0, 0.4, 0.1], [0.4, 0.0, 0.4], [0.1, 0.4, 0.0]])
G = truncate(SYS, 3)
C = PiecewiseConstantControl("reparametrized", [(0.5, 0.8)], 0.1)
E0, E1 = np.eye(3, dtype=complex)[:2]
BOX_L, BOX_ALPHA = (1.0, 1.3, 1.7), (0.5, 0.7, 0.9)
NONFINITE = [math.nan, math.inf, -math.inf]
NOT_REALS = NONFINITE + [True]


# (label, call taking the bad value, out-of-range finite values); each also
# gets NaN, +-inf and True
REAL_ARGS = [
    ("oscillator_system.a", lambda x: oscillator_system(x, 0.3), [0.0, 1.0]),
    ("oscillator_system.b", lambda x: oscillator_system(-0.5, x), []),
    ("oscillator_system.c", lambda x: oscillator_system(-0.5, 0.3, c_mode=x),
     []),
    ("box3d_system.l", lambda x: box3d_system((x, 1.3, 1.7), BOX_ALPHA),
     [0.0, -1.0, 1e200]),
    ("box3d_system.alpha", lambda x: box3d_system(BOX_L, (x, 0.7, 0.9)),
     [5000.0]),
    ("box3d_lambda_prime.l",
     lambda x: box3d_lambda_prime((x, 1.3, 1.7), BOX_ALPHA, (1, 1, 1)),
     [0.0, -1.0]),
    ("nonresonance.tol", lambda x: nonresonance([1.0, math.sqrt(2)], tol=x),
     [-1.0]),
    ("pairwise_gap_distinct.tol",
     lambda x: pairwise_gap_distinct(SYS.lam, tol=x), [-1.0]),
    ("certify.tol", lambda x: certify(SYS, 3, tol=x), [-1.0]),
    ("PiecewiseConstantControl.delta",
     lambda x: PiecewiseConstantControl("original", [], x), [0.0, -1.0]),
    ("steer_state.delta", lambda x: steer_state(G, E0, E1, delta=x),
     [0.0, -1.0, 1e308]),
    ("steer_state.tol", lambda x: steer_state(G, E0, E1, delta=0.1, tol=x),
     [-1.0]),
    ("steer_state.x1",
     lambda x: steer_state(G, E0, [x, 0.0, 0.0], delta=0.1), []),
    ("steer_unitary.delta",
     lambda x: steer_unitary(G, np.eye(3), np.eye(3), delta=x),
     [0.0, -1.0, 1e308]),
    ("steer_unitary.tol",
     lambda x: steer_unitary(G, np.eye(3), np.eye(3), delta=0.1, tol=x),
     [-1.0]),
    ("steer_unitary.g1",
     lambda x: steer_unitary(G, np.eye(3), np.full((3, 3), x), delta=0.1),
     []),
    ("lift_control.phase_tol",
     lambda x: lift_control(C, SYS, 2, 3, phase_tol=x), [0.0, -1.0]),
    ("steering_time_lower_bound.eps",
     lambda x: steering_time_lower_bound(SYS, E0, E1, x, 0.1), [-1.0]),
    ("steering_time_lower_bound.delta",
     lambda x: steering_time_lower_bound(SYS, E0, E1, 0.0, x),
     [0.0, -1.0, 1e-320]),
    ("modulus_margins.duration",
     lambda x: modulus_margins(E0, E1, x, [1.0, 1.0, 1.0]), [-1.0]),
    ("expm_skew.t", lambda x: expm_skew(G.B, x), []),
    ("assert_unitary", lambda x: assert_unitary(np.full((2, 2), x)), [1e200]),
    ("skew_hermitian", lambda x: skew_hermitian(np.full((2, 2), x)), [1e308]),
    ("as_state", lambda x: as_state([x, 0.0]), [1e200]),
    ("as_density", lambda x: as_density(np.full((2, 2), x)), [1e308]),
]

# (label, call taking the bad value, out-of-range integers)
INT_ARGS = [
    ("truncate.n", lambda x: truncate(SYS, x), [1, 4]),
    ("oscillator_system.levels",
     lambda x: oscillator_system(-0.5, 0.3, levels=x), [1]),
    ("box3d_system.levels", lambda x: box3d_system(BOX_L, BOX_ALPHA, x), [1]),
    ("box3d_lambda_prime.triple",
     lambda x: box3d_lambda_prime(BOX_L, BOX_ALPHA, (1, x, 1)), [0]),
    ("frequently_connected.n", lambda x: frequently_connected(SYS, x), [1, 4]),
    ("nonresonance.Q", lambda x: nonresonance([1.0, math.sqrt(2)], Q=x), [0]),
    ("lie_rank.max_depth", lambda x: lie_rank(G, max_depth=x), [-1, -5]),
    ("certify.max_depth", lambda x: certify(SYS, 3, max_depth=x), [-5]),
    ("certify.Q", lambda x: certify(SYS, 3, Q=x), [0]),
    ("perturbation_certificate.n",
     lambda x: perturbation_certificate(SYS, x), [1, 4]),
    ("constructive_generators.j",
     lambda x: constructive_generators(G, x, 1), [-1, 3]),
    ("steer_state.budget",
     lambda x: steer_state(G, E0, E1, delta=0.1, budget=x), [-1]),
    ("steer_state.seed", lambda x: steer_state(G, E0, E1, delta=0.1, seed=x),
     [-1]),
    ("steer_unitary.budget",
     lambda x: steer_unitary(G, np.eye(3), np.eye(3), delta=0.1, budget=x),
     [-1]),
    ("lift_control.n", lambda x: lift_control(C, SYS, x, 3), [0, 4]),
    ("lift_control.N", lambda x: lift_control(C, SYS, 2, x), [1, 4]),
    ("decoupling_error.grid",
     lambda x: decoupling_error(C, SYS, 2, 3, grid=x), [0]),
    ("propagate.samples_per_piece",
     lambda x: propagate(G, C, E0, samples_per_piece=x), [0]),
    ("propagate_density.samples_per_piece",
     lambda x: propagate_density(G, C, np.diag([1.0, 0.0, 0.0]),
                                 samples_per_piece=x), [0]),
    ("DiscreteSpectrumSystem.gaps.n", lambda x: SYS.gaps(x), [-1, 2.7, 99]),
]
NOT_INTEGERS = [math.nan, math.inf, -math.inf, 2.5, True]

# (label, call taking the bad value, numeric text a number parser accepts)
TEXT_ARGS = [
    ("oscillator_system.a", lambda x: oscillator_system(x, 0.3), ["-0.5"]),
    ("oscillator_system.b", lambda x: oscillator_system(-0.5, x),
     ["0.3", b"0.3"]),
    ("box3d_system.l", lambda x: box3d_system((x, 1.3, 1.7), BOX_ALPHA),
     ["1.0"]),
    ("custom_system.lam", lambda x: custom_system(x, SYS.W),
     [["0", "1", "2.5"], [0.0, 1.0, "2.5"]]),
    ("custom_system.W", lambda x: custom_system(SYS.lam, x),
     [SYS.W.astype(str).tolist()]),
    ("PiecewiseConstantControl.duration",
     lambda x: PiecewiseConstantControl("reparametrized", [(x, 0.3)], 0.1),
     ["0.8"]),
    ("PiecewiseConstantControl.value",
     lambda x: PiecewiseConstantControl("original", [(0.8, x)], 0.1),
     ["0.05"]),
    ("PiecewiseConstantControl.delta",
     lambda x: PiecewiseConstantControl("reparametrized", [(0.8, 0.3)], x),
     ["0.1"]),
    ("steer_state.delta",
     lambda x: steer_state(G, E0, E1, delta=x, budget=200), ["0.1"]),
    ("expm_skew.t", lambda x: expm_skew(G.B, x), ["0.5"]),
]


SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])
UNIT = np.array([[0.0, 1.0], [1.0, 0.0]])

# (label, call taking the array, a valid array, real, square): the call is
# fed that array with its first entry made numeric text, None, NaN, +-inf,
# True and (when real) complex, and as a ragged list and (when square) a
# non-square matrix
ARRAY_ARGS = [
    ("custom_system.lam", lambda x: custom_system(x, SYS.W), SYS.lam, True,
     False),
    ("custom_system.W", lambda x: custom_system(SYS.lam, x), SYS.W, True,
     True),
    ("connectedness.W", connectedness, SYS.W + 0j, False, True),
    ("nonresonance.gaps", nonresonance, [1.0, math.sqrt(2)], True, False),
    ("pairwise_gap_distinct.lam", pairwise_gap_distinct, SYS.lam, True,
     False),
    ("as_state", as_state, E0, False, False),
    ("as_density", as_density, np.diag([1.0, 0.0]), False, True),
    ("fidelity.psi", lambda x: fidelity(x, E0), E0, False, False),
    ("fidelity.phi", lambda x: fidelity(E0, x), E0, False, False),
    ("modulus_margins.psi_start",
     lambda x: modulus_margins(x, E1, 1.0, [1.0, 1.0, 1.0]), E0, False, False),
    ("modulus_margins.psi_end",
     lambda x: modulus_margins(E0, x, 1.0, [1.0, 1.0, 1.0]), E1, False, False),
    ("modulus_margins.column_norms",
     lambda x: modulus_margins(E0, E1, 1.0, x), [1.0, 1.0, 1.0], True, False),
    ("final_state.x", lambda x: final_state(G, C, x), E0, False, False),
    ("skew_hermitian", skew_hermitian, SKEW, False, True),
    ("unitarity_defect", unitarity_defect, UNIT, False, True),
    ("assert_unitary", assert_unitary, UNIT, False, True),
    ("skew_eigensystem", skew_eigensystem, SKEW, False, True),
    ("expm_skew", expm_skew, SKEW, False, True),
    ("commutator.X", lambda x: commutator(x, SKEW), SKEW, False, True),
    ("commutator.Y", lambda x: commutator(SKEW, x), SKEW, False, True),
]


def bad_arrays(good, real, square):
    """(kind, bad value) pairs derived from a valid array."""
    good = np.asarray(good)

    def first(v):  # good with its first entry replaced by v
        a = good.astype(object)
        a.flat[0] = v
        return a.tolist()

    bad = [("text", first(str(good.flat[0]))), ("None", first(None))]
    bad += [(repr(v), first(v)) for v in NONFINITE]
    bad.append(("bool", first(True)))
    if real:
        bad.append(("complex", first(1j)))
    rows = good.tolist()
    bad.append(("ragged", [rows[0][:-1]] + rows[1:] if good.ndim == 2
                else [rows, rows[:-1]]))
    if square:
        bad.append(("non-square", rows[:-1]))
    return bad


def cases(table, bad):
    return [pytest.param(call, x, id=f"{label}={x!r}")
            for label, call, extra in table for x in bad + extra]


@pytest.mark.parametrize("call, value", cases(REAL_ARGS, NOT_REALS))
def test_bad_real_argument_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, value", cases(INT_ARGS, NOT_INTEGERS))
def test_bad_integer_argument_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, value", cases(TEXT_ARGS, []))
def test_numeric_text_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("call, value", [
    pytest.param(call, x, id=f"{label}:{kind}")
    for label, call, good, real, square in ARRAY_ARGS
    for kind, x in bad_arrays(good, real, square)])
def test_bad_array_argument_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


def test_overflowing_spectrum_spread_raises_value_error():
    # finite levels whose gaps overflow: at tol = 0 the threshold 0 * inf
    # would be NaN, and no collision could be found
    with pytest.raises(ValueError, match="lambda"):
        pairwise_gap_distinct([-1e308, 0.5, 1e308, 3.0], tol=0.0)


def test_integral_floats_count_as_integers():
    assert truncate(SYS, 3.0).order == 3
    assert lie_rank(G, max_depth=np.int64(4)).max_depth == 4


def test_box_spectrum_search_is_bounded():
    # 1/l^2 ~ 1e-300 leaves every k_1 at the same double eigenvalue, so no
    # finite set of triples separates the lowest levels
    with pytest.raises(ValueError, match="BOX_MAX_MODE"):
        box3d_system((1e150, 1.0, 1.0), BOX_ALPHA)
