"""Generated-input properties of the piecewise propagation kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bqcontrol.linalg import _piece_factors, expm_skew, unitarity_defect
from bqcontrol.models import custom_system, truncate
from bqcontrol.simulation import propagate
from bqcontrol.synthesis import (
    PiecewiseConstantControl,
    final_state,
    reparametrize,
)

PROPS = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)
unit = st.floats(-1.0, 1.0)


@st.composite
def problems(draw):
    """(Galerkin pair, control, normalized state) with moderate norms."""
    n = draw(st.integers(2, 5))
    lam = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    W = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n)))
    W = W.reshape(n, n)
    g = truncate(custom_system(lam, (W + W.T) / 2.0), n)

    frame = draw(st.sampled_from(["original", "reparametrized"]))
    delta = draw(st.floats(0.05, 1.0))
    k = draw(st.integers(0, 5))
    durations = draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))
    if frame == "original":
        fractions = st.floats(0.02, 0.98)
    else:
        fractions = st.floats(1.02, 20.0)
    values = [delta * f for f in draw(
        st.lists(fractions, min_size=k, max_size=k))]
    c = PiecewiseConstantControl(frame, zip(durations, values), delta)

    x = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    x = x[:n] + 1j * x[n:]
    x = x / np.linalg.norm(x) if np.linalg.norm(x) > 0.1 else np.eye(n)[0]
    return g, c, x.astype(complex)


def _factors(g, c):
    return _piece_factors(g.A, g.B, c.durations, c.values, c.frame)[-1]


def _generator(g, u, frame):
    return g.A + u * g.B if frame == "original" else u * g.A + g.B


@PROPS
@given(problems())
def test_factors_are_unitary(p):
    g, c, _ = p
    for F in _factors(g, c):
        assert unitarity_defect(F) <= 1e-12


@PROPS
@given(problems())
def test_factors_equal_expm_skew_of_generator(p):
    g, c, _ = p
    factors = _factors(g, c)
    assert factors.shape == (c.npieces, g.order, g.order)
    for F, t, u in zip(factors, c.durations, c.values):
        ref = expm_skew(_generator(g, u, c.frame), t)
        assert np.max(np.abs(F - ref)) <= 1e-12


@PROPS
@given(problems())
def test_final_state_is_frame_independent(p):
    g, c, x = p
    y = final_state(g, c, x)
    z = final_state(g, reparametrize(c), x)
    assert np.max(np.abs(y - z)) <= 1e-10


@PROPS
@given(problems(), st.integers(1, 8))
def test_final_state_matches_propagate(p, samples):
    g, c, x = p
    traj = propagate(g, c, x, samples_per_piece=samples)
    assert np.max(np.abs(final_state(g, c, x) - traj.final)) <= 1e-10
