"""Tests for propagation, lower bounds, drift checks and CSV export."""

import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bqcontrol.linalg import expm_skew
from bqcontrol.models import custom_system, truncate
from bqcontrol import simulation
from bqcontrol.simulation import (
    Trajectory,
    as_density,
    as_state,
    fidelity,
    modulus_drift_check,
    modulus_margins,
    propagate,
    propagate_density,
    steering_time_lower_bound,
    write_trajectory_csv,
)
from bqcontrol.synthesis import PiecewiseConstantControl, reparametrize

TWO_LEVEL = custom_system([0.0, 1.0], [[0.0, 0.5], [0.5, 0.0]])
THREE_LEVEL = custom_system([0.0, 1.0, 2.5],
                            [[0.0, 0.4, 0.1],
                             [0.4, 0.0, 0.4],
                             [0.1, 0.4, 0.0]])


def basis(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def random_control(rng, frame, npieces, delta=0.1):
    pieces = []
    for _ in range(npieces):
        t = rng.uniform(0.05, 1.0)
        if frame == "original":
            u = rng.uniform(0.01, 0.99) * delta
        else:
            u = delta * rng.uniform(1.1, 10.0)
        pieces.append((t, u))
    return PiecewiseConstantControl(frame, pieces, delta)


# -- state/density coercion ---------------------------------------------------


def test_as_state_validates_norm():
    as_state([1.0, 0.0])
    with pytest.raises(ValueError):
        as_state([1.0, 1.0])


def test_as_density_validates():
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    as_density(rho)
    with pytest.raises(ValueError):
        as_density(rho * 2.0)  # trace 2
    with pytest.raises(ValueError):
        as_density(np.array([[0.5, 0.4j], [0.4j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        as_density(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))


def test_fidelity_range_and_symmetry():
    a, b = basis(2, 0), (basis(2, 0) + basis(2, 1)) / math.sqrt(2)
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == pytest.approx(0.5)
    assert fidelity(a, b) == fidelity(b, a)


# -- propagation --------------------------------------------------------------


def test_propagate_empty_control_single_sample():
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [], 0.1)
    traj = propagate(g, c, basis(2, 0))
    assert traj.times.tolist() == [0.0]
    assert traj.states.shape == (1, 2)
    assert traj.norm_drift == 0.0


def test_propagate_sample_grid():
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.5), (0.5, 1.5)], 0.1)
    traj = propagate(g, c, basis(2, 0), samples_per_piece=4)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.5)
    assert len(traj.times) == 1 + 4 * 2
    assert np.all(np.diff(traj.times) > 0)
    # populations column-sum to 1 along the whole trajectory
    assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-12


def test_propagate_matches_direct_exponentials():
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.3, 1.1)], 0.1)
    traj = propagate(g, c, basis(3, 0), samples_per_piece=1)
    U = expm_skew(1.1 * g.A + g.B, 0.3) @ expm_skew(0.4 * g.A + g.B, 0.7)
    assert np.max(np.abs(traj.final - U @ basis(3, 0))) < 1e-13


def test_propagate_norm_drift_long_run():
    rng = np.random.default_rng(12)
    g = truncate(THREE_LEVEL, 3)
    c = random_control(rng, "reparametrized", 1000)
    traj = propagate(g, c, basis(3, 0), samples_per_piece=1)
    assert traj.norm_drift <= 1e-10


def test_propagate_frame_consistency():
    rng = np.random.default_rng(13)
    g = truncate(TWO_LEVEL, 2)
    c = random_control(rng, "original", 25, delta=1.0)
    a = propagate(g, c, basis(2, 0), samples_per_piece=1)
    b = propagate(g, reparametrize(c), basis(2, 0), samples_per_piece=1)
    assert np.max(np.abs(a.final - b.final)) <= 1e-10


def test_propagate_rejects_dimension_mismatch():
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.5)], 0.1)
    with pytest.raises(ValueError):
        propagate(g, c, basis(3, 0))


# -- density propagation -------------------------------------------------------


def test_propagate_density_pure_state_consistency():
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.5, 0.9)], 0.1)
    psi = (basis(3, 0) + 1j * basis(3, 2)) / math.sqrt(2)
    t1 = propagate(g, c, psi, samples_per_piece=2)
    t2 = propagate_density(g, c, np.outer(psi, psi.conj()), samples_per_piece=2)
    proj = np.outer(t1.final, t1.final.conj())
    assert np.max(np.abs(proj - t2.final)) < 1e-10


def test_propagate_density_spectrum_invariant():
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.5, 0.9)], 0.1)
    rho0 = np.diag([0.6, 0.3, 0.1]).astype(complex)  # mixed state
    traj = propagate_density(g, c, rho0, samples_per_piece=4)
    assert traj.kind == "density"
    assert traj.spectrum_drift <= 1e-10
    assert traj.norm_drift <= 1e-12  # trace preserved
    # purity is a motion invariant too
    purity = [float(np.real(np.trace(r @ r))) for r in traj.states]
    assert max(purity) - min(purity) < 1e-10


# -- steering-time lower bound ---------------------------------------------------


def test_lower_bound_hand_value():
    # moving |<e2, psi>| from 0 to 1 - eps at coupling 0.5 and delta = 1
    val = steering_time_lower_bound(TWO_LEVEL, basis(2, 0), basis(2, 1),
                                    eps=0.2, delta=1.0)
    assert val == pytest.approx((1.0 - 0.2) / 0.5)


def test_lower_bound_zero_for_reached_target():
    val = steering_time_lower_bound(TWO_LEVEL, basis(2, 0), basis(2, 0),
                                    eps=0.1, delta=0.5)
    assert val == 0.0


def test_lower_bound_infinite_for_frozen_coordinate():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 0.5  # level 3 fully decoupled
    s = custom_system([0.0, 1.0, 2.5], W)
    val = steering_time_lower_bound(s, basis(3, 0), basis(3, 2), eps=0.1,
                                    delta=0.5)
    assert math.isinf(val)


def test_lower_bound_sound_on_random_transfers():
    rng = np.random.default_rng(14)
    g = truncate(THREE_LEVEL, 3)
    for _ in range(25):
        c = random_control(rng, "original", int(rng.integers(1, 6)))
        traj = propagate(g, c, basis(3, 0), samples_per_piece=1)
        eps = 0.05
        bound = steering_time_lower_bound(THREE_LEVEL, basis(3, 0),
                                          traj.final, eps, 0.1)
        assert c.total_duration >= bound - 1e-8


# -- modulus drift check ---------------------------------------------------------


def test_modulus_margins_shape():
    m = modulus_margins([1.0, 0.0], [0.6, 0.8], 2.0, [0.5, 0.5])
    assert m.shape == (2,)
    assert m[0] == pytest.approx(2.0 * 0.5 - 0.4)


def test_modulus_drift_check_passes_on_true_trajectories():
    rng = np.random.default_rng(15)
    g = truncate(THREE_LEVEL, 3)
    for frame in ("reparametrized", "original"):
        c = random_control(rng, frame, 4)
        rep = modulus_drift_check(g, c, basis(3, 0))
        assert rep.ok
        assert rep.worst_margin >= -1e-8


def test_modulus_drift_check_flags_violations():
    # a coordinate whose coupling column is zero cannot move: forging a
    # control too short for the observed drift must fail the margin check
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(0.1, 0.2)], 0.1)
    margins = modulus_margins(basis(2, 0), basis(2, 1), c.total_duration,
                              np.linalg.norm(np.abs(g.B), axis=0))
    assert margins.min() < 0  # 0.1 * 0.5 budget cannot bridge a full swap


# -- trajectory size bound ----------------------------------------------------


def test_oversized_trajectories_refused_before_allocating():
    c = PiecewiseConstantControl("reparametrized", [(0.5, 0.3), (0.5, 0.7)],
                                 0.1)
    g = truncate(THREE_LEVEL, 3)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    with mock.patch.object(simulation, "_piece_factors",
                           side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match=r"^200000001 samples of 3 "):
            propagate(g, c, basis(3, 0), samples_per_piece=10**8)
        # 3,000,001 rows are 9,000,003 state entries but 27,000,009 density ones
        with pytest.raises(ValueError, match=r"^3000001 samples of 9 entries "
                           r"each exceed the bound of 16777216 stored"):
            propagate_density(g, c, rho0, samples_per_piece=1500000)


def test_trajectory_bound_counts_stored_entries():
    # 1 + 2 pieces * 4 samples = 9 rows of 3 entries: 27 pass a bound of 27
    c = PiecewiseConstantControl("reparametrized", [(0.5, 0.3), (0.5, 0.7)],
                                 0.1)
    g = truncate(THREE_LEVEL, 3)
    with mock.patch.object(simulation, "MAX_TRAJECTORY_ENTRIES", 27):
        assert len(propagate(g, c, basis(3, 0), samples_per_piece=4).times) == 9
        with pytest.raises(ValueError, match="9 samples of 9 entries"):
            propagate_density(g, c, np.eye(3) / 3.0, samples_per_piece=4)
    with mock.patch.object(simulation, "MAX_TRAJECTORY_ENTRIES", 26):
        with pytest.raises(ValueError, match="bound of 26 stored entries"):
            propagate(g, c, basis(3, 0), samples_per_piece=4)


def _forty_level_density_run():
    rng = np.random.default_rng(0)
    W = rng.normal(size=(40, 40))
    g = truncate(custom_system(np.cumsum(rng.uniform(0.5, 1.5, 40)),
                               (W + W.T) / 2), 40)
    c = random_control(rng, "reparametrized", 4)
    rho0 = np.diag(np.arange(40.0, 0.0, -1.0) / 820.0)
    return propagate_density(g, c, rho0, samples_per_piece=32)


@pytest.mark.parametrize("run, multiple", [
    (lambda: propagate(truncate(TWO_LEVEL, 2), PiecewiseConstantControl(
        "reparametrized", [(0.7, 0.9), (1.1, 0.4)], 0.1), basis(2, 0),
        samples_per_piece=20000), 3.0),
    (_forty_level_density_run, 1.5),
], ids=["state-n2-s20000", "density-n40-s32"])
def test_trajectory_peak_memory_is_a_small_multiple_of_its_arrays(run,
                                                                  multiple):
    # the running products are written once, into the returned array: the
    # peak is about 2.2x the returned bytes for states and 1.03x for
    # densities, while one more copy of the rows would exceed each multiple
    tracemalloc.start()
    try:
        traj = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= multiple * (traj.states.nbytes + traj.populations.nbytes)


# -- CSV export -------------------------------------------------------------------


def test_write_state_trajectory_csv(tmp_path):
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.5)], 0.1)
    traj = propagate(g, c, basis(2, 0), samples_per_piece=3)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "re_0", "im_0", "re_1", "im_1", "pop_0", "pop_1"]
    assert len(rows) == 1 + len(traj.times)
    # 17 significant digits round-trip exactly
    k = len(rows) // 2
    assert float(rows[k][1]) == traj.states[k - 1, 0].real
    assert float(rows[k][5]) == traj.populations[k - 1, 0]


def test_write_density_trajectory_csv(tmp_path):
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.5)], 0.1)
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    traj = propagate_density(g, c, rho0, samples_per_piece=2)
    path = tmp_path / "rho.csv"
    write_trajectory_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "eig_0", "eig_1", "purity"]
    final = [float(x) for x in rows[-1][1:3]]
    assert final == pytest.approx([0.3, 0.7], abs=1e-12)


def test_density_csv_reuses_the_propagated_spectra(tmp_path):
    # one eigvalsh of the stacked rows serves the spectral drift and the
    # CSV's eig_* columns; the other call is as_density's check of rho0
    g = truncate(THREE_LEVEL, 3)
    c = PiecewiseConstantControl("reparametrized", [(0.7, 0.4), (0.5, 0.9)],
                                 0.1)
    rho0 = np.diag([0.6, 0.3, 0.1]).astype(complex)
    eigvalsh = np.linalg.eigvalsh
    with mock.patch.object(np.linalg, "eigvalsh", wraps=eigvalsh) as spy:
        traj = propagate_density(g, c, rho0, samples_per_piece=4)
        write_trajectory_csv(traj, tmp_path / "rho.csv")
    assert [args[0].shape for args, _ in spy.call_args_list] == [(3, 3),
                                                                 (9, 3, 3)]
    assert np.array_equal(traj.spectra, eigvalsh(traj.states))
    # a density trajectory built by hand derives the same spectra and drift
    again = Trajectory(traj.times, traj.states, traj.populations, "density",
                       traj.norm_drift)
    assert np.array_equal(again.spectra, traj.spectra)
    assert again.spectrum_drift == traj.spectrum_drift
    rows = np.array([np.diag([0.25, 0.75]), np.diag([0.5, 0.5])])
    built = Trajectory(np.zeros(2), rows.astype(complex), np.ones((2, 2)),
                       "density", 0.0)
    assert built.spectrum_drift == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("kind", ["state", "density"])
def test_write_trajectory_csv_plot_table(tmp_path, kind):
    # t and the populations, each field as the CSV prints it
    g = truncate(TWO_LEVEL, 2)
    c = PiecewiseConstantControl("reparametrized", [(1.0, 0.5)], 0.1)
    traj = (propagate(g, c, basis(2, 0), samples_per_piece=3)
            if kind == "state" else
            propagate_density(g, c, np.diag([0.7, 0.3]).astype(complex),
                              samples_per_piece=3))
    write_trajectory_csv(traj, tmp_path / "t.csv", tmp_path / "t.plot.dat")
    lines = (tmp_path / "t.plot.dat").read_text().splitlines()
    assert lines[0] == "# t pop_0 pop_1"
    assert lines[1:] == [" ".join("%.17g" % x for x in (t, *pop))
                         for t, pop in zip(traj.times, traj.populations)]
    rows = (tmp_path / "t.csv").read_text().splitlines()
    if kind == "state":  # the plot's fields are the CSV's, byte for byte
        assert [r.split(",")[-2:] for r in rows[1:]] == \
            [line.split()[1:] for line in lines[1:]]


def _reference_csv(traj):
    """Per-number format(float(x), ".17g"), one matrix at a time."""
    def fmt(x):
        return format(float(x), ".17g")

    n = traj.states.shape[1]
    if traj.kind == "state":
        lines = [["t"] + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
                 + [f"pop_{k}" for k in range(n)]]
        for t, psi, pop in zip(traj.times, traj.states, traj.populations):
            row = [fmt(t)]
            for k in range(n):
                row += [fmt(psi[k].real), fmt(psi[k].imag)]
            lines.append(row + [fmt(v) for v in pop])
    else:
        lines = [["t"] + [f"eig_{k}" for k in range(n)] + ["purity"]]
        for t, rho in zip(traj.times, traj.states):
            evals = np.sort(np.linalg.eigvalsh(rho))
            purity = np.real(np.trace(rho @ rho))
            lines.append([fmt(t)] + [fmt(v) for v in evals] + [fmt(purity)])
    return "".join(",".join(r) + "\n" for r in lines)


def test_trajectory_csv_matches_per_number_reference(tmp_path):
    g = truncate(THREE_LEVEL, 3)
    rng = np.random.default_rng(11)
    c = random_control(rng, "reparametrized", 3)
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    signed_zero = np.diag([1.0, -0.0]).astype(complex)
    trajs = [
        propagate(g, c, basis(3, 0), samples_per_piece=7),
        propagate_density(g, c, rho0, samples_per_piece=5),
        Trajectory(np.array([0.0, -0.0]),
                   np.array([[1.0, complex(-0.0, -0.0)], [-0.0, 1.0]]),
                   np.array([[1.0, 0.0], [-0.0, 1.0]]), "state", 0.0),
        Trajectory(np.array([-0.0]), signed_zero[None], np.ones((1, 2)),
                   "density", 0.0),
        # subnormals and 1e300 in the times, eigenvalues and purities
        Trajectory(np.array([5e-324, 1e300]),
                   np.array([np.diag([1e150, 5e-324]),
                             np.diag([-2.2e-311, 1e-160])]).astype(complex),
                   np.ones((2, 2)), "density", 0.0),
    ]
    for i, traj in enumerate(trajs):
        path = tmp_path / f"t{i}.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == _reference_csv(traj)
    assert "-0" in (tmp_path / "t2.csv").read_text()
    assert "-0" in (tmp_path / "t3.csv").read_text()
