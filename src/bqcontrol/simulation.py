"""Exact piecewise propagation and model-independent consistency checks.

Propagators are exact per piece (Hermitian eigendecomposition, no Trotter
error): in the original frame a piece of value u evolves by expm(t (A + u B)),
in the reparametrized frame by expm(t (u A + B)).  Norm and spectrum drift are
measured and reported, never silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_check_array, _check_int, _check_real, _partial_products,
                     _piece_factors)
from .models import Record, _cells, _write_text

__all__ = [
    "Trajectory",
    "ModulusDriftReport",
    "as_state",
    "as_density",
    "fidelity",
    "propagate",
    "propagate_density",
    "steering_time_lower_bound",
    "modulus_margins",
    "modulus_drift_check",
    "write_trajectory_csv",
]

STATE_ATOL = 1e-10
DENSITY_HERM_ATOL = 1e-12
DENSITY_EIG_ATOL = 1e-10
DRIFT_SLACK = 1e-8  # margin shortfall modulus_drift_check forgives
# stored entries a sampled trajectory may hold (rows * n for states, rows * n^2
# for densities): 256 MiB of complex numbers; larger requests are refused
MAX_TRAJECTORY_ENTRIES = 2**24


def as_state(x):
    """Validate a state vector: dimension >= 2, norm 1 within STATE_ATOL."""
    x = _check_array(x, "state", complex).ravel()
    if x.size < 2:
        raise ValueError("state must have dimension >= 2")
    with np.errstate(over="ignore"):  # an overflowing norm fails below
        nrm = float(np.linalg.norm(x))
    if not abs(nrm - 1.0) <= STATE_ATOL:
        raise ValueError(f"state norm deviates from 1 by {abs(nrm - 1):.3e}")
    return x


def as_density(R):
    """Validate a density matrix: Hermitian within DENSITY_HERM_ATOL, unit
    trace within STATE_ATOL, eigenvalues >= -DENSITY_EIG_ATOL."""
    R = _check_array(R, "density matrix", complex, square=True)
    with np.errstate(invalid="ignore", over="ignore"):  # overflow fails below
        herm = float(np.max(np.abs(R - R.conj().T)))
        tr = complex(np.trace(R))
    if not herm <= DENSITY_HERM_ATOL:
        raise ValueError(f"density matrix not Hermitian within "
                         f"{DENSITY_HERM_ATOL:g} (defect {herm:.3e})")
    if not abs(tr - 1.0) <= STATE_ATOL:
        raise ValueError(f"density trace deviates from 1 by {abs(tr - 1):.3e}")
    evals = np.linalg.eigvalsh((R + R.conj().T) / 2.0)
    if not float(evals.min()) >= -DENSITY_EIG_ATOL:
        raise ValueError(f"density matrix has eigenvalue {evals.min():.3e} < "
                         f"-{DENSITY_EIG_ATOL:g}")
    return R


def fidelity(psi, phi):
    """|<phi, psi>|^2 for state vectors."""
    psi = _check_array(psi, "psi", complex).ravel()
    phi = _check_array(phi, "phi", complex).ravel()
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch {psi.shape} vs {phi.shape}")
    return float(abs(np.vdot(phi, psi)) ** 2)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: states are (S, n) vectors or (S, n, n) densities."""

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    kind: str  # "state" | "density"
    norm_drift: float  # max deviation of ||psi|| (or tr rho) from 1
    spectrum_drift: float = 0.0  # densities: max drift of sorted eigenvalues

    @property
    def final(self):
        return self.states[-1]


def _sample(g, c, x, s):
    """(times, xs): x carried through the control, s equispaced samples per
    piece.  times starts at 0 and holds each piece's sample times, its end
    included; row j of the array xs is the running product of x with the
    exact 1/s-step propagators up to times[j].  x must have g.order rows.  A
    trajectory of more than MAX_TRAJECTORY_ENTRIES stored entries raises
    ValueError before anything is allocated."""
    if len(x) != g.order:
        raise ValueError(f"state dimension {len(x)} != order {g.order}")
    rows = 1 + c.npieces * s
    if rows * x.size > MAX_TRAJECTORY_ENTRIES:
        raise ValueError(f"{rows} samples of {x.size} entries each exceed the "
                         f"bound of {MAX_TRAJECTORY_ENTRIES} stored entries")
    steps = _piece_factors(g.A, g.B, c.durations / s, c.values, c.frame)[-1]
    xs = _partial_products(x, [U for U in steps for _ in range(s)])
    # piece start times, summed one piece at a time
    starts = np.append(0.0, np.cumsum(c.durations)[:-1])
    times = starts[:, None] + c.durations[:, None] * np.arange(1, s + 1) / s
    return np.append(0.0, times), xs


def propagate(g, c, psi0, samples_per_piece=16):
    """Evolve a state under a control, sampling inside every piece.

    Exact propagators per piece; the sample grid contains t = 0 and
    `samples_per_piece` equispaced points per piece (piece ends included).
    The returned norm drift is reported, not corrected.
    """
    psi = as_state(psi0)
    s = _check_int(samples_per_piece, "samples_per_piece", 1)

    times, states = _sample(g, c, psi, s)
    pops = np.abs(states) ** 2
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
    return Trajectory(times, states, pops, "state", drift)


def propagate_density(g, c, rho0, samples_per_piece=16):
    """Evolve a density matrix by conjugation with the exact propagators.

    The motion is isospectral; the drift of the sorted eigenvalues across the
    trajectory is measured and reported.
    """
    rho0 = as_density(rho0)
    n = g.order
    if rho0.shape != (n, n):
        raise ValueError(f"density dimension {rho0.shape} != order {n}")
    s = _check_int(samples_per_piece, "samples_per_piece", 1)

    times, mats = _sample(g, c, np.eye(n, dtype=complex), s)
    mats[0] = rho0
    for U in mats[1:]:  # overwrite each propagator U with U rho0 U^H
        U[...] = U @ rho0 @ U.conj().T
    pops = np.real(np.einsum("tkk->tk", mats))
    traces = np.real(np.einsum("tkk->t", mats))
    drift = float(np.max(np.abs(traces - 1.0)))
    spec = np.linalg.eigvalsh(mats)  # ascending rows; row 0 is rho0's
    spec_drift = float(np.max(np.abs(spec - spec[0])))
    return Trajectory(times, mats, pops, "density", drift, spec_drift)


# ---------------------------------------------------------------------------
# steering-time bound and coordinatewise drift
# ---------------------------------------------------------------------------


def steering_time_lower_bound(sys, psi0, psi1, eps, delta):
    """Lower bound on the time any admissible control needs for the transfer.

    For values in (0, delta), reaching within eps of psi1 from psi0 takes at
    least (1/delta) * sup_k (| |psi0_k| - |psi1_k| | - eps) / ||B phi_k||.
    Column norms use the stored rows of W only (a truncation surrogate: more
    stored rows can only increase them and so lower the bound).  A column
    with zero norm but positive numerator makes the bound +inf: that
    coordinate's modulus cannot move at all.  A delta so small that the
    bound overflows raises ValueError naming it.
    """
    psi0 = as_state(psi0)
    psi1 = as_state(psi1)
    if psi0.shape != psi1.shape:
        raise ValueError("psi0 and psi1 must have equal dimension")
    dim = psi0.shape[0]
    if dim > sys.levels:
        raise ValueError(f"state dimension {dim} exceeds stored levels")
    eps = _check_real(eps, "eps", 0.0, closed=True)
    delta = _check_real(delta, "delta", 0.0)

    cols = np.linalg.norm(sys.W[:, :dim], axis=0)
    best = 0.0
    for k in range(dim):  # Python abs: numpy's complex abs rounds differently
        num = abs(abs(psi0[k]) - abs(psi1[k])) - eps
        if num <= 0.0:
            continue
        if cols[k] == 0.0:
            return math.inf
        best = max(best, num / cols[k])
    with np.errstate(over="ignore"):
        bound = float(best / delta)
    if not math.isfinite(bound):
        raise ValueError(f"delta={delta!r} makes the bound {best:g} / delta "
                         "overflow")
    return bound


def modulus_margins(psi_start, psi_end, duration, column_norms):
    """Margins duration * ||B phi_k|| - | |psi_start_k| - |psi_end_k| |."""
    a = np.abs(_check_array(psi_start, "psi_start", complex))
    b = np.abs(_check_array(psi_end, "psi_end", complex))
    duration = _check_real(duration, "duration", 0.0, closed=True)
    return duration * _check_array(column_norms, "column_norms") - np.abs(
        a - b
    )


@dataclass(frozen=True)
class ModulusDriftReport(Record):
    ok: bool
    worst_margin: float
    margins: tuple


def modulus_drift_check(g, c, psi0):
    """Verify the coordinatewise modulus inequality along a propagation.

    In the reparametrized frame each coordinate's modulus moves at most
    duration * ||B phi_k||; in the original frame the budget is the
    integrated control value instead of the duration (the coupling enters
    scaled by u there).  Passes when every margin is >= -DRIFT_SLACK.
    """
    psi0 = as_state(psi0)
    final = _sample(g, c, psi0, 1)[1][-1]
    cols = np.linalg.norm(np.abs(g.B), axis=0)
    budget = (c.total_duration if c.frame == "reparametrized"
              else c.integrated_value)
    margins = modulus_margins(psi0, final, budget, cols)
    worst = float(margins.min())
    return ModulusDriftReport(
        ok=worst >= -DRIFT_SLACK,
        worst_margin=worst,
        margins=tuple(float(v) for v in margins),
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_trajectory_csv(traj, path, plot_path=None):
    """Write a trajectory as CSV with 17 significant digits per number.

    State trajectories: t, re_0, im_0, ..., pop_0, ...
    Density trajectories: t, eig_0, ..., purity.
    With plot_path, also the gnuplot table of t, pop_0, ...: for a state
    trajectory the CSV's own fields, separated by spaces, so every number is
    formatted once.
    """
    n = traj.states.shape[1]
    t = _cells(traj.times[:, None])
    pop = (_cells(traj.populations)
           if traj.kind == "state" or plot_path is not None else [])
    if traj.kind == "state":
        header = (
            ["t"]
            + [f"{p}_{k}" for k in range(n) for p in ("re", "im")]
            + [f"pop_{k}" for k in range(n)]
        )
        # the float view interleaves re/im in header order
        amp = _cells(np.ascontiguousarray(traj.states, dtype=complex)
                     .view(float))
        body = [f"{a},{b},{c}\n" for a, b, c in zip(t, amp, pop)]
    elif traj.kind == "density":
        header = ["t"] + [f"eig_{k}" for k in range(n)] + ["purity"]
        purity = np.real(np.trace(traj.states @ traj.states, axis1=1, axis2=2))
        rest = _cells(np.column_stack([np.linalg.eigvalsh(traj.states),
                                       purity]))
        body = [f"{a},{b}\n" for a, b in zip(t, rest)]
    else:
        raise ValueError(f"unknown trajectory kind {traj.kind!r}")
    _write_text(path, ",".join(header) + "\n" + "".join(body))

    if plot_path is not None:
        names = ["t"] + [f"pop_{k}" for k in range(n)]
        _write_text(plot_path, "# " + " ".join(names) + "\n" + "".join(
            [f"{a} {c.replace(',', ' ')}\n" for a, c in zip(t, pop)]))
