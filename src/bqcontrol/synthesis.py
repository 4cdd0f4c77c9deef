"""Piecewise-constant control synthesis.

Controls are finite lists of (duration, value) pieces in one of two frames:

* "original": the generator on a piece of value u is A + u B, with u in the
  admissible band (0, delta);
* "reparametrized": the generator is u A + B with u > delta.  The frames are
  exchanged by the exact change of variables (t, u) -> (t u, 1/u).

Steering works directly in the reparametrized frame by seeded multi-start
direct search plus coordinate descent.  The oscillation-based lift turns a
low-order control into one whose conjugated coupling time-averages to its
block-diagonal part at a higher order, which decoupling_error quantifies.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import _piece_unitaries, assert_unitary
from .models import _write_json

__all__ = [
    "PiecewiseConstantControl",
    "PhaseSearchError",
    "StateSteeringResult",
    "UnitarySteeringResult",
    "PhaseCorrection",
    "reparametrize",
    "final_state",
    "steer_state",
    "steer_unitary",
    "lift_control",
    "decoupling_error",
    "phase_correction",
    "control_to_json",
    "control_from_json",
    "dump_control",
    "load_control",
]

FRAMES = ("original", "reparametrized")
VALUE_CEILING_FACTOR = 1e3  # optimized control values stay in (delta, delta*1e3]
N_STARTS = 24  # random starts per piece count
MAX_DURATION = 10.0  # upper bound on a searched piece duration
MAX_SCAN_POINTS = 2**24  # work bound of one torus-return scan, in grid points
_FINE = 129  # fine points per coarse cell of a torus-return scan
_SCAN_CHUNK = 65536  # coarse points evaluated per vectorized pass


class PhaseSearchError(RuntimeError):
    """No admissible plateau time exists within the search horizon."""


class PiecewiseConstantControl:
    """A finite piecewise-constant control law.

    Parameters
    ----------
    frame : "original" or "reparametrized".
    pieces : iterable of (duration, value); durations strictly positive and
        values inside the frame's admissible set ((0, delta) original,
        (delta, inf) reparametrized).  May be empty.
    delta : the admissibility bound, > 0.
    meta : free-form JSON-serializable dict.
    """

    def __init__(self, frame, pieces, delta, meta=None):
        if frame not in FRAMES:
            raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
        delta = float(delta)
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {delta}")
        pieces = [(float(t), float(u)) for t, u in pieces]
        durations = np.array([t for t, _ in pieces])
        values = np.array([u for _, u in pieces])
        if not (np.all(np.isfinite(durations)) and np.all(np.isfinite(values))):
            raise ValueError("piece durations and values must be finite")
        if durations.size and not np.all(durations > 0.0):
            raise ValueError("all piece durations must be strictly positive")
        if values.size:
            if frame == "original":
                if not np.all((values > 0.0) & (values < delta)):
                    raise ValueError(
                        f"original-frame values must lie in (0, {delta})"
                    )
            elif not np.all(values > delta):
                raise ValueError(
                    f"reparametrized-frame values must exceed {delta}"
                )
        self.frame = frame
        self.durations = durations
        self.values = values
        self.delta = delta
        self.meta = dict(meta or {})
        self.durations.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def npieces(self):
        return int(self.durations.shape[0])

    @property
    def pieces(self):
        return tuple(zip(self.durations.tolist(), self.values.tolist()))

    @property
    def total_duration(self):
        return float(self.durations.sum())

    @property
    def integrated_value(self):
        """v(T) = sum of duration * value over the pieces."""
        return float(np.dot(self.durations, self.values))

    def integrated_value_at(self, t):
        """v(t) for 0 <= t <= total_duration (piecewise affine)."""
        t = float(t)
        acc = 0.0
        for dur, val in zip(self.durations, self.values):
            if t <= dur:
                return acc + val * t
            acc += val * dur
            t -= dur
        return acc

    def __repr__(self):
        return (
            f"PiecewiseConstantControl(frame={self.frame!r}, "
            f"npieces={self.npieces}, delta={self.delta!r})"
        )


def reparametrize(c):
    """Exchange frames by (t, u) -> (t u, 1/u); an involution up to rounding."""
    frame = "reparametrized" if c.frame == "original" else "original"
    pieces = [(t * u, 1.0 / u) for t, u in zip(c.durations, c.values)]
    return PiecewiseConstantControl(frame, pieces, 1.0 / c.delta, meta=c.meta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def control_to_json(c):
    return {
        "frame": c.frame,
        "delta": c.delta,
        "pieces": [
            {"duration": t, "value": u}
            for t, u in zip(c.durations.tolist(), c.values.tolist())
        ],
        "meta": dict(c.meta),
    }


def control_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("control document must be a JSON object")
    for key in ("frame", "delta", "pieces"):
        if key not in doc:
            raise ValueError(f"control document missing required key '{key}'")
    pieces = [(p["duration"], p["value"]) for p in doc["pieces"]]
    return PiecewiseConstantControl(
        doc["frame"], pieces, doc["delta"], meta=doc.get("meta")
    )


def dump_control(c, path):
    _write_json(path, control_to_json(c))


def load_control(path):
    with open(path) as fh:
        return control_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# direct search in the reparametrized frame
# ---------------------------------------------------------------------------


def final_state(g, control, x):
    """Apply a control's exact piecewise propagator to a state vector."""
    x = np.asarray(x, dtype=complex)
    for U in _piece_unitaries(g.A, g.B, control.durations, control.values,
                              control.frame):
        x = U @ x
    return x


def _propagator(g, durations, values):
    U = np.eye(g.order, dtype=complex)
    for F in _piece_unitaries(g.A, g.B, durations, values, "reparametrized"):
        U = F @ U
    return U


@dataclass(frozen=True)
class StateSteeringResult:
    control: PiecewiseConstantControl
    infidelity: float
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class UnitarySteeringResult:
    control: PiecewiseConstantControl
    theta: float
    distance: float
    converged: bool
    evaluations: int
    traceless: bool


def _coordinate_descent(f, p, lo, hi, step, cap, tol):
    """Cyclic coordinate descent with shrinking steps inside box bounds.

    Makes at most `cap` calls of f; returns (params, score, calls made).
    """
    best = f(p)
    used = 1
    p = p.copy()
    step = step.copy()
    while best > tol and used < cap:
        improved = False
        for i in range(len(p)):
            for sgn in (1.0, -1.0):
                q = p.copy()
                q[i] = min(hi[i], max(lo[i], p[i] + sgn * step[i]))
                if q[i] == p[i]:
                    continue
                if used >= cap:
                    return p, best, used
                v = f(q)
                used += 1
                if v < best - 1e-16:
                    p, best = q, v
                    improved = True
                    break
            if best <= tol:
                return p, best, used
        if not improved:
            step *= 0.5
            if np.max(step) < 1e-6:
                break
    return p, best, used


def _search(objective, m, delta, tol, rng, max_evals):
    """Multi-start + coordinate descent over m pieces.

    Parameter vector layout: [durations..., log(values)...].  Values are kept
    in (delta, delta * 1e3]; half the starts are biased toward the low end of
    the value band (weak detuning), where transfers are easiest.  The best
    few candidates are refined, ties broken by lexicographically smallest
    parameters, so the outcome is a deterministic function of the seed.
    Returns (params, score, evaluations).
    """
    v_lo = math.log(delta * (1.0 + 1e-9))
    v_hi = math.log(delta * VALUE_CEILING_FACTOR)
    lo = np.array([1e-3] * m + [v_lo] * m)
    hi = np.array([MAX_DURATION] * m + [v_hi] * m)

    cands = []
    for i in range(N_STARTS):
        d = rng.uniform(0.05, MAX_DURATION, size=m)
        if i % 2 == 0:
            w = v_lo + np.abs(rng.normal(0.0, 0.6, size=m))
            w = np.minimum(w, v_hi)
        else:
            w = rng.uniform(v_lo, v_hi, size=m)
        cands.append(np.concatenate([d, w]))
    scores = [objective(c) for c in cands]
    used = len(cands)
    order = sorted(
        range(len(cands)), key=lambda i: (scores[i], tuple(cands[i]))
    )
    p_best, s_best = cands[order[0]], scores[order[0]]
    if s_best <= tol or used >= max_evals:
        return p_best, s_best, used

    step0 = np.array([0.25 * MAX_DURATION] * m + [0.8] * m)
    refine = order[: min(4, len(order))]
    for rank, idx in enumerate(refine):
        cap = (max_evals - used) // (len(refine) - rank)
        if cap < 10:
            break
        p, s, ev = _coordinate_descent(
            objective, cands[idx], lo, hi, step0, cap, tol
        )
        used += ev
        if s < s_best:
            p_best, s_best = p, s
        if s_best <= tol:
            break
    return p_best, s_best, used


def _escalate(objective, delta, tol, budget, seed, piece_counts):
    """Search with growing piece counts until one reaches tol.

    Each piece count gets a slice of the remaining budget, so failing to
    converge with few pieces still leaves room to escalate; a budget whose
    first slice cannot exceed the N_STARTS random starts raises ValueError.
    Returns (params, score, piece count, evaluations) of the best search.
    """
    if not piece_counts:
        raise ValueError("piece_counts must name at least one piece count")
    if budget // len(piece_counts) <= N_STARTS:
        raise ValueError(
            f"budget {budget} leaves no room to search: need at least "
            f"{(N_STARTS + 1) * len(piece_counts)} evaluations for "
            f"{len(piece_counts)} piece counts of {N_STARTS} starts each"
        )
    rng = np.random.default_rng(seed)
    used = 0
    best_p, best_s, best_m = None, np.inf, 0
    for k, m in enumerate(piece_counts):
        slice_ = (budget - used) // (len(piece_counts) - k)
        p, s, ev = _search(
            lambda q, m=m: objective(q, m),
            m, delta, tol, rng, slice_,
        )
        used += ev
        if s < best_s:
            best_p, best_s, best_m = p, s, m
        if best_s <= tol:
            break
    return best_p, best_s, best_m, used


def _params_to_control(p, m, delta, meta):
    pieces = list(zip(p[:m], np.exp(p[m:])))
    return PiecewiseConstantControl("reparametrized", pieces, delta, meta=meta)


def steer_state(g, x0, x1, delta, tol=1e-3, budget=40000, seed=0,
                piece_counts=(2, 3, 4, 6, 8)):
    """Search for a control steering x0 to x1 up to phase within tol.

    Operates in the reparametrized frame (piece values in (delta,
    delta * 1e3]).  The objective is the projective infidelity
    1 - |<x1, x(T)>|^2.  Deterministic for a fixed seed.  When the budget runs
    out first, the best control found is returned tagged unconverged.
    """
    x0 = np.asarray(x0, dtype=complex).ravel()
    x1 = np.asarray(x1, dtype=complex).ravel()
    if x0.shape != (g.order,) or x1.shape != (g.order,):
        raise ValueError(f"states must have shape ({g.order},)")
    for name, x in (("x0", x0), ("x1", x1)):
        nrm = np.linalg.norm(x)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"{name} must be normalized (|norm - 1| = {abs(nrm-1):.2e})")
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")

    def infidelity(p, m):
        x = x0
        for U in _piece_unitaries(g.A, g.B, p[:m], np.exp(p[m:]),
                                  "reparametrized"):
            x = U @ x
        return 1.0 - abs(np.vdot(x1, x)) ** 2

    base = 1.0 - abs(np.vdot(x1, x0)) ** 2
    meta = {"seed": int(seed), "target": "state"}
    if base <= tol:
        c = PiecewiseConstantControl("reparametrized", [], delta, meta=meta)
        return StateSteeringResult(c, base, True, 0)

    best_p, best_s, best_m, used = _escalate(
        infidelity, delta, tol, budget, seed, piece_counts
    )
    converged = bool(best_s <= tol)
    meta["infidelity"] = float(best_s)
    if not converged:
        meta["unconverged"] = True
    c = _params_to_control(best_p, best_m, delta, meta)
    return StateSteeringResult(c, float(best_s), converged, used)


def _phase_distance(U, G, sector):
    """(distance, theta) minimizing ||e^{i theta} U - G||_F over [0, sector].

    ||e^{i theta} U - G||_F^2 = 2n - 2|z| cos(phi - theta) with z = tr(U^H G)
    and phi = arg z, so theta = phi mod 2 pi when that lies in the sector and
    otherwise the end of the sector nearer to it on the circle.  A sector of
    2 pi is the whole circle: theta lies in [0, 2 pi).
    """
    z = complex(np.trace(U.conj().T @ G))
    n = U.shape[0]
    theta = float(np.angle(z)) % (2.0 * math.pi) if z != 0 else 0.0
    if theta == 2.0 * math.pi:  # float mod maps a hair-below-zero angle here
        theta = 0.0
    off = 0.0  # |phi - theta| on the circle
    if theta > sector:
        up, down = theta - sector, 2.0 * math.pi - theta
        theta, off = (sector, up) if up <= down else (0.0, down)
    d2 = 2.0 * n - 2.0 * abs(z) * math.cos(off)
    return math.sqrt(max(0.0, d2)), theta


def steer_unitary(g, g0, g1, delta, tol=1e-3, budget=60000, seed=0,
                  piece_counts=(2, 3, 4, 6, 8)):
    """Steer the propagator from g0 to g1 up to a global phase.

    One search minimizes ||e^{i theta} g_final - g1||_F over the control and
    over theta in a sector, with theta in closed form from the phase of
    tr(g_final^H g1).  When both generators are traceless, det g_final is
    fixed, so the phases that solve e^{i theta} g_final = g1 are 2 pi / n
    apart and the sector is [0, 2 pi / n]: theta lies in that closed
    interval, and is 2 pi / n itself when the best phase lies just past it.
    Otherwise theta lies in [0, 2 pi).  The reported theta and distance come
    from one evaluation, so the distance is ||e^{i theta} g_final - g1||_F
    at the reported theta.
    """
    g0 = assert_unitary(g0, atol=1e-9)
    g1 = assert_unitary(g1, atol=1e-9)
    n = g.order
    if g0.shape != (n, n) or g1.shape != (n, n):
        raise ValueError(f"g0, g1 must have shape {(n, n)}")
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    traceless = (
        abs(complex(np.trace(g.A))) <= 1e-12
        and abs(complex(np.trace(g.B))) <= 1e-12
    )
    sector = 2.0 * math.pi / n if traceless else 2.0 * math.pi

    def distance(p, m):
        U = _propagator(g, p[:m], np.exp(p[m:])) @ g0
        return _phase_distance(U, g1, sector)[0]

    meta = {"seed": int(seed), "target": "unitary"}
    d0, th0 = _phase_distance(g0, g1, sector)
    if d0 <= tol:
        c = PiecewiseConstantControl("reparametrized", [], delta, meta=meta)
        return UnitarySteeringResult(c, th0, d0, True, 0, traceless)

    best_p, _, m, used = _escalate(
        distance, delta, tol, budget, seed, piece_counts
    )
    U = _propagator(g, best_p[:m], np.exp(best_p[m:])) @ g0
    dist, theta = _phase_distance(U, g1, sector)
    converged = bool(dist <= tol)
    meta["distance"] = float(dist)
    meta["theta"] = float(theta)
    if not converged:
        meta["unconverged"] = True
    c = _params_to_control(best_p, m, delta, meta)
    return UnitarySteeringResult(
        c, float(theta), float(dist), converged, used, traceless
    )


# ---------------------------------------------------------------------------
# oscillation lift and decoupling diagnostics
# ---------------------------------------------------------------------------


def _circ_dist(a, b):
    d = np.mod(a - b + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(d)


def _torus_return(freqs, targets, lo, tol, step, points=MAX_SCAN_POINTS):
    """First s >= lo found with max_j arc(freqs_j s, targets_j) <= tol.

    Coarse pass over lo + k step (k < points) with Lipschitz slack, then 129
    fine points around each surviving candidate; a fine minimum within one
    fine-cell slack of tol is zoomed onto before it is accepted or dropped.
    Raises PhaseSearchError once all `points` coarse points are scanned.
    """
    lipschitz = float(np.max(np.abs(freqs))) if len(freqs) else 0.0
    if lipschitz == 0.0:
        points = 1  # the residual is constant: one point settles it

    def resid(s):  # (freqs, points) layout: the max runs over long rows
        d = _circ_dist(np.multiply.outer(freqs, s), targets[:, None])
        return np.max(d, axis=0)

    unit = np.linspace(-1.0, 1.0, _FINE)
    cell = step / (_FINE - 1)  # fine-point spacing around a candidate
    slack = tol + 0.5 * step * lipschitz
    for start in range(0, points, _SCAN_CHUNK):
        grid = lo + step * np.arange(start, min(start + _SCAN_CHUNK, points))
        for g in grid[resid(grid) <= slack]:
            fine = np.clip(g + 0.5 * step * unit, lo, None)
            fr = resid(fine)
            if fr.min() > tol + 0.5 * cell * lipschitz:
                continue
            span = cell
            for _ in range(3):  # each zoom narrows the cell 64-fold
                fine = np.clip(fine[np.argmin(fr)] + span * unit, lo, None)
                fr = resid(fine)
                span *= 2.0 / (_FINE - 1)
            b = int(np.argmin(fr))
            if fr[b] <= tol:
                return float(fine[b])
    raise PhaseSearchError(
        f"no s with phase residual <= {tol:.6g} in [{lo:.6g}, "
        f"{lo + points * step:.6g}] ({points} grid points of step {step:.6g}) "
        f"for phase targets {np.round(targets, 6).tolist()}"
    )


def lift_control(target, sys, n, N, phase_tol=0.05, delta_bar=None,
                 subdivisions=8, horizon=None):
    """Lift an order-n control so its conjugated coupling decouples at order N.

    The target's integrated value v(t) is approximated by plateaus (one per
    subinterval of each piece).  For each plateau w an increasing time s is
    found whose phases (lambda_1 - lambda_j) s match those of w within
    phase_tol for j <= n, alternating between plateaus that also match on the
    upper block (w-type) and plateaus offset by pi there (z-type), which makes
    the upper off-diagonal block of the conjugated coupling average out.  The
    output control is the piecewise-constant derivative of the resulting
    sawtooth: a fast ramp to each plateau time followed by a slope-delta_bar
    hold (delta_bar defaults to 2 delta).

    Each plateau time is searched on a grid of step pi / (4 max|lambda_1 -
    lambda_j|) over at most MAX_SCAN_POINTS points, or horizon / step points
    when `horizon` is given; PhaseSearchError names the scanned interval when
    the bound is hit.  A gap relation that makes the z-type targets
    unreachable raises PhaseSearchError naming it before any scan.
    """
    if target.frame != "reparametrized":
        raise ValueError("lift_control expects a reparametrized-frame target")
    n = int(n)
    N = int(N)
    if not (1 <= n <= N <= sys.levels):
        raise ValueError(
            f"need 1 <= n <= N <= {sys.levels}, got n={n}, N={N}"
        )
    if N == n:
        return target
    if target.npieces == 0:
        raise ValueError("target control has no pieces")

    from .certification import nonresonance  # local import avoids a cycle

    gaps = np.diff(sys.lam[:N])
    verdict = nonresonance(gaps, Q=10, tol=1e-9)
    if verdict.found:
        warnings.warn(
            f"gap relation {verdict.relation} found at order {N}; "
            "phase targets may be unreachable",
            stacklevel=2,
        )

    delta = target.delta
    if delta_bar is None:
        delta_bar = 2.0 * delta
    if delta_bar <= delta:
        raise ValueError(f"delta_bar must exceed delta={delta}")
    k = int(subdivisions)
    if k < 2:
        raise ValueError("need at least 2 subdivisions per piece")

    lam = sys.lam[:N]
    freqs = lam[0] - lam[1:]  # (lambda_1 - lambda_j) for j = 2..N
    base = np.zeros(N - 1)
    flip = np.concatenate(
        [np.zeros(n - 1), math.pi * np.ones(N - n)]
    )  # z-type offset on the upper block
    max_freq = float(np.max(np.abs(freqs))) if np.any(freqs) else 1.0
    step = math.pi / (4.0 * max_freq)
    points = MAX_SCAN_POINTS if horizon is None else math.ceil(horizon / step)
    if verdict.found:
        # p . freqs = q . gaps ~ 0, so p . freqs (s - w) stays within
        # |p . freqs| |s - w| of 0, while a z-type target needs it at
        # p . flip mod 2 pi up to ||p||_1 phase_tol; reach bounds |s - w|
        q = np.array(verdict.relation)
        p = np.append(q[1:], 0) - q
        reach = (k * target.npieces * points * step
                 + delta_bar * target.total_duration + target.integrated_value)
        gap = abs(math.remainder(float(p @ flip), 2.0 * math.pi))
        if gap > np.abs(p).sum() * phase_tol + abs(float(p @ freqs)) * reach:
            raise PhaseSearchError(
                f"gap relation {verdict.relation} makes the z-type phase "
                f"targets unreachable: offset {gap:.6g} rad off the relation"
            )

    pieces = []
    plateaus = []
    v_cur = 0.0
    v_target = 0.0
    idx = 0
    for T_p, u_p in zip(target.durations, target.values):
        dt = T_p / k
        ramp = dt / k
        hold = dt - ramp
        for i in range(k):
            w = v_target + u_p * dt * (i + 0.5)  # plateau = v at midpoint
            kind = "w" if idx % 2 == 0 else "z"
            offsets = base if kind == "w" else flip
            targets = np.mod(freqs * w + offsets, 2.0 * math.pi)
            lo = v_cur + delta_bar * ramp
            s = _torus_return(freqs, targets, lo, phase_tol, step, points)
            resid = float(
                np.max(_circ_dist(freqs * s, targets)) if len(freqs) else 0.0
            )
            pieces.append((ramp, (s - v_cur) / ramp))
            pieces.append((hold, delta_bar))
            plateaus.append(
                {"time": s, "type": kind, "target": w, "residual": resid}
            )
            v_cur = s + delta_bar * hold
            idx += 1
        v_target += u_p * T_p

    meta = dict(target.meta)
    meta.update(
        {
            "lifted": {
                "order": n,
                "verify_order": N,
                "phase_tol": phase_tol,
                "delta_bar": delta_bar,
                "subdivisions": k,
            },
            "plateaus": plateaus,
        }
    )
    return PiecewiseConstantControl("reparametrized", pieces, delta, meta=meta)


def decoupling_error(c, sys, n, N, grid=256):
    """Sup over a time grid of the off-block running integral of the coupling.

    The conjugated coupling at time t has entries W[j][k] exp(i (lambda_k -
    lambda_j) v(t)) (times -i); its block-diagonal truncation cancels exactly,
    leaving the two off-diagonal blocks (rows < n vs columns >= n).  Each
    piece contributes a closed-form integral of a complex exponential, so the
    running integral is evaluated exactly at the grid times.
    """
    if c.frame != "reparametrized":
        raise ValueError("decoupling_error expects a reparametrized control")
    n = int(n)
    N = int(N)
    if not (1 <= n <= N <= sys.levels):
        raise ValueError(f"need 1 <= n <= N <= {sys.levels}")
    grid = int(grid)
    if grid < 1:
        raise ValueError("grid must be a positive integer")
    if n == N or c.npieces == 0:
        return 0.0

    lam = sys.lam[:N]
    mask = np.zeros((N, N), dtype=bool)
    mask[:n, n:] = mask[n:, :n] = True
    B = -1j * sys.W[:N, :N][mask]
    Om = (lam[None, :] - lam[:, None])[mask]  # exponent frequencies
    nz = Om != 0.0

    times = np.linspace(0.0, c.total_duration, grid + 1)[1:]
    starts = np.concatenate([[0.0], np.cumsum(c.durations)])
    v_starts = np.concatenate([[0.0], np.cumsum(c.durations * c.values)])

    def seg_integral(p, dt):
        """Integrals over [starts[p], starts[p] + dt], one row per (p, dt)."""
        u, dt = c.values[p][:, None], dt[:, None]
        out = B * dt  # exact on the zero-frequency entries
        w = Om[nz]
        out[:, nz] = (B[nz] * np.exp(1j * w * v_starts[p][:, None])
                      * (np.exp(1j * w * u * dt) - 1.0) / (1j * w * u))
        return out

    full = seg_integral(np.arange(c.npieces), c.durations)
    cum = np.concatenate([np.zeros_like(full[:1]), np.cumsum(full, axis=0)])
    p = np.minimum(np.searchsorted(starts, times, side="right") - 1,
                   c.npieces - 1)
    I = cum[p] + seg_integral(p, times - starts[p])
    return float(np.max(np.abs(I)))


# ---------------------------------------------------------------------------
# phase correction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCorrection:
    tau: float
    u: float
    v2: float
    residual: float


def phase_correction(lam, v1, delta, eps, tau_max, coupling_bound=None):
    """Constant control realizing the phase v1 modulo a near-identity factor.

    Finds v2 > max(0, -v1) with max_j |exp(i lambda_j v2) - 1| <= eps / 2
    (the torus line {lambda v2} returns near the identity for arbitrarily
    large v2) by the same bounded grid scan as the lift: at most
    MAX_SCAN_POINTS points of step pi / (4 max|lambda|), after which
    PhaseSearchError names the scanned interval.  Then picks tau <= tau_max
    with u = (v1 + v2) / tau > delta, so tau * u = v1 + v2 exactly.
    When `coupling_bound` (a norm bound on the coupling term; not derivable
    from the arguments here) is given, tau is additionally capped at
    eps / (2 * coupling_bound).
    """
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("need at least one eigenvalue")
    eps = float(eps)
    delta = float(delta)
    tau_max = float(tau_max)
    if eps <= 0.0 or delta <= 0.0 or tau_max <= 0.0:
        raise ValueError("eps, delta and tau_max must be positive")

    v1 = float(v1)
    lo = max(0.0, -v1) + 1e-12

    lmax = float(np.max(np.abs(lam)))
    if lmax == 0.0:
        v2 = lo + 1.0
    else:
        step = math.pi / (4.0 * lmax)
        # the floor keeps v2 off lo+, where the residual is small merely by
        # continuity; the arc tolerance is the chord test |e^{i x} - 1| <= eps/2
        v2 = _torus_return(lam, np.zeros_like(lam), lo + 0.5 * step,
                           2.0 * math.asin(min(1.0, eps / 4.0)), step)
    res = float(np.max(2.0 * np.abs(np.sin(0.5 * lam * v2))))

    total = v1 + v2
    tau = min(tau_max, (1.0 - 1e-9) * total / delta)
    if coupling_bound is not None:
        tau = min(tau, eps / (2.0 * float(coupling_bound)))
    if tau <= 0.0:
        raise ValueError("no admissible tau > 0 under the given constraints")
    u = total / tau
    return PhaseCorrection(tau=float(tau), u=float(u), v2=float(v2),
                           residual=float(res))
