"""Piecewise-constant control synthesis.

Controls are finite lists of (duration, value) pieces in one of two frames:

* "original": the generator on a piece of value u is A + u B, with u in the
  admissible band (0, delta);
* "reparametrized": the generator is u A + B with u > delta.  The frames are
  exchanged by the exact change of variables (t, u) -> (t u, 1/u).

Steering works directly in the reparametrized frame, scoring a point as
h(F_{m-1} ... F_0 x0) over its piece factors F_k: seeded random starts,
all scored from one batched kernel call, and a projected L-BFGS refinement
of the best of them.  Each point a refinement tries is one evaluation,
scored by value: one batched eigendecomposition of the piece generators
gives the factors and a forward pass the running products.  The gradient
is taken only at points the refinement steps from: a backward pass gives
the cotangents, and the Daleckii-Krein form of the derivative of the
matrix exponential gives the exact gradient in the durations and log
values (Najfeld & Havel, Adv. Appl. Math. 16 (1995) 321; Khaneja et al.,
J. Magn. Reson. 172 (2005) 296).  The oscillation-based lift turns a
low-order control into one whose conjugated coupling time-averages to its
block-diagonal part at a higher order, which decoupling_error quantifies.
"""

from __future__ import annotations

import cmath
import collections
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .certification import nonresonance
from .linalg import (_check_array, _check_int, _check_meta, _check_real,
                     _partial_products, _piece_factors, assert_unitary)
from .models import _read_json, _require, _write_json
from .simulation import as_state

__all__ = [
    "PiecewiseConstantControl",
    "PhaseSearchError",
    "StateSteeringResult",
    "UnitarySteeringResult",
    "reparametrize",
    "final_state",
    "steer_state",
    "steer_unitary",
    "lift_control",
    "decoupling_error",
    "control_to_json",
    "control_from_json",
    "dump_control",
    "load_control",
]

FRAMES = ("original", "reparametrized")
VALUE_CEILING_FACTOR = 1e3  # optimized control values stay in (delta, delta*1e3]
# the largest delta whose value band (delta, delta * 1e3] stays finite
DELTA_CEILING = sys.float_info.max / VALUE_CEILING_FACTOR
N_STARTS = 24  # random starts per piece count
PIECE_COUNTS = (2, 3, 4, 6, 8)  # piece counts a steering search escalates to
MAX_DURATION = 10.0  # upper bound on a searched piece duration
MAX_SCAN_POINTS = 2**24  # work bound of one torus-return scan, in grid points
SUBDIVISIONS = 8  # plateaus per target piece in lift_control
_FINE = 129  # fine points per coarse cell of a torus-return scan
_SCAN_CHUNK = 65536  # coarse points evaluated per vectorized pass
_FINE_BLOCK = 2**15  # fine-pass elements (frequencies x points) per pass
_HISTORY = 10  # curvature pairs an L-BFGS refinement keeps
_ARMIJO = 1e-4  # fraction of the predicted drop a step must achieve
_HALVINGS = 20  # step halvings before a line search fails
_GRAD_FLOOR = 1e-12  # a projected gradient this small has vanished
_STALL = 10  # a refinement stops when this many accepted steps together
_STALL_DROP = 1e-6  # lower the score by less than this relative amount


class PhaseSearchError(RuntimeError):
    """No admissible plateau time exists within the bounded scan."""


class PiecewiseConstantControl:
    """A finite piecewise-constant control law.

    Parameters
    ----------
    frame : "original" or "reparametrized".
    pieces : iterable of (duration, value) numbers; durations strictly
        positive and finite, values inside the frame's admissible set
        ((0, delta) original, (delta, inf) reparametrized).  May be empty.
    delta : the admissibility bound, > 0.
    meta : free-form JSON-serializable dict.
    """

    def __init__(self, frame, pieces, delta, meta=None):
        if not isinstance(frame, str) or frame not in FRAMES:
            raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
        delta = _check_real(delta, "delta", 0.0)
        lo, hi = (0.0, delta) if frame == "original" else (delta, math.inf)
        pieces = [(_check_real(t, "piece duration", 0.0),
                   _check_real(u, f"{frame}-frame piece value", lo, hi))
                  for t, u in pieces]
        durations = np.array([t for t, _ in pieces])
        values = np.array([u for _, u in pieces])
        self.frame = frame
        self.durations = durations
        self.values = values
        self.delta = delta
        self.meta = _check_meta(meta)
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

    def __repr__(self):
        return (
            f"PiecewiseConstantControl(frame={self.frame!r}, "
            f"npieces={self.npieces}, delta={self.delta!r})"
        )


def reparametrize(c):
    """Exchange frames by (t, u) -> (t u, 1/u); an involution up to rounding.

    A duration, value or delta that is not a normal finite double before or
    after the change raises ValueError, so what this returns converts back."""
    frame = "reparametrized" if c.frame == "original" else "original"
    with np.errstate(over="ignore"):  # an overflow is refused below
        t, u, delta = c.durations * c.values, 1.0 / c.values, 1.0 / c.delta
    # where a 1/u rounds onto 1/delta, delta moves one ulp to keep it inside
    if frame == "reparametrized":
        delta = min(delta, np.nextafter(u.min(initial=np.inf), 0.0))
    else:
        delta = max(delta, np.nextafter(u.max(initial=0.0), np.inf))
    lo, hi = sys.float_info.min, sys.float_info.max
    normal = np.all([(lo <= x) & (x <= hi)
                     for x in (c.durations, c.values, t, u)], axis=0)
    bad = [f"piece {k} {c.pieces[k]} to {float(t[k]), float(u[k])}"
           for k in np.flatnonzero(~normal)[:1]]
    if not (lo <= c.delta <= hi and lo <= delta <= hi):
        bad.append(f"delta {c.delta!r} to {float(delta)!r}")
    if bad:
        raise ValueError(f"the frame change (t, u) -> (t u, 1/u) takes "
                         f"{bad[0]}, outside the normal finite doubles")
    return PiecewiseConstantControl(frame, zip(t, u), delta, meta=c.meta)


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
    _require(doc, "control document", ("frame", "delta", "pieces"))
    pieces = doc["pieces"]
    if not isinstance(pieces, list) or not all(
        isinstance(p, dict) and "duration" in p and "value" in p for p in pieces
    ):
        raise ValueError(
            "control pieces must be a list of {duration, value} objects"
        )
    return PiecewiseConstantControl(
        doc["frame"], [(p["duration"], p["value"]) for p in pieces],
        doc["delta"], meta=doc.get("meta"))


def dump_control(c, path):
    _write_json(path, control_to_json(c))


def load_control(path):
    return control_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# multi-start search in the reparametrized frame
# ---------------------------------------------------------------------------


def final_state(g, control, x):
    """Apply a control's exact piecewise propagator to a state vector."""
    x = np.atleast_1d(_check_array(x, "x", complex))
    if len(x) != g.order:
        raise ValueError(f"state dimension {len(x)} != order {g.order}")
    F = _piece_factors(g.A, g.B, control.durations, control.values,
                       control.frame)[-1]
    return _partial_products(x, F)[-1]


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


def _value_and_gradient(g, x0, h, p):
    """(h(x_m), finish) for x_{k+1} = F_k x_k from x0, where finish() returns
    the gradient of h(x_m) in p from the same factors and products.

    p = [durations t..., log values w...] and h(x) returns (value, C) with
    C the cotangent of the value: dh = Re sum(conj(C) dx).  One kernel call
    gives the factors and their eigensystems and the forward pass keeps the
    running products x_k; finish runs a backward pass that carries C through
    F^H, so lam_k is the cotangent at x_{k+1}.  In the eigenbasis of piece
    k, with O_k = conj(V^H lam_k) (V^H x_k)^T:
      dh/dt_k = Re <lam_k, G_k x_{k+1}> = Re sum_i (-i omega_i) phases_i O_ii,
      dh/dw_k = Re sum_ij Gamma_ij M_ij O_ij, M = V^H (t_k e^{w_k} A) V,
    where the Daleckii-Krein divided differences of the exponential,
    Gamma_ij = e^{a_j} expm1(a_i - a_j) / (a_i - a_j) with a = -i t_k omega
    and Gamma_ii = e^{a_i}, are computed as e^{a_i / 2} e^{a_j / 2}
    sin(D) / D with D = (a_i - a_j) / 2i real; since Gamma_ii = phases_i,
    dh/dt_k = Im sum_i omega_i (Gamma o O)_ii.  x0 is an (n, c) array.
    """
    m = len(p) // 2
    t, w = p[:m], p[m:]
    u = np.exp(w)
    omega, V, Vh, _, F = _piece_factors(g.A, g.B, t, u, "reparametrized")
    xs = _partial_products(x0, F)
    value, C = h(xs[-1])

    def finish():
        lams = _partial_products(C, F[:0:-1].conj().swapaxes(-1, -2))[::-1]
        O = (Vh @ lams).conj() @ (Vh @ xs[:-1]).swapaxes(-1, -2)
        half = 0.5 * t[:, None] * omega  # the exponents are -2i half
        diff = half[:, :, None] - half[:, None, :]
        sinc = np.ones(diff.shape)
        np.divide(np.sin(diff), diff, out=sinc, where=diff != 0.0)
        root = np.exp(-1j * half)
        GO = root[:, :, None] * root[:, None, :] * sinc * O  # Gamma o O
        grad_t = (GO.diagonal(axis1=1, axis2=2) * omega).sum(axis=1).imag
        grad_w = (GO * (Vh @ g.A @ V)).sum(axis=(1, 2)).real * t * u
        return np.concatenate([grad_t, grad_w])

    return value, finish


def _two_loop(grad, pairs):
    """The L-BFGS product H grad from the curvature pairs (s, y, 1 / s.y),
    oldest first, with H_0 = s.y / y.y of the newest."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s.dot(q))
        alphas.append(alpha)
        q -= alpha * y
    _, y, rho = pairs[-1]
    q /= rho * float(y.dot(y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y.dot(q))) * s
    return q


def _lbfgs(g, x0, h, p, lo, hi, cap, tol):
    """Projected L-BFGS on h(F_{m-1} ... F_0 x0) inside the box [lo, hi].

    Coordinates at a bound whose gradient points out of the box are held;
    the others move along the L-BFGS direction (steepest descent after a
    history reset, scaled to move no coordinate by more than 1), and the
    step is projected onto the box and halved until the score falls by the
    Armijo fraction of the predicted drop.  Each trial point is one
    evaluation, scored by value; the gradient is taken only at the start and
    at accepted steps the search goes on from.  Stops when the score is at
    most tol, after `cap` evaluations, when the projected gradient vanishes,
    when the line search fails right after a history reset, or when _STALL
    accepted steps together lower the score by less than a relative
    _STALL_DROP.  Returns (params, score, evaluations).
    """
    f, finish = _value_and_gradient(g, x0, h, p)
    grad, used = finish(), 1
    pairs = collections.deque(maxlen=_HISTORY)  # (s, y, 1 / s.y)
    recent = collections.deque([f], maxlen=_STALL + 1)  # accepted scores
    while f > tol and used < cap:
        free = ~(((p <= lo) & (grad > 0)) | ((p >= hi) & (grad < 0)))
        projected = grad * free
        top = float(abs(projected).max())
        if not top > _GRAD_FLOOR:  # the projected gradient vanishes
            break
        if pairs:
            d = -_two_loop(projected, pairs) * free
        if not pairs or not d.dot(grad) < 0:  # restart by steepest descent
            pairs.clear()
            d = -projected / top
        step, moved = 1.0, False
        for _ in range(_HALVINGS):
            q = np.minimum(hi, np.maximum(lo, p + step * d))
            if used >= cap or not (q != p).any():
                break
            fq, finish = _value_and_gradient(g, x0, h, q)
            used += 1
            if fq <= tol or fq < f and fq - f <= _ARMIJO * grad.dot(q - p):
                moved = True
                break
            step *= 0.5
        if not moved:
            if not pairs:
                break
            pairs.clear()  # retry from p by steepest descent
            continue
        recent.append(fq)
        if (fq <= tol or used >= cap or len(recent) > _STALL
                and recent[0] - fq < _STALL_DROP * recent[0]):
            return q, fq, used  # the search ends here: no gradient needed
        gq = finish()
        s, y = q - p, gq - grad
        sy = float(s.dot(y))
        if sy > 1e-10 * float(y.dot(y)):  # keep only positive curvature
            pairs.append((s, y, 1.0 / sy))
        p, f, grad = q, fq, gq
    return p, f, used


def _search(g, x0, h, m, delta, tol, rng, max_evals):
    """Multi-start + projected L-BFGS on h(F_{m-1} ... F_0 x0) over m pieces.

    Parameter vector layout: [durations..., log(values)...].  Values are kept
    in (delta, delta * 1e3]; half the starts are biased toward the low end of
    the value band (weak detuning), where transfers are easiest, and all
    N_STARTS are scored from one kernel call.  The best few candidates are
    refined by _lbfgs with exact gradients, ties broken by lexicographically
    smallest parameters, so the outcome is a deterministic function of the
    seed.  Returns (params, score, evaluations).
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
    P = np.array(cands)
    F = _piece_factors(g.A, g.B, P[:, :m].ravel(), np.exp(P[:, m:].ravel()),
                       "reparametrized")[-1]
    scores = [h(_partial_products(x0, F[k:k + m])[-1])[0]
              for k in range(0, len(F), m)]
    used = len(cands)
    order = sorted(
        range(len(cands)), key=lambda i: (scores[i], tuple(cands[i]))
    )
    p_best, s_best = cands[order[0]], scores[order[0]]
    if s_best <= tol or used >= max_evals:
        return p_best, s_best, used

    refine = order[: min(4, len(order))]
    for rank, idx in enumerate(refine):
        cap = (max_evals - used) // (len(refine) - rank)
        if cap < 10:
            break
        p, s, ev = _lbfgs(g, x0, h, cands[idx], lo, hi, cap, tol)
        used += ev
        if s < s_best:
            p_best, s_best = p, s
        if s_best <= tol:
            break
    return p_best, s_best, used


def _steer(g, x0, h, delta, tol, budget, seed, meta):
    """Search for a control bringing h(F_{m-1} ... F_0 x0) to tol or below.

    The driver of steer_state and steer_unitary.  After the checks of delta,
    tol, budget and seed, a target that h(x0) <= tol already meets gets the
    empty control.  Otherwise the search escalates through PIECE_COUNTS, each
    piece count getting a slice of the remaining budget, so failing to
    converge with few pieces still leaves room to escalate; a budget whose
    first slice cannot exceed the N_STARTS random starts raises ValueError.
    h(x) returns (value, cotangent) on (n, c) arrays; a state x0 is searched
    as an (n, 1) column.  control.meta holds seed and target ("state" for a
    vector x0, "unitary" for a matrix), then for a searched control the
    fields meta(control, score) and "unconverged": True when the score is
    above tol.  Returns (control, fields, converged, evaluations).
    """
    delta = _check_real(delta, "delta", 0.0, DELTA_CEILING)
    tol = _check_real(tol, "tol", 0.0, closed=True)
    budget = _check_int(budget, "budget", 0)
    seed = _check_int(seed, "seed", 0)
    info = {"seed": seed, "target": "state" if x0.ndim == 1 else "unitary"}
    x0 = x0.reshape(len(x0), -1)  # a state is searched as an (n, 1) column
    best_s = h(x0)[0]
    if best_s <= tol:
        c = PiecewiseConstantControl("reparametrized", [], delta, meta=info)
        return c, meta(c, best_s), True, 0
    if budget // len(PIECE_COUNTS) <= N_STARTS:
        raise ValueError(
            f"budget {budget} leaves no room to search: need at least "
            f"{(N_STARTS + 1) * len(PIECE_COUNTS)} evaluations for "
            f"{len(PIECE_COUNTS)} piece counts of {N_STARTS} starts each"
        )
    rng = np.random.default_rng(seed)
    used, best_s = 0, np.inf
    for k, m in enumerate(PIECE_COUNTS):
        slice_ = (budget - used) // (len(PIECE_COUNTS) - k)
        p, s, ev = _search(g, x0, h, m, delta, tol, rng, slice_)
        used += ev
        if s < best_s:
            best_p, best_s, best_m = p, s, m
        if best_s <= tol:
            break
    c = PiecewiseConstantControl("reparametrized", zip(
        best_p[:best_m], np.exp(best_p[best_m:])), delta)
    fields = meta(c, best_s)
    converged = bool(best_s <= tol)
    c.meta.update(info, **fields)
    if not converged:
        c.meta["unconverged"] = True
    return c, fields, converged, used


def steer_state(g, x0, x1, delta, tol=1e-3, budget=40000, seed=0):
    """Search for a control steering x0 to x1 up to phase within tol.

    Operates in the reparametrized frame (piece values in (delta,
    delta * 1e3]), escalating through the piece counts PIECE_COUNTS; at
    each, N_STARTS random starts are scored and the best are refined by
    projected L-BFGS on the exact gradient.  The objective is the
    projective infidelity 1 - |<x1, x(T)>|^2.  `evaluations` counts start
    scores and refinement trial points, each scored by value; the gradient
    is taken only at points a refinement steps from.  Deterministic for a
    fixed seed.
    When the budget runs out first, the best control found is returned
    tagged unconverged.
    """
    x0 = as_state(x0)
    x1 = as_state(x1)
    if x0.shape != (g.order,) or x1.shape != (g.order,):
        raise ValueError(f"states must have shape ({g.order},)")
    c, fields, converged, used = _steer(
        g, x0, _infidelity(x1), delta, tol, budget, seed,
        lambda c, s: {"infidelity": float(s)})
    return StateSteeringResult(c, fields["infidelity"], converged, used)


def _infidelity(x1):
    """h(x) = (1 - |<x1, x>|^2, its cotangent -2 <x1, x> x1) on (n, 1)
    columns x."""
    col = x1.reshape(-1, 1)

    def h(x):
        z = np.vdot(col, x)
        return 1.0 - abs(z) ** 2, -2.0 * z * col

    return h


def _phase_fit(g0, g1):
    """h(U) = (||e^{i theta} U g0 - g1||_F at the theta of _phase_distance,
    its cotangent -e^{-i theta} g1 g0^H / distance), zero at distance 0.

    The cotangent holds theta fixed, which the minimum over theta allows."""
    g1g0 = g1 @ g0.conj().T

    def h(U):
        dist, theta = _phase_distance(U @ g0, g1)
        if dist == 0.0:
            return dist, np.zeros_like(g1g0)
        return dist, (-np.exp(-1j * theta) / dist) * g1g0

    return h


def _phase_distance(U, G):
    """(distance, theta) minimizing ||e^{i theta} U - G||_F over the circle.

    ||e^{i theta} U - G||_F^2 = 2n - 2|z| cos(phi - theta) with z = tr(U^H G)
    and phi = arg z, so theta = phi mod 2 pi, in [0, 2 pi).
    """
    z = complex(np.vdot(U, G))  # tr(U^H G)
    theta = cmath.phase(z) % (2.0 * math.pi) if z != 0 else 0.0
    if theta == 2.0 * math.pi:  # float mod maps a hair-below-zero angle here
        theta = 0.0
    return math.sqrt(max(0.0, 2.0 * U.shape[0] - 2.0 * abs(z))), theta


def steer_unitary(g, g0, g1, delta, tol=1e-3, budget=60000, seed=0):
    """Steer the propagator from g0 to g1 up to a global phase.

    One search, escalating through the piece counts PIECE_COUNTS as in
    steer_state, minimizes ||e^{i theta} g_final - g1||_F over the control
    and over theta in [0, 2 pi), with theta in closed form from the phase of
    tr(g_final^H g1); the gradient in the control holds that theta fixed.
    When tr A = tr B = 0, g_final lies in SU(n) and the n phases that could
    meet g1 are 2 pi / n apart; the search takes whichever it reaches.  The
    reported theta and distance come from one evaluation, so the distance is
    ||e^{i theta} g_final - g1||_F at the reported theta.
    """
    g0 = assert_unitary(g0, atol=1e-9)
    g1 = assert_unitary(g1, atol=1e-9)
    n = g.order
    if g0.shape != (n, n) or g1.shape != (n, n):
        raise ValueError(f"g0, g1 must have shape {(n, n)}")
    eye = np.eye(n, dtype=complex)

    def fit(c, score):  # distance and theta at the final propagator of c
        dist, theta = _phase_distance(final_state(g, c, eye) @ g0, g1)
        return {"distance": float(dist), "theta": float(theta)}

    c, fields, converged, used = _steer(
        g, eye, _phase_fit(g0, g1), delta, tol, budget, seed, fit)
    return UnitarySteeringResult(c, fields["theta"], fields["distance"],
                                 converged, used)


# ---------------------------------------------------------------------------
# oscillation lift and decoupling diagnostics
# ---------------------------------------------------------------------------


def _circ_dist(a, b):
    d = np.mod(a - b + math.pi, 2.0 * math.pi) - math.pi
    return np.abs(d)


def _reachable(f, t, lo, step, slack, start, stop):
    """The k in [start, stop), in order, at which _circ_dist(f * (lo + step
    k), t) <= slack (a pivot's slack_j) can hold: a closed-form superset.

    The phase is affine in k, so those k form one run per 2 pi winding.
    Each run is widened by one grid step plus a bound (64 eps of the
    magnitudes involved) on the rounding of the scan's test and of the
    run ends.  All of [start, stop) comes back when the runs would cover
    it anyway (slack near pi or a coarse phase step) or the phase step
    f step is zero, subnormal or not finite.
    """
    f, t, lo, step, slack = map(float, (f, t, lo, step, slack))  # quiet inf
    two_pi = 2.0 * math.pi
    b = f * step
    B = abs(b)
    L = stop - start
    S = slack + 64.0 * math.ulp(1.0) * (
        abs(f) * (abs(lo) + abs(step) * stop) + abs(t) + 2.0 * two_pi)
    if not (B >= sys.float_info.min and 2.0 * (S + B) < two_pi):
        return np.arange(start, stop)
    x = f * (lo + step * start) - t  # the phase offset at k = start
    r = math.copysign(1.0, b) * (x - two_pi * round(x / two_pi))
    # run m holds the j = k - start with |r + B j - 2 pi m| <= S, widened
    centre = two_pi * np.arange(math.floor((r - S - B) / two_pi),
                                math.floor((r + S + B * L) / two_pi) + 2) - r
    first = np.ceil(np.clip(centre - S - B, 0.0, B * L) / B).astype(np.int64)
    end = np.minimum(np.floor(np.clip(centre + S + B, -B, B * L) / B)
                     .astype(np.int64) + 1, L)
    first[1:] = np.maximum(first[1:], end[:-1])  # rounding cannot overlap runs
    size = np.maximum(end - first, 0)
    return start + np.arange(size.sum()) + np.repeat(first - np.cumsum(size)
                                                     + size, size)


def _torus_return(freqs, targets, lo, tol, step):
    """(s, residual): the first s >= lo found whose residual
    max_j arc(freqs_j s, targets_j) is <= tol.

    Coarse pass over lo + k step (k < MAX_SCAN_POINTS), then 129 fine
    points around each surviving candidate; a fine minimum within one
    fine-cell slack of tol is zoomed onto before it is accepted or dropped.
    Fine and zoom points lie within step/2 + z of their candidate, z = cell
    (1 + 2/128 + (2/128)^2), so a candidate is tested on frequency j against
    slack_j = min(tol + step/2 max|f|, tol + |f_j| (step/2 + z) + a rounding
    bound): past the second term no point near it can pass, and the first keeps
    the survivors a subset of a common-slack scan's.  The coarse pass builds
    the grid only at the k the pivot (the nonzero frequency of least |f|)
    can pass at (_reachable), then filters one frequency at a time, each
    on the survivors of the ones before.  The fine pass takes blocks of 1,
    2, 4, ... survivors (the first is usually accepted) and accepts strictly
    in order, so (s, residual) and the error text are bit for bit those of
    testing the max over all frequencies against the common slack at every
    point.  Raises PhaseSearchError once all MAX_SCAN_POINTS coarse points
    are scanned; their count is first cut to keep |lo + k step| below
    max double / (4 max(1, max|f|)), so no grid point or phase overflows
    (to 0, reported as the interval [lo, lo], when lo or step is not
    finite).
    """
    absf = np.abs(freqs)
    lipschitz = float(np.max(absf))
    # the residual is constant at lipschitz 0: one point settles it
    points = MAX_SCAN_POINTS if lipschitz else 1
    reach = sys.float_info.max / (4.0 * max(1.0, lipschitz)) - abs(lo)
    if not float(step) * points <= reach:
        points = (int(reach // step) + 1 if reach >= 0.0 and math.isfinite(step)
                  else 0)
    # a zero pivot (all frequencies zero) scans every point
    pivot = int(np.argmin(np.where(freqs != 0.0, absf, np.inf)))

    def resid(s):  # (freqs, ...) layout: the max runs over the first axis
        d = _circ_dist(np.multiply.outer(freqs, s),
                       targets.reshape((-1,) + (1,) * np.ndim(s)))
        return np.max(d, axis=0)

    unit = np.linspace(-1.0, 1.0, _FINE)
    cell = step / (_FINE - 1)  # fine-point spacing around a candidate
    z = cell * (1.0 + 2.0 / (_FINE - 1) + (2.0 / (_FINE - 1)) ** 2)
    with np.errstate(invalid="ignore"):  # 0 inf only where no point is scanned
        slack = np.minimum(tol + 0.5 * step * lipschitz, tol + absf * (
            0.5 * step + z) + 64.0 * math.ulp(1.0) * (absf * (
                abs(lo) + step * points) + np.abs(targets) + 4.0 * math.pi))
    rows = max(1, _FINE_BLOCK // (_FINE * len(freqs)))
    for start in range(0, points, _SCAN_CHUNK):
        grid = lo + step * _reachable(freqs[pivot], targets[pivot], lo, step,
                                      slack[pivot], start,
                                      min(start + _SCAN_CHUNK, points))
        for f, t, bound in zip(freqs, targets, slack):
            grid = grid[_circ_dist(f * grid, t) <= bound]
        i, size = 0, 1
        while i < len(grid):  # blocks of 1, 2, 4, ... up to rows candidates
            fines = np.clip(grid[i:i + size, None] + 0.5 * step * unit, lo,
                            None)
            i, size = i + size, min(2 * size, rows)
            frs = resid(fines)
            # not <=: a NaN minimum goes on to the zoom, which drops it
            near = ~(frs.min(axis=1) > tol + 0.5 * cell * lipschitz)
            for fine, fr in zip(fines[near], frs[near]):
                span = cell
                for _ in range(3):  # each zoom narrows the cell 64-fold
                    fine = np.clip(fine[np.argmin(fr)] + span * unit, lo, None)
                    fr = resid(fine)
                    span *= 2.0 / (_FINE - 1)
                b = int(np.argmin(fr))
                if fr[b] <= tol:
                    return float(fine[b]), float(fr[b])
    raise PhaseSearchError(
        f"no s with phase residual <= {tol:.6g} in [{lo:.6g}, "
        f"{lo + points * step if points else lo:.6g}] "
        f"({points} grid points of step {step:.6g}) "
        f"for phase targets {np.round(targets, 6).tolist()}"
    )


def lift_control(target, sys, n, N, phase_tol=0.05):
    """Lift an order-n control so its conjugated coupling decouples at order N.

    The target's integrated value v(t) is approximated by plateaus (one per
    subinterval of each piece, SUBDIVISIONS per piece).  For each plateau w
    an increasing time s is found whose phases (lambda_1 - lambda_j) s match
    those of w within phase_tol for j <= n, alternating between plateaus
    that also match on the upper block (w-type) and plateaus offset by pi
    there (z-type), which makes the upper off-diagonal block of the
    conjugated coupling average out.  The output control is the
    piecewise-constant derivative of the resulting sawtooth: a fast ramp to
    each plateau time followed by a hold of slope delta_bar = 2 delta.

    Each plateau time is searched on a grid of step pi / (4 max|lambda_1 -
    lambda_j|) over at most MAX_SCAN_POINTS points; PhaseSearchError names the
    scanned interval when the bound is hit.  The scan tests each frequency
    against its own slack, where the slowest can pass (closed form), and
    finds the plateaus one common slack would, bit for bit.  A gap relation
    that makes the z-type targets unreachable raises PhaseSearchError naming
    it before any scan.
    """
    if target.frame != "reparametrized":
        raise ValueError("lift_control expects a reparametrized-frame target")
    N = _check_int(N, "N", 1, sys.levels)
    n = _check_int(n, "n", 1, N)
    phase_tol = _check_real(phase_tol, "phase_tol", 0.0)
    if N == n:
        return target
    if target.npieces == 0:
        raise ValueError("target control has no pieces")

    lam = sys.lam[:N]
    freqs = lam[0] - lam[1:]  # (lambda_1 - lambda_j) for j = 2..N
    # z-type offset on the upper block
    flip = np.concatenate([np.zeros(n - 1), math.pi * np.ones(N - n)])
    max_freq = float(np.max(np.abs(freqs))) if np.any(freqs) else 1.0
    step = math.pi / (4.0 * max_freq)
    delta_bar = 2.0 * target.delta
    k = SUBDIVISIONS

    verdict = nonresonance(sys.gaps(N), Q=10, tol=1e-9)
    if verdict.found:
        warnings.warn(f"gap relation {verdict.relation} found at order {N}; "
                      "phase targets may be unreachable", stacklevel=2)
        # p . freqs = q . gaps ~ 0, so p . freqs (s - w) stays within
        # |p . freqs| |s - w| of 0, while a z-type target needs it at
        # p . flip mod 2 pi up to ||p||_1 phase_tol; reach bounds |s - w|
        q = np.array(verdict.relation)
        p = np.append(q[1:], 0) - q
        reach = (k * target.npieces * MAX_SCAN_POINTS * step
                 + delta_bar * target.total_duration + target.integrated_value)
        gap = abs(math.remainder(float(p @ flip), 2.0 * math.pi))
        if gap > np.abs(p).sum() * phase_tol + abs(float(p @ freqs)) * reach:
            raise PhaseSearchError(
                f"gap relation {verdict.relation} makes the z-type phase "
                f"targets unreachable: offset {gap:.6g} rad off the relation"
            )

    pieces, plateaus = [], []
    v_cur = v_target = 0.0
    for T_p, u_p in zip(target.durations, target.values):
        dt = T_p / k
        ramp = dt / k
        hold = dt - ramp
        for i in range(k):
            w = v_target + u_p * dt * (i + 0.5)  # plateau = v at midpoint
            z = len(plateaus) % 2  # w-type and z-type plateaus alternate
            targets = np.mod(freqs * w + z * flip, 2.0 * math.pi)
            lo = v_cur + delta_bar * ramp
            s, resid = _torus_return(freqs, targets, lo, phase_tol, step)
            pieces += [(ramp, (s - v_cur) / ramp), (hold, delta_bar)]
            plateaus.append(
                {"time": s, "type": "wz"[z], "target": w, "residual": resid}
            )
            v_cur = s + delta_bar * hold
        v_target += u_p * T_p

    meta = {
        **target.meta,
        "lifted": {"order": n, "verify_order": N, "phase_tol": phase_tol,
                   "delta_bar": delta_bar, "subdivisions": k},
        "plateaus": plateaus,
    }
    return PiecewiseConstantControl("reparametrized", pieces, target.delta,
                                    meta=meta)


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
    N = _check_int(N, "N", 1, sys.levels)
    n = _check_int(n, "n", 1, N)
    grid = _check_int(grid, "grid", 1)
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
