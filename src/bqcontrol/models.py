"""Discrete-spectrum systems and their finite Galerkin truncations.

A system is a stored spectral fragment: the lowest `levels` eigenvalues of the
free Hamiltonian plus the real symmetric coupling matrix W[j][k] of the control
potential in that eigenbasis.  Truncation to order n produces the generator
pair (A, B) = (diag(i lambda_1..n), -i W[:n, :n]) used everywhere downstream.

Two concrete models ship with closed-form or quadrature couplings:

* a 1D anharmonic-free oscillator with Gaussian control potential
  W(x) = exp(a x^2 + b x + c), a < 0, couplings by Gauss-Hermite quadrature;
* a 3D rectangular box with exponential control potential exp(alpha . x),
  couplings in closed form (validated against adaptive quadrature in tests).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .linalg import _check_array, _check_int, _check_meta, _check_real

__all__ = [
    "DiscreteSpectrumSystem",
    "GalerkinPair",
    "QuadratureError",
    "custom_system",
    "truncate",
    "oscillator_system",
    "box3d_system",
    "box3d_lambda_prime",
    "system_to_json",
    "system_from_json",
    "system_from_config",
    "load_system",
    "dump_system",
]

SYMMETRY_ATOL = 1e-8
QUAD_ATOL = 1e-10
# numpy's Gauss-Hermite rule has non-finite weights from 372 nodes on
QUAD_MAX_NODES = 256
DEGENERACY_RTOL = 1e-9
BOX_MAX_MODE = 64  # bound on each mode number k_d searched by _box_triples


class QuadratureError(RuntimeError):
    """Quadrature failed to stabilize under node doubling."""


@dataclass(frozen=True, eq=False)
class DiscreteSpectrumSystem:
    """Stored spectral data: eigenvalues (sorted), symmetric coupling, labels."""

    lam: np.ndarray
    W: np.ndarray
    labels: tuple | None = None
    meta: dict = field(default_factory=dict)

    @property
    def levels(self):
        return int(self.lam.shape[0])

    def gaps(self, n=None):
        """Consecutive eigenvalue gaps lambda[k+1] - lambda[k] for k < n-1."""
        n = self.levels if n is None else _check_int(n, "n", 1, self.levels)
        return np.diff(self.lam[:n])


@dataclass(frozen=True, eq=False)
class GalerkinPair:
    """Truncated generator pair: A = diag(i lambda), B = -i W, both skew-Hermitian."""

    order: int
    A: np.ndarray
    B: np.ndarray

    @property
    def lam(self):
        return np.diag(self.A).imag.copy()


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def custom_system(lam, W, labels=None, meta=None):
    """Validate raw (lambda, W) data and build a DiscreteSpectrumSystem.

    W is symmetrized as (W + W^T)/2 after checking that the asymmetry does not
    exceed SYMMETRY_ATOL in max-abs norm.  Eigenvalues are sorted
    non-decreasing and the same permutation is applied to W's rows and columns
    (and to labels).
    """
    lam = _check_array(lam, "lambda").ravel()
    L = lam.shape[0]
    if L < 2:
        raise ValueError(f"need at least 2 levels, got {L}")
    W = _check_array(W, "W")
    if W.shape != (L, L):
        raise ValueError(f"W must have shape {(L, L)}, got {W.shape}")
    # past half the largest double these overflow: an inf defect is
    # refused, and an equal pair is kept as it is
    with np.errstate(over="ignore"):
        defect = float(np.max(np.abs(W - W.T)))
        if defect > SYMMETRY_ATOL:
            raise ValueError(f"W asymmetry {defect:.3e} exceeds {SYMMETRY_ATOL:g}")
        W = np.where(W == W.T, W, (W + W.T) / 2.0)

    if labels is not None:
        labels = list(labels)
        if len(labels) != L:
            raise ValueError(f"labels must have length {L}, got {len(labels)}")

    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    W = W[np.ix_(order, order)]
    if labels is not None:
        labels = tuple(labels[i] for i in order)

    return DiscreteSpectrumSystem(
        lam=_freeze(lam), W=_freeze(W), labels=labels, meta=_check_meta(meta)
    )


def truncate(sys, n):
    """Galerkin pair at order n from the lowest n stored levels."""
    n = _check_int(n, "truncation order", 2, sys.levels)
    A = np.diag(1j * sys.lam[:n])
    B = -1j * sys.W[:n, :n].astype(complex)
    A.flags.writeable = False
    B.flags.writeable = False
    return GalerkinPair(order=n, A=A, B=B)


# ---------------------------------------------------------------------------
# oscillator model
# ---------------------------------------------------------------------------


def _hermite_rows(x, levels):
    """Orthonormal Hermite polynomials h_k(x), k < levels, row per k."""
    H = np.empty((levels, x.shape[0]))
    H[0] = math.pi ** (-0.25)
    if levels > 1:
        H[1] = math.sqrt(2.0) * x * H[0]
    for k in range(1, levels - 1):
        H[k + 1] = x * math.sqrt(2.0 / (k + 1)) * H[k] - math.sqrt(
            k / (k + 1.0)
        ) * H[k - 1]
    return H


def _osc_coupling(a, b, c, levels, nodes):
    """Gauss-Hermite couplings at `nodes` nodes; ValueError naming a, b and c
    when exp(a x^2 + b x + c) overflows the weights or the couplings."""
    x, wts = hermgauss(nodes)
    H = _hermite_rows(x, levels)
    # phi_j phi_k = h_j h_k exp(-x^2); the Gaussian weight is absorbed by the rule.
    with np.errstate(over="ignore", invalid="ignore"):
        g = wts * np.exp(a * x**2 + b * x + c)
        W = (H * g) @ H.T
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(W))):
        raise ValueError(f"the potential exp(a x^2 + b x + c) overflows the "
                         f"couplings at a={a!r}, b={b!r}, c={c!r}")
    return W


def oscillator_system(a, b, c_mode="normalized", levels=8):
    """Oscillator with spectrum 2k+1 and Gaussian coupling exp(a x^2 + b x + c).

    Parameters
    ----------
    a, b : floats, a < 0 (integrability of the control potential).
    c_mode : "normalized" picks c = b^2 / (4(a-1)); any float is used as c.
    levels : number of stored levels (k = 0..levels-1).

    Couplings are Gauss-Hermite integrals of exp(a x^2 + b x + c) against
    products of Hermite functions; the node count is doubled from 64 until no
    entry moves by more than QUAD_ATOL.  QuadratureError is raised when that
    has not happened by QUAD_MAX_NODES nodes, and before any table is built
    for more levels than that (an N-node rule resolves at most N levels).
    """
    a = _check_real(a, "a", hi=0.0)
    b = _check_real(b, "b")
    levels = _check_int(levels, "levels", 2)
    if levels > QUAD_MAX_NODES:
        raise QuadratureError(f"levels={levels} exceeds the {QUAD_MAX_NODES}"
                              f"-node quadrature cap, which resolves at most "
                              f"{QUAD_MAX_NODES} levels")
    c = b * b / (4.0 * (a - 1.0)) if c_mode == "normalized" else c_mode
    c = _check_real(c, "c")

    W = None
    for nodes in (64, 128, QUAD_MAX_NODES):
        prev, W = W, _osc_coupling(a, b, c, levels, nodes)
        if prev is not None and float(np.max(np.abs(W - prev))) <= QUAD_ATOL:
            break
    else:
        raise QuadratureError(f"couplings not stable at {nodes} nodes "
                              f"(doubling still moves entries)")

    lam = 2.0 * np.arange(levels) + 1.0
    meta = {
        "model": "oscillator",
        "a": a,
        "b": b,
        "c": c,
        "c_mode": "normalized" if c_mode == "normalized" else "explicit",
        "quad_nodes": nodes,
    }
    return custom_system(lam, W, labels=None, meta=meta)


# ---------------------------------------------------------------------------
# 3D box model
# ---------------------------------------------------------------------------


def _box1d_coupling(k, h, alpha, length):
    """(2/l) integral_0^l exp(alpha x) sin(k pi x / l) sin(h pi x / l) dx.

    Closed form in al = alpha l: expm1 keeps e^al - 1 accurate for small
    |al|, the diagonal cancels its al^2, and al = 0 (alpha = 0 or an
    underflow) takes the limit alpha -> 0.  Raises ValueError naming alpha
    when exp(alpha l) or (alpha l)^2 makes it overflow.
    """
    al = alpha * length
    if al == 0.0:
        return 1.0 if k == h else 0.0
    try:
        plus = al**2 + (k + h) ** 2 * math.pi**2
        if k == h:
            out = 4.0 * k * k * math.pi**2 * (math.expm1(al) / al) / plus
        else:
            rise = math.expm1(al) if (k + h) % 2 == 0 else -math.exp(al) - 1.0
            out = (4.0 * k * h * math.pi**2 * al * rise
                   / ((al**2 + (k - h) ** 2 * math.pi**2) * plus))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"alpha={alpha!r} overflows the coupling at "
                         f"l={length!r}")
    return out


def _box_triples(l, levels):
    """Lowest `levels` triples (k1,k2,k3) by eigenvalue, ties lexicographic,
    among those with every k_d <= K for K = 2, 4, 8, ..., BOX_MAX_MODE.
    Raises ValueError past that bound and when a 1/l_d^2 is not positive and
    finite.
    """
    l = np.array(l)
    with np.errstate(over="ignore", divide="ignore"):
        inv = 1.0 / l**2
    if not np.all(np.isfinite(inv) & (inv > 0.0)):
        raise ValueError(f"edge lengths {l.tolist()} give a 1/l^2 that is "
                         "not a positive finite double")
    K = 1
    while K < BOX_MAX_MODE:
        K *= 2
        a, b, c = (k.ravel() for k in np.meshgrid(
            *[np.arange(1, K + 1)] * 3, indexing="ij"))
        vals = math.pi**2 * (a**2 / l[0] ** 2 + b**2 / l[1] ** 2
                             + c**2 / l[2] ** 2)
        keep = np.lexsort((c, b, a, vals))[:levels]
        # any excluded triple has some k_d >= K+1, so its eigenvalue exceeds
        # min_d pi^2 ((K+1)^2/l_d^2 + sum_{e != d} 1/l_e^2)
        excluded_min = math.pi**2 * min(
            (K + 1) ** 2 * inv[d] + inv.sum() - inv[d] for d in range(3)
        )
        if keep.size == levels and vals[keep[-1]] < excluded_min:
            return list(zip(vals[keep].tolist(),
                            zip(*(k[keep].tolist() for k in (a, b, c)))))
    raise ValueError(f"the lowest {levels} levels of the box {l.tolist()} "
                     f"need mode numbers above BOX_MAX_MODE={BOX_MAX_MODE}")


def box3d_system(l, alpha, levels=8, simple_spectrum=False):
    """3D rectangular box with coupling exp(alpha . x), closed-form entries.

    Parameters
    ----------
    l : three positive edge lengths.
    alpha : three real exponents (alpha_i = 0 degenerates that factor to
        orthonormality, zeroing off-diagonal couplings along that axis).
    levels : number of lowest modes kept; ties are broken lexicographically
        on (k1, k2, k3).
    simple_spectrum : when True, raise if two kept eigenvalues collide within
        1e-9 relative, naming the triples.
    """
    l = tuple(_check_real(v, "edge length", 0.0) for v in l)
    alpha = tuple(_check_real(v, "alpha") for v in alpha)
    levels = _check_int(levels, "levels", 2)
    if len(l) != 3 or len(alpha) != 3:
        raise ValueError("l and alpha must have length 3")

    kept = _box_triples(l, levels)
    lam = np.array([v for v, _ in kept])
    triples = [t for _, t in kept]

    if simple_spectrum:
        for i in range(levels - 1):
            scale = max(abs(lam[i]), abs(lam[i + 1]))
            if abs(lam[i + 1] - lam[i]) <= DEGENERACY_RTOL * scale:
                raise ValueError(
                    "degenerate eigenvalues among kept levels: "
                    f"{triples[i]} and {triples[i + 1]} "
                    f"(lambda ~ {lam[i]:.12g})"
                )

    W = 1.0  # W[i, j] = 1.0 * T_0[i, j] * T_1[i, j] * T_2[i, j], in that order
    for d in range(3):
        ks, at = np.unique([t[d] for t in triples], return_inverse=True)
        T = np.array([[_box1d_coupling(k, h, alpha[d], l[d])
                       for h in ks.tolist()] for k in ks.tolist()])
        W = W * T[np.ix_(at, at)]

    meta = {"model": "box3d", "l": list(l), "alpha": list(alpha)}
    return custom_system(lam, W, labels=triples, meta=meta)


def box3d_lambda_prime(l, alpha, triple):
    """Derivative of eigenvalue (k1,k2,k3) with respect to the coupling strength.

    Equals the diagonal coupling entry of the box system at the same
    parameters: the product over axes of the 1D diagonal integrals.  An
    alpha_i of 0 gives that factor's limit alpha -> 0, which is 1.
    """
    l = tuple(_check_real(v, "edge length", 0.0) for v in l)
    alpha = tuple(_check_real(v, "alpha") for v in alpha)
    triple = tuple(_check_int(k, "mode number", 1) for k in triple)
    if len(l) != 3 or len(alpha) != 3 or len(triple) != 3:
        raise ValueError("l, alpha and triple must have length 3")
    out = 1.0
    for d in range(3):
        out *= _box1d_coupling(triple[d], triple[d], alpha[d], l[d])
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def system_to_json(sys):
    doc = {
        "levels": sys.levels,
        "lambda": [float(v) for v in sys.lam],
        "W": [[float(v) for v in row] for row in sys.W],
    }
    if sys.labels is not None:
        doc["labels"] = [list(t) if isinstance(t, (tuple, list)) else t
                         for t in sys.labels]
    doc["meta"] = dict(sys.meta)
    return doc


def _require(doc, what, keys=()):
    """ValueError unless doc is a JSON object that holds every key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{what} missing required key '{key}'")


def system_from_json(doc):
    _require(doc, "system document", ("levels", "lambda", "W"))
    lam = doc["lambda"]
    if _check_int(doc["levels"], "levels", 0) != len(lam):
        raise ValueError(
            f"levels field ({doc['levels']}) does not match lambda length "
            f"({len(lam)})"
        )
    labels = doc.get("labels")
    if labels is not None:
        labels = [tuple(t) if isinstance(t, list) else t for t in labels]
    return custom_system(lam, doc["W"], labels=labels, meta=doc.get("meta"))


# the keys each kind of system spec reads (None: inline data)
_SYSTEM_KEYS = {
    "oscillator": ("model", "a", "b", "c", "levels"),
    "box3d": ("model", "l", "alpha", "levels", "simple_spectrum"),
    None: ("lambda", "W", "levels", "labels", "meta"),
}


def system_from_config(obj):
    """Build a system from CLI config: inline data or a model spec.

    A key the spec's model does not read is refused, named, so a misspelled
    key cannot fall back to its default unseen.
    """
    _require(obj, "system config")
    model = obj.get("model")
    if "model" in obj and model not in ("oscillator", "box3d"):
        raise ValueError(f"unknown model '{model}' (expected oscillator or box3d)")
    keys = _SYSTEM_KEYS[model]
    unknown = [f"system.{k}" for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"unknown key {', '.join(unknown)} ("
                         f"{model or 'inline'} systems read {', '.join(keys)})")
    if model == "oscillator":
        return oscillator_system(
            a=obj["a"],
            b=obj["b"],
            c_mode=obj.get("c", "normalized"),
            levels=obj.get("levels", 8),
        )
    if model == "box3d":
        if not isinstance(obj.get("simple_spectrum", False), bool):
            raise ValueError("simple_spectrum must be true or false, got "
                             f"{obj['simple_spectrum']!r}")
        return box3d_system(
            l=obj["l"],
            alpha=obj["alpha"],
            levels=obj.get("levels", 8),
            simple_spectrum=obj.get("simple_spectrum", False),
        )
    if "levels" not in obj and isinstance(obj.get("lambda"), list):
        obj = {**obj, "levels": len(obj["lambda"])}  # optional in inline configs
    return system_from_json(obj)


def dump_system(sys, path):
    """Write system JSON atomically (temp file + rename)."""
    _write_json(path, system_to_json(sys))


def _write_text(path, text):
    """Write text to path atomically: a temp file beside it, then a rename.

    The temp file is created with mode 0o666 so the process umask applies,
    as it would for a plain open().
    """
    path = os.path.abspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(rows, sep=","):
    """Each row of a table (a 2-D array or a list of rows) as text: its
    numbers printed %.17g, which round-trips a double, joined by sep."""
    if len(rows) == 0:
        return []
    row = sep.join(["%.17g"] * len(rows[0]))
    return [row % tuple(r) for r in np.asarray(rows, dtype=float).tolist()]


def _plain(x):
    """x as plain JSON data: a dataclass becomes the dict of its fields in
    field order, a tuple a list, a numpy scalar the Python scalar; any other
    type but text, numbers and None raises TypeError, as json.dumps does."""
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    if x is None or isinstance(x, (str, int, float)):
        return x
    raise TypeError(f"Object of type {type(x).__name__} is not JSON "
                    "serializable")


class Record:
    """Base of the report dataclasses: to_json() is _plain(self)."""

    to_json = _plain


def _write_json(path, doc):
    """Atomic JSON artifact; NaN and infinities raise ValueError, as JSON has
    none.  json.dumps calls _plain only on what it cannot write itself."""
    _write_text(path, json.dumps(doc, default=_plain, indent=2,
                                 allow_nan=False) + "\n")


def _read_json(path):
    """The JSON document at path; NaN, Infinity and float literals that
    overflow a double (1e400) raise ValueError, as JSON has none."""
    def finite(text):
        v = float(text)
        if not math.isfinite(v):
            raise ValueError(f"number {text} is not a finite double")
        return v
    with open(path) as fh:
        return json.load(fh, parse_float=finite, parse_constant=finite)


def load_system(path):
    return system_from_json(_read_json(path))
