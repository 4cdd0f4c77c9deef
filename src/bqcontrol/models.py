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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "DiscreteSpectrumSystem",
    "GalerkinPair",
    "TailCutoff",
    "QuadratureError",
    "custom_system",
    "truncate",
    "tail_cutoff",
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
        n = self.levels if n is None else int(n)
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


class TailCutoff(NamedTuple):
    """Result of tail_cutoff: (order, at_data_boundary)."""

    order: int
    at_data_boundary: bool


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def custom_system(lam, W, labels=None, meta=None, atol=SYMMETRY_ATOL):
    """Validate raw (lambda, W) data and build a DiscreteSpectrumSystem.

    W is symmetrized as (W + W^T)/2 after checking that the asymmetry does not
    exceed `atol` in max-abs norm.  Eigenvalues are sorted non-decreasing and
    the same permutation is applied to W's rows and columns (and to labels).
    """
    lam = np.asarray(lam, dtype=float).ravel()
    L = lam.shape[0]
    if L < 2:
        raise ValueError(f"need at least 2 levels, got {L}")
    W = np.asarray(W, dtype=float)
    if W.shape != (L, L):
        raise ValueError(f"W must have shape {(L, L)}, got {W.shape}")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(W))):
        raise ValueError("lambda and W must be finite")
    defect = float(np.max(np.abs(W - W.T))) if L else 0.0
    if defect > atol:
        raise ValueError(
            f"W is not symmetric within {atol:g} (asymmetry {defect:.3e})"
        )
    W = (W + W.T) / 2.0

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
        lam=_freeze(lam), W=_freeze(W), labels=labels, meta=dict(meta or {})
    )


def truncate(sys, n):
    """Galerkin pair at order n from the lowest n stored levels."""
    n = int(n)
    if not 2 <= n <= sys.levels:
        raise ValueError(f"truncation order must be in [2, {sys.levels}], got {n}")
    A = np.diag(1j * sys.lam[:n])
    B = -1j * sys.W[:n, :n].astype(complex)
    A.flags.writeable = False
    B.flags.writeable = False
    return GalerkinPair(order=n, A=A, B=B)


def tail_cutoff(sys, n, mu):
    """Smallest N in [n, levels] whose residual coupling tail is below mu.

    The tail criterion is sum over columns beyond N of W[j][k]^2 < mu for every
    row j < n, evaluated on the stored data only.  When the criterion first
    holds at N = levels it holds vacuously (the tail beyond the stored data is
    unknown), which the at_data_boundary flag records.
    """
    n = int(n)
    if not 2 <= n <= sys.levels:
        raise ValueError(f"base order must be in [2, {sys.levels}], got {n}")
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    rows = sys.W[:n, :]
    # suffix[j, N] = sum_{k >= N} W[j, k]^2
    sq = rows**2
    suffix = np.concatenate(
        [np.cumsum(sq[:, ::-1], axis=1)[:, ::-1], np.zeros((n, 1))], axis=1
    )
    for N in range(n, sys.levels + 1):
        if float(np.max(suffix[:, N])) < mu:
            return TailCutoff(N, N == sys.levels)
    return TailCutoff(sys.levels, True)


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
    x, wts = hermgauss(nodes)
    # phi_j phi_k = h_j h_k exp(-x^2); the Gaussian weight is absorbed by the rule.
    g = wts * np.exp(a * x**2 + b * x + c)
    H = _hermite_rows(x, levels)
    return (H * g) @ H.T


def oscillator_system(a, b, c_mode="normalized", levels=8, quad_atol=QUAD_ATOL):
    """Oscillator with spectrum 2k+1 and Gaussian coupling exp(a x^2 + b x + c).

    Parameters
    ----------
    a, b : floats, a < 0 (integrability of the control potential).
    c_mode : "normalized" picks c = b^2 / (4(a-1)); any float is used as c.
    levels : number of stored levels (k = 0..levels-1).
    quad_atol : node-doubling stability threshold on every coupling entry.

    Couplings are Gauss-Hermite integrals of exp(a x^2 + b x + c) against
    products of Hermite functions; the node count is doubled from 64 until no
    entry moves by more than quad_atol, and QuadratureError is raised when
    that has not happened by QUAD_MAX_NODES nodes.
    """
    a = float(a)
    b = float(b)
    levels = int(levels)
    if a >= 0.0:
        raise ValueError(f"a must be negative, got {a}")
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    if c_mode == "normalized":
        c = b * b / (4.0 * (a - 1.0))
    else:
        c = float(c_mode)

    nodes = 64
    W = _osc_coupling(a, b, c, levels, nodes)
    while True:
        if 2 * nodes > QUAD_MAX_NODES:
            raise QuadratureError(
                f"couplings not stable at {nodes} nodes "
                f"(doubling still moves entries)"
            )
        W2 = _osc_coupling(a, b, c, levels, 2 * nodes)
        stable = float(np.max(np.abs(W2 - W))) <= quad_atol
        nodes *= 2
        W = W2
        if stable:
            break

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
    """(2/l) integral_0^l exp(alpha x) sin(k pi x / l) sin(h pi x / l) dx."""
    if alpha == 0.0:
        return 1.0 if k == h else 0.0
    al = alpha * length
    sign = 1.0 if (k + h) % 2 == 0 else -1.0
    num = 4.0 * k * h * math.pi**2 * al * (sign * math.exp(al) - 1.0)
    den = (al**2 + (k - h) ** 2 * math.pi**2) * (al**2 + (k + h) ** 2 * math.pi**2)
    return num / den


def _box_triples(l, levels):
    """Lowest `levels` triples (k1,k2,k3) by eigenvalue, ties lexicographic."""
    l = np.asarray(l, dtype=float)
    K = 2
    while True:
        ks = range(1, K + 1)
        flat = sorted(
            (
                math.pi**2
                * (a**2 / l[0] ** 2 + b**2 / l[1] ** 2 + c**2 / l[2] ** 2),
                (a, b, c),
            )
            for a in ks
            for b in ks
            for c in ks
        )
        if len(flat) >= levels:
            # any excluded triple has some k_d >= K+1, so its eigenvalue exceeds
            # min_d pi^2 ((K+1)^2/l_d^2 + sum_{e != d} 1/l_e^2)
            inv = 1.0 / l**2
            excluded_min = math.pi**2 * min(
                (K + 1) ** 2 * inv[d] + inv.sum() - inv[d] for d in range(3)
            )
            if flat[levels - 1][0] < excluded_min:
                return flat[:levels]
        K += 2


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
    l = tuple(float(v) for v in l)
    alpha = tuple(float(v) for v in alpha)
    levels = int(levels)
    if len(l) != 3 or len(alpha) != 3:
        raise ValueError("l and alpha must have length 3")
    if min(l) <= 0.0:
        raise ValueError(f"edge lengths must be positive, got {l}")
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")

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

    one_d = []
    for d in range(3):
        ks = sorted({t[d] for t in triples})
        table = {
            (k, h): _box1d_coupling(k, h, alpha[d], l[d]) for k in ks for h in ks
        }
        one_d.append(table)

    W = np.empty((levels, levels))
    for i, ti in enumerate(triples):
        for j, tj in enumerate(triples[: i + 1]):
            v = 1.0
            for d in range(3):
                v *= one_d[d][(ti[d], tj[d])]
            W[i, j] = W[j, i] = v

    meta = {"model": "box3d", "l": list(l), "alpha": list(alpha)}
    return custom_system(lam, W, labels=triples, meta=meta)


def box3d_lambda_prime(l, alpha, triple):
    """Derivative of eigenvalue (k1,k2,k3) with respect to the coupling strength.

    Equals the diagonal coupling entry of the box system at the same
    parameters: the product over axes of the 1D diagonal integrals.  Requires
    every alpha_i nonzero (the closed form divides by alpha_i l_i); the limit
    alpha -> 0 of each factor is 1.
    """
    l = tuple(float(v) for v in l)
    alpha = tuple(float(v) for v in alpha)
    triple = tuple(int(k) for k in triple)
    if len(l) != 3 or len(alpha) != 3 or len(triple) != 3:
        raise ValueError("l, alpha and triple must have length 3")
    if min(l) <= 0.0:
        raise ValueError(f"edge lengths must be positive, got {l}")
    if min(triple) < 1:
        raise ValueError(f"mode numbers must be >= 1, got {triple}")
    if any(a == 0.0 for a in alpha):
        raise ValueError(f"alpha components must be nonzero, got {alpha}")
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


def system_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("system document must be a JSON object")
    for key in ("levels", "lambda", "W"):
        if key not in doc:
            raise ValueError(f"system document missing required key '{key}'")
    lam = doc["lambda"]
    if int(doc["levels"]) != len(lam):
        raise ValueError(
            f"levels field ({doc['levels']}) does not match lambda length "
            f"({len(lam)})"
        )
    labels = doc.get("labels")
    if labels is not None:
        labels = [tuple(t) if isinstance(t, list) else t for t in labels]
    return custom_system(lam, doc["W"], labels=labels, meta=doc.get("meta"))


def system_from_config(obj):
    """Build a system from CLI config: inline data or a model spec."""
    if not isinstance(obj, dict):
        raise ValueError("system config must be a JSON object")
    if "model" in obj:
        model = obj["model"]
        if model == "oscillator":
            return oscillator_system(
                a=obj["a"],
                b=obj["b"],
                c_mode=obj.get("c", "normalized"),
                levels=obj.get("levels", 8),
            )
        if model == "box3d":
            return box3d_system(
                l=obj["l"],
                alpha=obj["alpha"],
                levels=obj.get("levels", 8),
                simple_spectrum=obj.get("simple_spectrum", False),
            )
        raise ValueError(f"unknown model '{model}' (expected oscillator or box3d)")
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


def _write_json(path, doc):
    """Atomic JSON artifact; NaN and infinities raise ValueError, as JSON has none."""
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_system(path):
    with open(path) as fh:
        return system_from_json(json.load(fh))
