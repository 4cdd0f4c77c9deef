"""Skew-Hermitian/unitary kernels shared by every other module.

All matrices are plain complex numpy arrays.  Construction helpers validate and
return arrays rather than wrapping them in classes; downstream code relies on
the exact algebraic identities enforced here (entrywise skew symmetry, unitary
propagators from a Hermitian eigendecomposition).  Every propagator factor
comes from one kernel with two entry points, both returning (w, V, phases, F):
_expm_stack(G, t) for a (k, n, n) generator stack, from one batched eigh, and
_piece_factors(A, B, durations, values, frame) for the pieces of a control.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "EigendecompositionError",
    "skew_hermitian",
    "assert_unitary",
    "unitarity_defect",
    "skew_eigensystem",
    "expm_skew",
    "commutator",
]

# Validation thresholds from the interface contract.
SKEW_ATOL = 1e-8
UNITARY_ATOL = 1e-12


class EigendecompositionError(RuntimeError):
    """Raised when the Hermitian eigensolver fails; carries matrix diagnostics."""

    def __init__(self, dim, norm):
        self.dim = int(dim)
        self.norm = float(norm)
        super().__init__(
            f"eigendecomposition failed for matrix of dimension {self.dim}, "
            f"max-abs norm {self.norm:.6e}"
        )


def _check_real(x, name, lo=-math.inf, hi=math.inf, closed=False):
    """float(x) when x is a number (numeric text and booleans are not),
    finite and lo < x < hi (lo <= x when `closed`), else ValueError naming
    the argument; NaN fails every test here."""
    try:
        v = (math.nan if isinstance(x, (str, bytes, bool, np.bool_))
             else float(x))
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not (math.isfinite(v) and (lo <= v if closed else lo < v) and v < hi):
        span = f"{'[' if closed else '('}{lo:g}, {hi:g})"
        raise ValueError(f"{name}={x!r} is not a finite number in {span}")
    return v


def _check_int(x, name, lo, hi=math.inf):
    """int(x) when x is an integer (an integral float counts, a bool does
    not) with lo <= x <= hi; ValueError naming the argument otherwise."""
    ok = not isinstance(x, bool) and (
        isinstance(x, numbers.Integral)
        or (isinstance(x, numbers.Real) and float(x).is_integer()))
    if not (ok and lo <= int(x) <= hi):
        raise ValueError(f"{name}={x!r} is not an integer in [{lo}, {hi}]")
    return int(x)


def _check_meta(meta):
    """A copy of meta when it is a dict ({} for None), else ValueError."""
    if isinstance(meta, (dict, type(None))):
        return dict(meta or {})
    raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")


def _holds_bool(x):
    """True when x is a boolean or a (nested) list or tuple holding one."""
    if isinstance(x, (list, tuple)):
        return any(map(_holds_bool, x))
    return isinstance(x, (bool, np.bool_))


def _check_array(x, name, dtype=float, square=False):
    """x as a `dtype` (float or complex) array of finite numbers, square when
    `square`, else ValueError naming the argument: numeric text, booleans
    (in a list of numbers too), None, ragged lists and, for float, complex
    values fail."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged list
        raise ValueError(f"{name} must be a rectangular array") from None
    if a.dtype.kind == "b" or _holds_bool(x):
        raise ValueError(f"{name} must hold numbers, not booleans")
    real = dtype is float
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        raise ValueError(f"{name} must hold {'real ' if real else ''}numbers, "
                         f"got {a.dtype} data")
    if square and (a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    a = a.astype(dtype, copy=False)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def skew_hermitian(X):
    """Project X onto its skew-Hermitian part (X - X^H)/2.

    The projection makes M[j, k] == -conj(M[k, j]) hold exactly (same floating
    point operations on both triangles) and the diagonal purely imaginary.
    Inputs whose Hermitian part exceeds SKEW_ATOL in max-abs norm are rejected
    as likely bugs rather than silently repaired.
    """
    X = _check_array(X, "X", complex, square=True)
    with np.errstate(invalid="ignore", over="ignore"):  # overflow fails below
        M = (X - X.conj().T) / 2.0
        defect = np.max(np.abs(X - M)) if X.size else 0.0
    if not defect <= SKEW_ATOL:
        raise ValueError(f"input is not skew-Hermitian within {SKEW_ATOL:g} "
                         f"(defect {defect:.3e})"
        )
    return M


def unitarity_defect(U):
    """max-abs norm of U^H U - I."""
    U = _check_array(U, "U", complex, square=True)
    n = U.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):  # overflow: not unitary
        return float(np.max(np.abs(U.conj().T @ U - np.eye(n)))) if n else 0.0


def assert_unitary(U, atol=UNITARY_ATOL):
    U = _check_array(U, "U", complex, square=True)
    d = unitarity_defect(U)
    if not d <= atol:
        raise ValueError(f"matrix is not unitary within {atol:g} (defect {d:.3e})")
    return U


def skew_eigensystem(M):
    """Eigendecomposition of a skew-Hermitian M as M = V diag(-i w) V^H.

    Returns (w, V) with w real (the spectrum of the Hermitian matrix i M) and
    V unitary, so expm(t M) = V diag(exp(-i t w)) V^H.
    """
    return _eigh(1j * skew_hermitian(M))


def _eigh(H):
    """np.linalg.eigh of a Hermitian matrix or (k, n, n) stack, failing loudly."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError:
        norm = np.max(np.abs(H)) if H.size else 0.0
        raise EigendecompositionError(H.shape[-1], norm) from None


def _expm_stack(G, t):
    """(w, V, phases, F) with F_k = expm(t_k G_k) = V_k diag(phases_k) V_k^H
    for a (k, n, n) stack of skew-Hermitian G_k and times t_k.

    One batched eigendecomposition i G_k = V_k diag(w_k) V_k^H gives the
    phases exp(-i t_k w_k), so each F_k is unitary to machine precision for
    any ||t_k G_k||.  An overflow in G_k or t_k w gives a non-finite phase,
    which raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        w, V = _eigh(1j * G)
        phases = np.exp(-1j * t[:, None] * w)
    if not np.all(np.isfinite(phases)):
        raise ValueError("the propagator overflows: a generator or a time "
                         "gives a non-finite phase exp(-i t w)")
    return w, V, phases, (V * phases[:, None, :]) @ np.swapaxes(V.conj(), -1, -2)


def expm_skew(M, t=1.0):
    """Unitary propagator expm(t M) for skew-Hermitian M (see _expm_stack)."""
    return _expm_stack(skew_hermitian(M)[None],
                       np.array([_check_real(t, "t")]))[-1][0]


def _piece_factors(A, B, durations, values, frame):
    """_expm_stack of the pieces of a piecewise-constant control.

    The generator of piece k is G_k = A + u_k B in the "original" frame and
    u_k A + B in the "reparametrized" one; an overflow raises ValueError.
    """
    if frame not in ("original", "reparametrized"):
        raise ValueError(f"unknown frame {frame!r}")
    u = np.asarray(values, dtype=float)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        stack = A + u * B if frame == "original" else u * A + B
    return _expm_stack(stack, np.asarray(durations, dtype=float))


def _partial_products(x, factors):
    """[x, F_0 x, F_1 F_0 x, ...] as one complex array of len(factors) + 1
    rows: the running products of x with `factors` in order, the one place
    a piecewise propagation is multiplied out."""
    xs = np.empty((len(factors) + 1, *np.shape(x)), dtype=complex)
    xs[0] = x
    for F, a, b in zip(factors, xs, xs[1:]):
        np.matmul(F, a, out=b)
    return xs


def commutator(X, Y):
    """[X, Y] = XY - YX.  Skew-Hermitian inputs give a skew-Hermitian result."""
    X = _check_array(X, "X", complex, square=True)
    Y = _check_array(Y, "Y", complex, square=True)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch {X.shape} vs {Y.shape}")
    return X @ Y - Y @ X
