"""Tests for the skew-Hermitian exponential kernel and matrix utilities."""

import numpy as np
import pytest
import scipy.linalg

from bqcontrol.linalg import (
    assert_unitary,
    commutator,
    expm_skew,
    skew_eigensystem,
    skew_hermitian,
    unitarity_defect,
)


def random_skew(rng, n):
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (X - X.conj().T) / 2


def test_skew_hermitian_projection():
    rng = np.random.default_rng(1)
    # a skew matrix plus a Hermitian defect below SKEW_ATOL
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = random_skew(rng, 4) + 1e-10 * (H + H.conj().T)
    M = skew_hermitian(X)
    assert np.max(np.abs(M + M.conj().T)) < 1e-15
    # projection is idempotent
    assert np.allclose(skew_hermitian(M), M, atol=0, rtol=0)


def test_skew_hermitian_rejects_large_defect():
    X = np.eye(3, dtype=complex)  # Hermitian, far from skew
    with pytest.raises(ValueError):
        skew_hermitian(X)


def test_expm_skew_matches_scipy():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        M = random_skew(rng, n)
        for t in (0.0, 0.37, 2.0, -1.4):
            U = expm_skew(M, t)
            V = scipy.linalg.expm(t * M)
            assert np.max(np.abs(U - V)) < 1e-12


def test_expm_skew_unitarity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        M = random_skew(rng, 6)
        U = expm_skew(M, rng.uniform(-5, 5))
        assert unitarity_defect(U) <= 1e-12


def test_expm_skew_group_law():
    rng = np.random.default_rng(5)
    M = random_skew(rng, 4)
    U = expm_skew(M, 0.7) @ expm_skew(M, 0.3)
    assert np.max(np.abs(U - expm_skew(M, 1.0))) < 1e-13


def test_expm_skew_validates():
    with pytest.raises(ValueError):
        expm_skew(np.eye(2, dtype=complex), 1.0)
    # the kernel's finite-phase check: t w overflows instead of giving NaN
    M = random_skew(np.random.default_rng(9), 2)
    with pytest.raises(ValueError, match="non-finite phase"):
        expm_skew(M * 1e300, 1e10)


def test_skew_eigensystem_reconstruction():
    rng = np.random.default_rng(6)
    M = random_skew(rng, 5)
    w, V = skew_eigensystem(M)
    # M = V diag(-i w) V^H with w real
    R = V @ np.diag(-1j * w) @ V.conj().T
    assert np.max(np.abs(R - M)) < 1e-13
    assert np.all(np.isreal(w))


def test_assert_unitary():
    U = expm_skew(random_skew(np.random.default_rng(7), 3), 1.0)
    assert_unitary(U)
    with pytest.raises(ValueError):
        assert_unitary(1.001 * U)


def test_commutator():
    rng = np.random.default_rng(8)
    X, Y = random_skew(rng, 4), random_skew(rng, 4)
    C = commutator(X, Y)
    assert np.allclose(C, -(commutator(Y, X)))
    skew_hermitian(C)  # skew matrices close under bracket: no ValueError
