"""Functional calculus, operator bicharacter, sums, spectral diagnostics."""

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import DimensionError, DomainError, KernelConditionError
from qazb.gamma import grid, make_point
from qazb.opalg import (
    Eigensystem,
    NormalMatrix,
    block_diag,
    chi_op,
    chi_values,
    gamma_distance,
    lattice_calculus,
    lattice_values,
    operator_norm,
    snap_spectrum,
)
from qazb.q2pair import closure_sum
from qazb.qexp import QExpParams, fq_lattice, fq_on_operator


def random_normal_matrix(dim, seed):
    """Unitary conjugate of a random lattice-free diagonal (exactly normal)."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Qu, _ = np.linalg.qr(A)
    return Qu @ np.diag(d) @ Qu.conj().T, d


def random_lattice_matrix(dim, seed, q=0.5):
    """Unitary conjugate of a random diagonal with distinct lattice
    eigenvalues q^n e^{i theta}, n = -dim/2, ..., dim/2 - 1."""
    rng = np.random.default_rng(seed)
    n = np.arange(dim) - dim // 2
    lam = q ** n.astype(float) * np.exp(1j * rng.uniform(0.1, 6.2, dim))
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Qu, _ = np.linalg.qr(A)
    return Qu @ np.diag(lam) @ Qu.conj().T


def lattice_z(q):
    """The lattice_calculus map of the identity function z -> z."""
    return lambda n, theta, zero: np.where(zero, 0.0, q ** n.astype(float) * np.exp(1j * theta))


@pytest.mark.parametrize("blocks", [
    [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0]])],
    [np.array([[1.0, 2.0]]), np.array([[1j], [2 - 1j]])],
    [np.eye(3), [[0.25 + 0.5j]], np.zeros((1, 1))],
    [np.eye(2, dtype=complex), np.zeros((4, 0), complex), np.eye(1, dtype=complex)],
    [np.zeros((4, 0)), np.zeros((4, 0))],
    [np.ones((1, 1), int), np.ones((2, 2), np.float32)],
], ids=["real", "real-complex", "list-block", "empty-window", "only-empty", "mixed-dtype"])
def test_block_diag_matches_scipy(blocks):
    import scipy.linalg

    got, want = block_diag(*blocks), scipy.linalg.block_diag(*blocks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_eig_normal_diagonal_input():
    d = np.array([1.0 + 0j, -2.0, 3j])
    nm = NormalMatrix(np.diag(d))
    V, lam = nm.eig()
    assert nm.normality_defect < 1e-14
    assert np.allclose(V.conj().T @ V, np.eye(3), atol=1e-13)
    assert np.allclose(np.sort_complex(lam), np.sort_complex(d), atol=1e-14)


def test_eig_normal_similarity_invariance():
    g = grid(0.5, 4)
    rng = np.random.default_rng(0)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    A = g.fourier.conj().T @ np.diag(d) @ g.fourier
    _, lam = NormalMatrix(A).eig()
    assert np.abs(np.sort_complex(lam) - np.sort_complex(d)).max() < 1e-11


def test_eig_normal_sum_truncation_signature():
    # the absolute defect of X+Y at M=8 is the model's recorded signature
    pinned = load_pinned()
    g = grid(0.5, 8)
    X = np.diag(g.values)
    Y = g.fourier.conj().T @ X @ g.fourier
    defect = NormalMatrix(X + Y).normality_defect
    assert defect == pytest.approx(pinned["sum_defect_absolute_m8"], rel=1e-10)


def test_eig_normal_rejects_non_finite():
    with pytest.raises(DomainError):
        NormalMatrix(np.array([[np.nan, 0], [0, 1]], dtype=complex)).eig()


def test_normal_matrix_reconstruction():
    T, _ = random_normal_matrix(12, 3)
    nm = NormalMatrix(T)
    V, lam = nm.eig()
    assert operator_norm((V * lam) @ V.conj().T - T) < 100 * np.finfo(float).eps * nm.norm2
    assert operator_norm(V.conj().T @ V - np.eye(12)) < 1e-11


def test_apply_fn_identity_and_constant():
    q = 0.5
    T = random_lattice_matrix(8, 4, q)
    assert operator_norm(lattice_calculus(T, lattice_z(q), q) - T) < 1e-11 * operator_norm(T)
    ones = lambda n, theta, zero: np.ones(n.shape)
    assert np.allclose(lattice_calculus(T, ones, q), np.eye(8), atol=1e-12)


def test_apply_fn_quantum_exponential_special_values():
    # F_q(0) = 1 and F_q(-1) = -1 (the singular set) through the operator calculus
    out = fq_on_operator(np.diag([0.0 + 0j, -1.0]), QExpParams(0.5))
    assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-12)


def test_apply_fn_homomorphism():
    q = 0.5
    T = random_lattice_matrix(10, 6, q)
    f = lambda n, theta, zero: lattice_z(q)(n, theta, zero) ** 2
    g = lambda n, theta, zero: np.exp(1j * theta)
    lhs = lattice_calculus(T, lambda *data: f(*data) * g(*data), q)
    rhs = lattice_calculus(T, f, q) @ lattice_calculus(T, g, q)
    assert operator_norm(lhs - rhs) < 1e-10 * max(1.0, operator_norm(T) ** 2)


@pytest.mark.parametrize("stacked", [False, True])
def test_lattice_calculus_matches_explicit_spectral_sum(stacked):
    # T = Q diag(q^n e^{i theta}) Q* with distinct lattice eigenvalues (one
    # zero in the unstacked case); the reference is Q diag(f) Q* on the
    # exact lattice data
    q, dim = 0.5, 9
    rng = np.random.default_rng(21)
    n = np.arange(-4, 5)
    theta = rng.uniform(0.1, 6.2, dim)
    zero = np.arange(dim) == 0 if not stacked else np.zeros(dim, dtype=bool)
    lam = np.where(zero, 0.0, q ** n.astype(float) * np.exp(1j * theta))
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Qu, _ = np.linalg.qr(A)
    T = Qu @ np.diag(lam) @ Qu.conj().T
    if stacked:
        f = chi_values(np.array([1, -2, 3]), np.array([0.3, 2.0, 5.1]))
    else:
        p = QExpParams(q)
        f = lambda n, theta, zero: fq_lattice(n, theta, p, zero=zero)
    got = lattice_calculus(T, f, q)
    vals = np.asarray(f(n, theta, zero))
    want = np.stack([(Qu * v) @ Qu.conj().T for v in vals.reshape(-1, dim)])
    assert got.shape == vals.shape[:-1] + (dim, dim)
    assert np.abs(got.reshape(want.shape) - want).max() < 1e-12


@pytest.mark.parametrize("basis", ["schur", "supplied", "identity"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_lattice_apply_matches_lattice_calculus_on_columns(basis, adjoint):
    q, dim = 0.5, 9
    rng = np.random.default_rng(4)
    n = np.arange(-4, 5)
    theta = rng.uniform(0.1, 6.2, dim)
    lam = q ** n.astype(float) * np.exp(1j * theta)
    Qu = np.eye(dim) if basis == "identity" else np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    T = Qu @ np.diag(lam) @ Qu.conj().T
    T = NormalMatrix(T) if basis == "schur" else NormalMatrix(T, Eigensystem(Qu, lam, n, theta))
    p = QExpParams(q)
    f = lambda n, theta, zero: fq_lattice(n, theta, p, zero=zero)
    B = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    F = lattice_calculus(T, f, q)
    want = (F.conj().T if adjoint else F) @ B

    def apply(vals):   # the adjoint takes the conjugate values
        return T.spectral_apply(vals.conj() if adjoint else vals, B)

    got = apply(lattice_values(T, f, q))
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
    C = apply(lattice_values(T, chi_values(1, 0.7), q))
    D = chi_op(T, make_point(1, 0.7), q)
    assert np.abs(C - (D.conj().T if adjoint else D) @ B).max() < 1e-13


def test_chi_op_at_identity():
    g = grid(0.5, 4)
    X = np.diag(g.values)
    out = chi_op(X, make_point(0, 0.0), 0.5)
    assert np.allclose(out, np.eye(16), atol=1e-13)


def test_chi_op_at_q_is_phase():
    g = grid(0.5, 4)
    X = np.diag(g.values)
    out = chi_op(X, make_point(1, 0.0), 0.5)
    assert np.allclose(out, np.diag(g.values / np.abs(g.values)), atol=1e-13)


def test_chi_op_multiplicative():
    g = grid(0.5, 4)
    X = NormalMatrix(np.diag(g.values))
    g1 = make_point(2, 1.3)
    g2 = make_point(-1, 0.4)
    lhs = chi_op(X, g1, 0.5) @ chi_op(X, g2, 0.5)
    rhs = chi_op(X, g1 * g2, 0.5)
    assert operator_norm(lhs - rhs) < 1e-11


def test_chi_op_commutes_with_diagonal_exactly():
    g = grid(0.5, 4)
    X = np.diag(g.values)
    rng = np.random.default_rng(8)
    D = np.diag(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    C = chi_op(X, make_point(1, 0.7), 0.5)
    Cd = np.diag(np.diag(C))  # C is diagonal since X is; drop roundoff zeros
    assert np.array_equal(Cd @ D, D @ Cd)


def test_chi_op_kernel_condition():
    with pytest.raises(KernelConditionError):
        chi_op(np.diag([0.0 + 0j, 1.0]), make_point(1, 0.0), 0.5)


def test_chi_op_rejects_zero_point():
    from qazb.gamma import zero_point

    with pytest.raises(DomainError):
        chi_op(np.diag([1.0 + 0j]), zero_point(), 0.5)


def test_closure_sum_zero_and_mismatch():
    g = grid(0.5, 4)
    X = NormalMatrix(np.diag(g.values))
    S = closure_sum(X, np.zeros((16, 16)))
    assert np.array_equal(S.entries, X.entries)
    assert S.normality_defect == X.normality_defect
    assert S is X   # the zero summand leaves X, its eigensystem and caches
    with pytest.raises(DimensionError):
        closure_sum(X, np.zeros((4, 4)))


def test_gamma_distance_examples():
    g = grid(0.5, 4)
    assert gamma_distance(np.diag(g.values), 0.5) < 1e-12
    assert gamma_distance(np.diag([1.1 + 0j]), 0.5) == pytest.approx(0.1, abs=1e-12)
    assert gamma_distance(np.diag([0.0 + 0j, 1.0]), 0.5) < 1e-12  # 0 lies in the closure


def test_degraded_flag_and_completion():
    J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # maximally non-normal
    nm = NormalMatrix(J)
    assert nm.degraded
    out = lattice_calculus(nm, lambda n, theta, zero: np.ones(n.shape), 0.5)   # still completes
    assert out.shape == (2, 2)


def test_snap_spectrum_zero_detection():
    n, theta, zero, rel = snap_spectrum(np.array([0.0 + 0j, 2.0]), 0.5)
    assert zero[0] and not zero[1]
    assert n[1] == -1 and rel[1] < 1e-15


def test_normal_matrix_rejects_non_square():
    with pytest.raises(DimensionError):
        NormalMatrix(np.zeros((2, 3)))
