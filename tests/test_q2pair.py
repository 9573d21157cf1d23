"""Schrodinger pairs, the windowed conjugation relation, the exponential
identity witness, and block-built pairs."""

import math

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import DimensionError, DomainError, ParameterError
from qazb.gamma import grid, make_point
from qazb.opalg import SPECTRUM_RTOL, Eigensystem, NormalMatrix, chi_op, lattice_calculus, operator_norm
from qazb.qexp import QExpParams, fq_on_operator
from qazb.q2pair import (
    Q2Pair,
    conjugate_pair,
    exp_identity_residual,
    grid_generators,
    interior_window,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    verify_q2,
    weyl_residual,
    windowed_modulus_distance,
)


def test_schrodinger_m2_matrix():
    g = grid(0.5, 2)
    pair = schrodinger_pair(g)
    assert np.allclose(np.diag(pair.X.entries), [1, -1, 2, -2], atol=1e-15)
    assert np.count_nonzero(pair.X.entries - np.diag(np.diag(pair.X.entries))) == 0


def test_schrodinger_members_share_spectrum(request):
    from conftest import multiset_close

    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    assert multiset_close(pair.X.eig()[1], pair.Y.eig()[1], tol=1e-11)


def test_schrodinger_verifies_at_m8():
    g = grid(0.5, 8)
    pair = schrodinger_pair(g, margin=2)
    report = verify_q2(pair, tol=1e-10)
    assert report.passed
    assert max(report.weyl_residuals.values()) < 1e-10
    assert report.kernel_pass and report.spectrum_pass and report.normality_pass


def dense_window(g, margin):
    """The window as the dense projector D (F* D F), D the position mask."""
    M = g.M
    mask = np.array([-M // 2 + margin <= (k + M // 2) % M - M // 2 <= M // 2 - 1 - margin
                     for k in range(M)])
    D = np.diag(np.repeat(mask, M).astype(float))
    return D @ (g.fourier.conj().T @ D @ g.fourier)


@pytest.mark.parametrize(
    "M,margin",
    [(M, margin) for M in (4, 8, 12, 20) for margin in range(M // 2 + 1)],
    ids=lambda v: str(v),
)
def test_interior_window_matches_dense_projector(M, margin):
    g = grid(0.5, M)
    B = interior_window(g, margin)
    r = max(M - 2 * margin, 0) ** 2
    assert B.shape == (M * M, r)
    assert np.abs(B.conj().T @ B - np.eye(r)).max(initial=0.0) < 1e-13
    assert np.abs(B @ B.conj().T - dense_window(g, margin)).max() < 1e-13


def test_windowed_norm_equals_projector_sandwich():
    g = grid(0.5, 8)
    B = interior_window(g, 2)
    P = dense_window(g, 2)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    assert operator_norm(B.conj().T @ A @ B) == pytest.approx(operator_norm(P @ A @ P), rel=1e-12)


def test_windowed_modulus_distance_with_empty_block():
    # a P = 2 sub-grid block adds rows but no columns to the window basis
    g = grid(0.5, 8)
    pair = random_regular_pair([("schrodinger", 4), ("schrodinger", 2)], seed=0, g=g)
    assert pair.window.shape == (20, 4)
    alone = windowed_modulus_distance(schrodinger_pair(grid(0.5, 4)))
    assert alone > 0.0
    assert windowed_modulus_distance(pair) == pytest.approx(alone, rel=1e-12)


def test_window_needs_dim_rows():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    with pytest.raises(DimensionError):
        Q2Pair(Y=base.Y, X=base.X, grid=g, window=base.window[:-1])


def test_window_projector_is_rejected():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    with pytest.raises(DomainError):
        Q2Pair(Y=base.Y, X=base.X, grid=g, window=dense_window(g, 1))


def test_pair_with_itself_fails_weyl():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    pair = Q2Pair(Y=base.X, X=base.X, grid=g, window=base.window)
    report = verify_q2(pair, tol=1e-10)
    assert not report.passed and not report.weyl_pass
    # scaling a nonzero operator changes it: residual is |1 - gamma| ||B*XB||
    q_gen = g.point(1, 0)
    B = base.window
    lower = abs(1 - q_gen.value(0.5)) * operator_norm(B.conj().T @ base.X.entries @ B)
    assert report.weyl_residuals["q"] >= 0.99 * lower


def test_swapped_roles_match_inverse_relation():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    swapped = Q2Pair(Y=base.X, X=base.Y, grid=g, window=base.window)
    assert not verify_q2(swapped, tol=1e-10).weyl_pass
    # conjugating by chi(Y, gamma) translates the spectrum the other way
    q_gen = g.point(1, 0)
    C = chi_op(base.Y, q_gen, 0.5)
    B = base.window
    D_inv = C @ base.X.entries @ C.conj().T - base.X.entries / q_gen.value(0.5)
    assert operator_norm(B.conj().T @ D_inv @ B) < 1e-10


def test_exp_identity_zero_control():
    g = grid(0.5, 8)
    base = schrodinger_pair(g)
    zero_pair = Q2Pair(
        Y=NormalMatrix(np.zeros((64, 64))), X=base.X, grid=g, window=base.window,
    )
    report = exp_identity_residual(zero_pair)
    assert report.residual < 1e-12


def test_exp_identity_replays_pinned_and_orders():
    pinned = load_pinned()
    g = grid(0.5, 8)
    report = exp_identity_residual(schrodinger_pair(g))
    assert report.residual == pytest.approx(pinned["exp_identity"]["8"], rel=1e-9)
    assert report.residual_swapped > report.residual
    assert report.sum_defect == pytest.approx(pinned["sum_defect"]["8"], rel=1e-9)
    assert report.sum_defect_windowed < 1e-12
    assert verify_q2(schrodinger_pair(g)).weyl_residuals["q"] <= 1e-10


def test_windowed_modulus_distance_replays_pinned():
    pinned = load_pinned()
    g = grid(0.5, 8)
    d = windowed_modulus_distance(schrodinger_pair(g))
    assert d == pytest.approx(pinned["gamma_distance"]["8"], rel=1e-9)


def test_generator_sufficiency_on_composites():
    # residuals stay at roundoff for composed gamma with modulus shift
    # within the margin (the window absorbs shifted wrap bands)
    g = grid(0.5, 8)
    pair = schrodinger_pair(g, margin=2)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        s = int(rng.integers(-2, 3))
        t = int(rng.integers(0, 8))
        gamma = make_point(s, 2 * math.pi * t / 8)
        worst = max(worst, weyl_residual(pair, gamma))
    assert worst < 1e-10


def test_unitary_invariance_of_residuals():
    g = grid(0.5, 4)
    pair = schrodinger_pair(g)
    rng = np.random.default_rng(21)
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    U, _ = np.linalg.qr(A)
    conj = conjugate_pair(pair, U)
    r0 = exp_identity_residual(pair)
    r1 = exp_identity_residual(conj)
    assert abs(r0.residual - r1.residual) < 1e-11
    for (_, gen) in grid_generators(g):
        a = weyl_residual(pair, gen)
        b = weyl_residual(conj, gen)
        assert abs(a - b) < 1e-11


def test_trivial_block_pair():
    g = grid(0.5, 8)
    pair = random_regular_pair([("trivial", g.point(1, 0))], seed=0, g=g)
    assert pair.Y.entries[0, 0] == 0 and pair.X.entries[0, 0] == 0.5
    assert verify_q2(pair, tol=1e-10).passed


def test_two_trivial_blocks_diagonal():
    g = grid(0.5, 8)
    pair = random_regular_pair(
        [("trivial", g.point(0, 1)), ("trivial", g.point(2, 3))], seed=0, g=g
    )
    assert np.count_nonzero(pair.X.entries - np.diag(np.diag(pair.X.entries))) == 0
    assert verify_q2(pair, tol=1e-10).passed


def test_mixed_block_pair_seed7():
    g = grid(0.5, 8)
    pair = random_regular_pair([("trivial", None), ("schrodinger", 4)], seed=7, g=g)
    report = verify_q2(pair, tol=1e-10)
    assert report.passed
    assert max(report.weyl_residuals.values()) < 1e-10


def test_trivial_block_rejects_zero():
    from qazb.gamma import zero_point

    g = grid(0.5, 8)
    with pytest.raises(ParameterError):
        random_regular_pair([("trivial", zero_point())], seed=0, g=g)


def test_block_order_must_divide():
    g = grid(0.5, 8)
    with pytest.raises(ParameterError):
        random_regular_pair([("schrodinger", 6)], seed=0, g=g)


def test_seeded_specs_deterministic():
    g = grid(0.5, 8)
    a = seeded_block_specs(7, 6, g)
    b = seeded_block_specs(7, 6, g)
    assert a == b
    dim = sum(1 if s[0] == "trivial" else s[1] ** 2 for s in a)
    assert dim == 6


def _schur_copy(T: NormalMatrix) -> NormalMatrix:
    """The same entries without the supplied eigensystem (the Schur route)."""
    return NormalMatrix(T.entries)


def _rel(got, want) -> float:
    return operator_norm(got - want) / max(1.0, operator_norm(want))


@pytest.mark.parametrize("M", [4, 8, 12, 16])
def test_exact_eigensystem_matches_schur_oracle(M):
    g = grid(0.5, M)
    pair = schrodinger_pair(g)
    P = QExpParams(g.q)
    q_gen, omega = (gen for _, gen in grid_generators(g))
    for T in (pair.X, pair.Y):
        assert T.eigensystem is not None
        assert _rel(fq_on_operator(T, P, M), fq_on_operator(_schur_copy(T), P, M)) < 1e-12
    for point in (q_gen, omega):
        assert _rel(chi_op(pair.X, point, g.q), chi_op(_schur_copy(pair.X), point, g.q)) < 1e-12
    zero_y = NormalMatrix(np.zeros((g.size, g.size)), Eigensystem.zero_operator(g.size))
    kernel = lambda n, theta, zero: zero
    got = lattice_calculus(zero_y, kernel, g.q)
    assert _rel(got, lattice_calculus(_schur_copy(zero_y), kernel, g.q)) < 1e-12
    assert np.array_equal(got, np.eye(g.size))

    seeded = random_regular_pair(seeded_block_specs(M, 12, g), seed=M, g=g)
    for T in (seeded.X, seeded.Y):
        assert T.eigensystem is not None
        assert _rel(fq_on_operator(T, P, M), fq_on_operator(_schur_copy(T), P, M)) < 1e-12


def test_supplied_eigensystem_takes_no_schur_form(monkeypatch):
    import scipy.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("Schur form computed for a supplied eigensystem")

    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    V, lam = pair.Y.eig()
    assert np.array_equal(V, g.fourier.conj().T) and np.array_equal(lam, g.values)
    assert pair.X.norm2 == pair.Y.norm2 == float(np.max(np.abs(g.values)))
    assert verify_q2(pair).passed
    exp_identity_residual(pair)
    seeded = random_regular_pair(seeded_block_specs(3, 8, g), seed=3, g=g)
    verify_q2(conjugate_pair(seeded, np.linalg.qr(np.eye(8) + 0.3j * np.ones((8, 8)))[0]))


def test_certificate_is_reported_as_spectrum_distance():
    pair = schrodinger_pair(grid(0.5, 8))
    report = verify_q2(pair)
    cert = max(pair.X.eig_certificate, pair.Y.eig_certificate)
    assert 0.0 < cert < 1e-13
    assert max(report.spectrum_dist_x, report.spectrum_dist_y) >= cert
    assert _schur_copy(pair.X).eig_certificate is None


def test_permuted_basis_is_refused():
    g = grid(0.5, 4)
    perm = np.roll(np.arange(g.size), 1)
    wrong = NormalMatrix(np.diag(g.values), Eigensystem(np.eye(g.size)[:, perm], g.values, *g.lattice))
    with pytest.raises(DomainError, match="does not describe"):
        wrong.eig()


def test_non_unitary_conjugation_is_refused():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    pair = Q2Pair(Y=base.Y, X=base.X, grid=g)   # no window, whose own check would refuse U first
    U = np.eye(g.size) + 1e-3 * np.ones((g.size, g.size))
    conj = conjugate_pair(pair, U)
    with pytest.raises(DomainError, match="does not describe"):
        conj.X.eig()
    report = verify_q2(conj)
    assert not report.spectrum_pass and not report.passed
    rows = {r["condition"]: r for r in report.rows()}
    assert rows["spectrum_lattice"]["value"] == np.inf
    assert rows["kernel"] == {"condition": "kernel", "value": None, "pass": False}
    assert rows["weyl_q"]["value"] is None and rows["weyl_omega"]["value"] is None


@pytest.mark.parametrize("M, refused", [(24, True), (32, False)])
def test_certificate_resolution_is_relative_to_the_norm(M, refused):
    # The certificate bounds ||T V - V diag(lam)||_F by SPECTRUM_RTOL * max|lam|,
    # so eigenpairs with |lam| below that are not individually certified.
    # Swapping two basis vectors of X of the smallest modulus and adjacent
    # phases leaves a residual of sqrt2 |lam_i - lam_j|: 4.4e-8 of ||X|| at
    # M=24 (refused) but 1.3e-10 at M=32 (accepted, together with the
    # lattice data, though chi(X, .) then puts wrong phases on the two).
    # The limit is documented in qazb.opalg; this pins it.
    g = grid(0.5, M)
    k, theta = g.lattice
    i, j = np.flatnonzero(k == k.max())[:2]
    assert theta[i] != theta[j]
    perm = np.arange(g.size)
    perm[[i, j]] = perm[[j, i]]
    wrong = NormalMatrix(np.diag(g.values), Eigensystem(np.eye(g.size)[:, perm], g.values, k, theta))
    if refused:
        with pytest.raises(DomainError, match="does not describe"):
            wrong.eig()
    else:
        assert wrong.eig_certificate < SPECTRUM_RTOL
        assert np.max(wrong.lattice(g.q)[3]) == 0.0


def test_lattice_data_must_match_the_eigenvalues():
    pair = schrodinger_pair(grid(0.5, 4))
    with pytest.raises(DomainError, match="lattice data"):
        pair.X.lattice(0.25)
    k, theta = grid(0.5, 4).lattice
    shifted = NormalMatrix(pair.X.entries, Eigensystem(np.eye(16), pair.X.eig()[1], k + 1, theta))
    with pytest.raises(DomainError, match="lattice data"):
        fq_on_operator(shifted, QExpParams(0.5))


def test_tiny_eigenvalue_fails_the_kernel_check_without_raising():
    # a plain (Schur-route) X whose smallest |x| lies under ZERO_RTOL * ||X||:
    # the kernel check fails and the Weyl residuals are skipped, not raised
    g = grid(0.5, 4)
    X = NormalMatrix(np.diag([1.0, 0.5, 2.0, 1e-12]))
    report = verify_q2(Q2Pair(Y=NormalMatrix(np.zeros((4, 4))), X=X, grid=g))
    assert not report.kernel_pass and not report.weyl_pass and not report.passed
    assert report.kernel_min == pytest.approx(1e-12)
    rows = {r["condition"]: r for r in report.rows()}
    assert rows["kernel"]["pass"] is False
    assert rows["weyl_q"] == {"condition": "weyl_q", "value": None, "pass": False}
    assert rows["weyl_omega"]["value"] is None
