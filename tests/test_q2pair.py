"""Schrodinger pairs, the windowed conjugation relation, the exponential
identity witness, and block-built pairs."""

import math

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import DimensionError, DomainError, ParameterError
from qazb.gamma import grid, make_point
from qazb.opalg import SPECTRUM_RTOL, Eigensystem, GridOperator, NormalMatrix, chi_op, lattice_calculus, operator_norm
from qazb.qexp import QExpParams, fq_eigenvalues, fq_on_operator
from qazb.q2pair import (
    Image,
    InteriorWindow,
    Q2Pair,
    _fq_products,
    _phase_modes,
    closure_sum,
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


def test_corep_margin_rule():
    # min(ceil((M + 2)/4), M/2 - 1): ceil(M/4) when M = 2 mod 4, one more
    # when 4 | M, capped at a window of width 2, and 1 at M = 2, where
    # every margin leaves no window
    from qazb.q2pair import corep_margin, default_margin

    M = np.arange(2, 30, 2)
    assert [corep_margin(m) for m in M] == [1, 1, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
    assert all(corep_margin(m) == default_margin(m) + (m % 4 == 0) for m in M[2:])


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
    pair = random_regular_pair([("schrodinger", 4), ("schrodinger", 2)], g)
    assert pair.window.shape == (20, 4)
    alone = windowed_modulus_distance(schrodinger_pair(grid(0.5, 4)))
    assert alone > 0.0
    assert windowed_modulus_distance(pair) == pytest.approx(alone, rel=1e-12)


def test_window_needs_dim_rows():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    with pytest.raises(DimensionError):
        Q2Pair(Y=base.Y, X=base.X, grid=g, window=base.window_or_identity()[:-1])


def test_window_projector_is_rejected():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    with pytest.raises(DomainError):
        Q2Pair(Y=base.Y, X=base.X, grid=g, window=dense_window(g, 1))


def test_pair_with_itself_fails_weyl():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    pair = Q2Pair(Y=base.X, X=base.X, grid=g, window=base.window_or_identity())
    report = verify_q2(pair, tol=1e-10)
    assert not report.passed and not report.weyl_pass
    # scaling a nonzero operator changes it: residual is |1 - gamma| ||B*XB||
    q_gen = g.point(1, 0)
    B = base.window_or_identity()
    lower = abs(1 - q_gen.value(0.5)) * operator_norm(B.conj().T @ base.X.entries @ B)
    assert report.weyl_residuals["q"] >= 0.99 * lower


def test_swapped_roles_match_inverse_relation():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    swapped = Q2Pair(Y=base.X, X=base.Y, grid=g, window=base.window_or_identity())
    assert not verify_q2(swapped, tol=1e-10).weyl_pass
    # conjugating by chi(Y, gamma) translates the spectrum the other way
    q_gen = g.point(1, 0)
    C = chi_op(base.Y, q_gen, 0.5)
    B = base.window_or_identity()
    D_inv = C @ base.X.entries @ C.conj().T - base.X.entries / q_gen.value(0.5)
    assert operator_norm(B.conj().T @ D_inv @ B) < 1e-10


def test_exp_identity_zero_control():
    g = grid(0.5, 8)
    base = schrodinger_pair(g)
    zero_pair = Q2Pair(
        Y=NormalMatrix(np.zeros((64, 64))), X=base.X, grid=g, window=base.window_or_identity(),
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
    pair = random_regular_pair([("trivial", g.point(1, 0))], g)
    assert pair.Y.entries[0, 0] == 0 and pair.X.entries[0, 0] == 0.5
    assert verify_q2(pair, tol=1e-10).passed


def test_two_trivial_blocks_diagonal():
    g = grid(0.5, 8)
    pair = random_regular_pair(
        [("trivial", g.point(0, 1)), ("trivial", g.point(2, 3))], g
    )
    assert np.count_nonzero(pair.X.entries - np.diag(np.diag(pair.X.entries))) == 0
    assert verify_q2(pair, tol=1e-10).passed


def test_mixed_block_pair_seed7():
    g = grid(0.5, 8)
    # the trivial block at the grid point (7, 5), the draw default_rng(7)
    # made for it before blocks took explicit points
    pair = random_regular_pair([("trivial", g.point(7, 5)), ("schrodinger", 4)], g)
    report = verify_q2(pair, tol=1e-10)
    assert report.passed
    assert max(report.weyl_residuals.values()) < 1e-10


def test_trivial_block_rejects_zero():
    from qazb.gamma import zero_point

    g = grid(0.5, 8)
    with pytest.raises(ParameterError):
        random_regular_pair([("trivial", zero_point())], g)


def test_block_order_must_divide():
    g = grid(0.5, 8)
    with pytest.raises(ParameterError):
        random_regular_pair([("schrodinger", 6)], g)


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

    seeded = random_regular_pair(seeded_block_specs(M, 12, g), g)
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
    seeded = random_regular_pair(seeded_block_specs(3, 8, g), g)
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


def test_identity_basis_with_wrong_eigenvalues_is_refused():
    # an identity basis is certified like any other
    g = grid(0.5, 4)
    k, theta = g.lattice
    es = Eigensystem(np.eye(g.size), g.values[::-1], k[::-1], theta[::-1])
    wrong = NormalMatrix(np.diag(g.values), es)
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


def _mean_lattice_distance(mu, q) -> float:
    """The modulus distance of `windowed_modulus_distance` for the
    eigenvalues mu of a windowed S*S."""
    from qazb.gamma import snap_spectrum

    moduli = np.sqrt(np.clip(mu, 0.0, None))
    _, _, zero, rel = snap_spectrum(moduli.astype(complex), q, scale=float(np.max(moduli, initial=0.0)))
    return float(np.mean(np.where(zero, 0.0, rel)))


def dense_witnesses(pair: Q2Pair) -> dict:
    """The witnesses by their n x n formulas: chi(X, gamma), F_q(X), F_q(Y),
    both products, the commutators and S*S formed densely, then compressed
    to B* A B.  The reference for the window-column route.  Also the modulus
    distance from the singular values of S B, a route independent of both."""
    g = pair.grid
    q, P = g.q, QExpParams(g.q)
    B = pair.window_or_identity()
    Bh = B.conj().T
    Y = pair.Y.entries
    out = {}
    for name, gen in grid_generators(g):
        C = chi_op(pair.X, gen, q)
        out[f"weyl_{name}"] = operator_norm(Bh @ (C @ Y @ C.conj().T - gen.value(q) * Y) @ B)
    S = pair.X.entries + Y
    FX, FY = fq_on_operator(pair.X, P, g.M), fq_on_operator(pair.Y, P, g.M)
    scale = operator_norm(S @ B)
    out["residual"] = operator_norm(Bh @ (FY @ FX @ S - S @ FY @ FX) @ B) / scale
    out["residual_swapped"] = operator_norm(Bh @ (FX @ FY @ S - S @ FX @ FY) @ B) / scale
    s2 = operator_norm(S) ** 2
    comm = S @ S.conj().T - S.conj().T @ S
    out["sum_defect"] = operator_norm(comm) / s2
    out["sum_defect_windowed"] = operator_norm(Bh @ comm @ B) / s2
    G = Bh @ (S.conj().T @ S) @ B
    out["gamma_distance"] = _mean_lattice_distance(np.linalg.eigvalsh((G + G.conj().T) / 2.0), q)
    sigma = np.linalg.svd(S @ B, compute_uv=False)
    out["gamma_distance_svd"] = _mean_lattice_distance(sigma ** 2, q)
    out["mean_inverse_modulus"] = float(np.mean(1.0 / sigma)) if sigma.size else 0.0
    return out


def _oracle_case(case):
    kind, M = case.split("-")
    g = grid(0.5, int(M))
    if kind == "seeded":
        return random_regular_pair(seeded_block_specs(5, 8, g), g)
    pair = schrodinger_pair(g)
    if kind == "conjugated":
        rng = np.random.default_rng(int(M))
        A = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        pair = conjugate_pair(pair, np.linalg.qr(A)[0])
    return pair


def _close(got: float, want: float) -> bool:
    """1e-12 relative on a field that carries a model quantity; 1e-13
    absolute on one at roundoff (these fields are relative to ||S B|| or
    ||S||^2 already, so that is their own scale)."""
    return abs(got - want) <= (1e-12 * want if want > 1e-10 else 1e-13)


def _check_against_dense(pair: Q2Pair) -> None:
    want = dense_witnesses(pair)
    ident = exp_identity_residual(pair)
    for field in ("residual", "residual_swapped", "sum_defect", "sum_defect_windowed"):
        assert _close(getattr(ident, field), want[field]), field
    # the Weyl residuals are absolute: roundoff on the scale ||Y||
    for name, gen in grid_generators(pair.grid):
        assert abs(weyl_residual(pair, gen) - want[f"weyl_{name}"]) < 1e-13 * pair.Y.norm2
    assert ident.gamma_distance == windowed_modulus_distance(pair)
    _check_gamma_distance(pair, ident.gamma_distance, want)


def _check_gamma_distance(pair: Q2Pair, got: float, want: dict) -> None:
    # The modulus distance is a mean of relative window moduli sigma_i.  A
    # rounding of S (u ||S||) moves it by up to `cond` = u ||S|| mean(1/sigma_i)
    # at first order, 3e-14 at M = 16.  The dense route also forms S*S before
    # compressing it and lands up to 23 cond away from the singular values of
    # S B (2.5e-11 relative, conjugated pair at M = 16); the column route
    # forms (S B)* (S B) and stays within 1.3 cond of them.  So it is checked
    # against the singular values to 1e-12 relative plus 4 cond, and against
    # the dense route to that plus the dense route's own distance from them.
    dense, svd = want["gamma_distance"], want["gamma_distance_svd"]
    cond = 2.0 ** -53 * operator_norm(pair.X.entries + pair.Y.entries) * want["mean_inverse_modulus"]
    assert abs(got - svd) <= 1e-12 * svd + 4 * cond
    assert abs(got - dense) <= 1e-12 * dense + 4 * cond + abs(dense - svd)


ORACLE_CASES = [f"{kind}-{M}" for kind in ("schrodinger", "conjugated") for M in (4, 8, 12, 16)] + ["seeded-8"]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_window_column_witnesses_match_dense_formulas(case):
    _check_against_dense(_oracle_case(case))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_zero_control_matches_dense_formulas(case):
    # Y = 0: F_q(Y) = 1, so every field of the control row sits at roundoff
    pair = _oracle_case(case)
    zero_pair = Q2Pair(Y=NormalMatrix(np.zeros((pair.dim, pair.dim)), Eigensystem.zero_operator(pair.dim)),
                       X=pair.X, grid=pair.grid, window=pair.window_or_identity())
    want = dense_witnesses(zero_pair)
    ident = exp_identity_residual(zero_pair)
    for field in ("residual", "residual_swapped", "sum_defect_windowed"):
        assert abs(getattr(ident, field) - want[field]) < 1e-13, field
    _check_gamma_distance(zero_pair, ident.gamma_distance, want)
    # the sum is X, whose defect is now its certified bound (4u relative)
    assert want["sum_defect"] <= ident.sum_defect < 1e-12


def test_zero_control_takes_no_square_norm(monkeypatch):
    # closure_sum(X, 0) is X, whose norm and defect come from its eigensystem:
    # the control row takes every norm on an n x r or r x r matrix, and so
    # does a Schrodinger sweep step, whose raw norms of S come from its class
    # blocks (see test_block_route_takes_no_square_norm)
    import qazb.opalg
    import qazb.q2pair

    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return operator_norm(a)

    monkeypatch.setattr(qazb.opalg, "operator_norm", recording)
    monkeypatch.setattr(qazb.q2pair, "operator_norm", recording)
    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    verify_q2(pair)
    exp_identity_residual(pair)
    assert shapes and (g.size, g.size) not in shapes
    shapes.clear()
    zero_pair = Q2Pair(Y=NormalMatrix(np.zeros((g.size, g.size)), Eigensystem.zero_operator(g.size)),
                       X=pair.X, grid=g, window=pair.window_or_identity())
    assert exp_identity_residual(zero_pair).residual < 1e-12
    assert shapes and (g.size, g.size) not in shapes


def _dense_copy(pair: Q2Pair) -> Q2Pair:
    """The pair with each member a dense NormalMatrix of its entries and
    eigensystem: the dense route of every witness, the structured route's
    oracle."""
    dense = lambda T: NormalMatrix(T.entries, T.eigensystem)
    return Q2Pair(Y=dense(pair.Y), X=dense(pair.X), grid=pair.grid, window=pair.window_or_identity())


STRUCTURED_CASES = [(q, M) for q in (0.5, 0.7) for M in (4, 8, 12, 16, 20, 24)] + [(0.3, M) for M in (8, 12, 16)]


@pytest.mark.parametrize("q, M", STRUCTURED_CASES, ids=lambda v: str(v))
def test_structured_route_matches_dense_oracle(q, M):
    # Report fields to 1e-9 relative (measured: at most 3.0e-10, q = 0.3 at
    # M = 16, where the dense route's own roundoff has grown); the Weyl
    # rows, roundoff at the window scale on the structured route, are no
    # larger than the dense ones (roundoff at the scale ||Y||) plus 1e-15
    pair = schrodinger_pair(grid(q, M))
    assert isinstance(pair.X, GridOperator) and isinstance(pair.Y, GridOperator)
    dense = _dense_copy(pair)
    got, want = exp_identity_residual(pair), exp_identity_residual(dense)
    for field in ("residual", "residual_swapped", "sum_defect", "gamma_distance"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=0.0), field
    assert abs(got.sum_defect_windowed - want.sum_defect_windowed) < 1e-15
    assert got.degraded == want.degraded
    for _, gen in grid_generators(pair.grid):
        assert weyl_residual(pair, gen) <= weyl_residual(dense, gen) + 1e-15
    mine, theirs = verify_q2(pair), verify_q2(dense)
    assert mine.passed == theirs.passed and mine.kernel_min == theirs.kernel_min


def test_dense_views_equal_the_dense_formulas():
    # corep, roundtrip and the oracles read these: the matrices the pair had
    # when it was built densely, bit for bit
    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    Fh = g.fourier.conj().T
    assert np.array_equal(pair.X.entries, np.diag(g.values))
    assert np.array_equal(pair.Y.entries, (Fh * g.values) @ g.fourier)
    assert np.array_equal(pair.X.basis, np.eye(g.size)) and np.array_equal(pair.Y.basis, Fh)
    assert np.array_equal(pair.Y.eig()[1], g.values)
    zero = GridOperator(g, "zero")
    assert np.array_equal(zero.entries, np.zeros((g.size, g.size)))
    assert np.array_equal(zero.basis, np.eye(g.size)) and zero.is_zero and np.all(zero.eigensystem.zero)
    with pytest.raises(ParameterError):
        GridOperator(g, "diagonal")


@pytest.mark.parametrize("kind", ["position", "fourier", "zero"])
def test_grid_operator_applies_as_its_entries(kind):
    g = grid(0.5, 8)
    T = GridOperator(g, kind)
    rng = np.random.default_rng(9)
    B = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    vals = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    A = T.entries
    V = T.eig()[0]
    for got, want in ((T.apply(B), A @ B), (T.apply_adjoint(B), A.conj().T @ B),
                      (T.spectral_apply(vals, B), V @ (vals[:, None] * (V.conj().T @ B)))):
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
    assert T.norm2 == NormalMatrix(A, T.eigensystem).norm2


def _dense_defect(T: NormalMatrix) -> float:
    return _schur_copy(T).normality_defect


@pytest.mark.parametrize("case", ["schrodinger-8", "schrodinger-16", "schrodinger-24", "conjugated-8"])
def test_certified_defect_bounds_dense_defect(case):
    pair = _oracle_case(case)
    for T in (pair.X, pair.Y):
        assert T.eigensystem is not None
        bound = T.normality_defect
        assert _dense_defect(T) <= bound < T.defect_threshold


def test_failed_certificate_keeps_a_finite_dense_defect():
    g = grid(0.5, 4)
    base = schrodinger_pair(g)
    U = np.eye(g.size) + 1e-3 * np.ones((g.size, g.size))
    conj = conjugate_pair(Q2Pair(Y=base.Y, X=base.X, grid=g), U)
    rows = {r["condition"]: r for r in verify_q2(conj).rows()}
    assert np.isfinite(rows["normality"]["value"])
    assert conj.X.normality_defect == _dense_defect(conj.X)


def _sum(pair: Q2Pair) -> np.ndarray:
    return pair.X.entries + pair.Y.entries


@pytest.mark.parametrize("M", [4, 8, 12, 16, 20, 24])
def test_class_blocks_match_dense_sum_norms(M):
    # the closed-form class blocks against the dense norms of X + Y
    pair = schrodinger_pair(grid(0.5, M))
    dense = NormalMatrix(_sum(pair))
    S = closure_sum(pair.X, pair.Y)
    assert not isinstance(S, NormalMatrix)   # the structured sum, from its class blocks
    norm, defect = S.norm2, S.normality_defect
    assert norm == pytest.approx(dense.norm2, rel=1e-12, abs=0.0)
    assert defect == pytest.approx(dense.normality_defect, rel=1e-12, abs=0.0)
    ident = exp_identity_residual(pair)
    assert ident.sum_defect == pytest.approx(dense.relative_defect, rel=1e-12, abs=0.0)
    assert ident.degraded == dense.degraded


def _off_pattern(pair: Q2Pair, rtol: float) -> Q2Pair:
    """The pair with Y moved by one entry off the class-block pattern, of
    size rtol ||X + Y||_F: row block k' = 3, column block k = 0 (only k' = k
    and k' = k + 1 hold the pattern)."""
    M = pair.grid.M
    Y = pair.Y.entries.copy()
    Y[3 * M, 0] += rtol * np.linalg.norm(_sum(pair))
    return Q2Pair(Y=NormalMatrix(Y), X=pair.X, grid=pair.grid, window=pair.window_or_identity())


@pytest.mark.parametrize("case", ["conjugated-4", "seeded-8", "off-pattern-8"])
def test_sum_off_the_class_pattern_keeps_dense_norms(case):
    # only the members of a grid Schrodinger pair give the class blocks
    if case == "off-pattern-8":
        pair = _off_pattern(schrodinger_pair(grid(0.5, 8)), 1.01 * SPECTRUM_RTOL)
    else:
        pair = _oracle_case(case)
    S = closure_sum(pair.X, pair.Y)
    assert isinstance(S, NormalMatrix) and np.array_equal(S.entries, _sum(pair))
    assert S.eigensystem is None
    ident = exp_identity_residual(pair)
    assert ident.sum_defect == NormalMatrix(_sum(pair)).relative_defect
    assert ident.degraded == NormalMatrix(_sum(pair)).degraded


def test_class_block_certificate_bounds_the_dense_norms():
    # a sum E away from the model sum (one entry off the class pattern)
    # has dense norms within ||E|| (norm) and 4 ||B|| ||E|| + ||E||^2
    # (defect) of the closed-form blocks of the model sum
    base = schrodinger_pair(grid(0.5, 8))
    pair = _off_pattern(base, 0.99 * SPECTRUM_RTOL)
    S = _sum(pair)
    S0 = closure_sum(base.X, base.Y)
    assert not isinstance(S0, NormalMatrix)
    norm, defect = S0.norm2, S0.normality_defect
    e = 0.99 * SPECTRUM_RTOL * np.linalg.norm(_sum(base)) * (1 + 1e-6)   # plus roundoff
    dense = NormalMatrix(S)
    assert abs(norm - dense.norm2) <= e
    assert abs(defect - dense.normality_defect) <= 4 * norm * e + e * e


def test_block_route_takes_no_square_norm(monkeypatch):
    # exp_identity_residual on a Schrodinger pair takes ||S|| and its defect
    # from the M x M class blocks: no 2-norm or SVD of an n x n matrix
    import qazb.opalg
    import qazb.q2pair

    g = grid(0.5, 16)
    pair = schrodinger_pair(g)
    shapes = []

    def recording(a):
        shapes.append(a.shape)
        return operator_norm(a)

    svd, norm = np.linalg.svd, np.linalg.norm

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def recording_norm(a, ord=None, *args, **kwargs):
        if ord == 2:
            shapes.append(np.shape(a))
        return norm(a, ord, *args, **kwargs)

    monkeypatch.setattr(qazb.opalg, "operator_norm", recording)
    monkeypatch.setattr(qazb.q2pair, "operator_norm", recording)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    exp_identity_residual(pair)
    assert (16, 16, 16) in shapes   # the batched SVD of the class blocks
    assert all(s[-2:] != (g.size, g.size) for s in shapes)


def test_zero_control_takes_no_svd(monkeypatch):
    # the Y = 0 control witness of exp-identity is exactly 0 by construction,
    # and operator_norm returns its 0.0 without an SVD; the Schrodinger
    # rows keep their r x r SVDs
    from qazb.q2pair import default_margin

    g = grid(0.5, 12)
    pair = schrodinger_pair(g)
    control = Q2Pair(Y=GridOperator(g, "zero"), X=pair.X, grid=g, window=pair.window)
    r = interior_window(g, default_margin(12)).shape[1]
    shapes = []
    norm = np.linalg.norm

    def recording_norm(a, ord=None, *args, **kwargs):
        if ord == 2:
            shapes.append(np.shape(a))
        return norm(a, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    report = exp_identity_residual(control)
    assert report.residual == report.residual_swapped == 0.0
    assert shapes == []
    assert exp_identity_residual(pair).residual > 0.0
    assert shapes == [(r, r)] * 2
    assert operator_norm(np.zeros((3, 3))) == 0.0 and operator_norm(np.zeros((0, 4))) == 0.0


def test_structured_zero_control_equals_the_dense_one():
    # the Y = 0 control of exp-identity: a structured zero and a dense zero
    # with its eigensystem give the same report, bit for bit
    g = grid(0.5, 12)
    pair = schrodinger_pair(g)
    dense_zero = NormalMatrix(np.zeros((g.size, g.size)), Eigensystem.zero_operator(g.size))
    reports = [exp_identity_residual(Q2Pair(Y=Y, X=pair.X, grid=g, window=pair.window_or_identity()))
               for Y in (GridOperator(g, "zero"), dense_zero)]
    assert reports[0] == reports[1]
    assert closure_sum(pair.X, GridOperator(g, "zero")) is pair.X


def _image_columns(w, image):
    """The image of the window columns written out in the standard basis,
    as an n x r block: term t sends column i to coef[i] e_k[i] (x) phi_l[i]."""
    M = w.grid.M
    modes = _phase_modes(M, np.arange(M)).T   # phi_l as row l
    V = np.zeros((M, M, w.r), complex)
    for t in image:
        V[t.k, :, np.arange(w.r)] += t.coef[:, None] * modes[t.l]
    return V.reshape(M * M, -1)


def _full_index(w, M):
    """The columns of window `w` among those of the margin-0 window (the
    whole mixed basis), in the order of `interior_window`."""
    return (w.inner[:, None] * M + w.inner[None, :]).ravel()


@pytest.mark.parametrize("M", range(4, 26, 2))
def test_closed_form_images_match_dense_products(M):
    # each closed-form image of the window columns, written out in the
    # standard basis, against the dense GammaGrid.fourier and .entries
    # products with the window basis, at every margin: 1e-13 relative to
    # the largest entry of the dense product A P on the whole mixed basis P,
    # the scale of its rounding (on a narrow window, A B itself can be
    # q^(M/2) smaller)
    g = grid(0.5, M)
    pair = schrodinger_pair(g)
    X, Y, F = pair.X.entries, pair.Y.entries, g.fourier
    P = interior_window(g, 0)
    dense = {"F": F @ P, "X": X @ P, "X*": X.conj().T @ P, "Y": Y @ P, "Y*": Y.conj().T @ P}
    dense["S"], dense["S*"] = dense["X"] + dense["Y"], dense["X*"] + dense["Y*"]
    for name, gen in grid_generators(g):
        C = chi_op(pair.X, gen, 0.5)
        dense[f"chi Y chi* ({name})"] = C @ (Y @ (C.conj().T @ P))
        dense[f"gamma Y ({name})"] = gen.value(0.5) * dense["Y"]
    for margin in range(M // 2):
        w = schrodinger_pair(g, margin=margin).window
        # F sends (k, l) to (l, -k), the index map the gathered F_q products use
        one = np.ones(w.r)
        images = {"F": (Image(w.l, -w.k % M, one),), "X": w.position(), "X*": w.position(adjoint=True),
                  "Y": w.momentum(), "Y*": w.momentum(adjoint=True), "S": w.sum(), "S*": w.sum(adjoint=True)}
        for name, gen in grid_generators(g):
            conj, scaled = w.weyl(gen)
            images[f"chi Y chi* ({name})"], images[f"gamma Y ({name})"] = (conj,), (scaled,)
        cols = _full_index(w, M)
        assert np.array_equal(_image_columns(w, (Image(w.k, w.l, one),)), P[:, cols])
        for name, image in images.items():
            err = np.abs(_image_columns(w, image) - dense[name][:, cols]).max(initial=0.0)
            assert err <= 1e-13 * np.abs(dense[name]).max(), (name, margin)


@pytest.mark.parametrize("M", range(4, 26, 2))
def test_class_block_singular_values_match_the_svd(M):
    # the singular values of S B from the window's class blocks against
    # the SVD of the dense S B, at every margin, to 1e-13 relative to ||S||
    # (the scale of the rounding of the dense S)
    g = grid(0.5, M)
    S = closure_sum(*(GridOperator(g, kind) for kind in ("position", "fourier")))
    SP = (S.X.entries + S.Y.entries) @ interior_window(g, 0)
    for margin in range(M // 2):
        w = schrodinger_pair(g, margin=margin).window
        want = np.linalg.svd(SP[:, _full_index(w, M)], compute_uv=False)
        got = np.sort(w.sum_singular_values(S))[::-1]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * S.norm2, margin


def test_closed_form_route_takes_no_grid_transform(monkeypatch):
    # per grid order, exp_identity_residual on the model pair and on its
    # Y = 0 control, and verify_q2, never transform the grid (the witnesses
    # are gathered from one M-point transform of the F_q values); a pair
    # given the same members and the window as a dense basis takes the
    # window-column route
    from qazb.gamma import GammaGrid

    calls = []
    transform = GammaGrid.fourier_columns

    def counting(self, B, adjoint):
        calls.append(B.shape)
        return transform(self, B, adjoint)

    monkeypatch.setattr(GammaGrid, "fourier_columns", counting)
    for M in (8, 12, 16):
        pair = schrodinger_pair(grid(0.5, M))
        calls.clear()
        assert verify_q2(pair).passed
        assert calls == []
        exp_identity_residual(pair)
        assert calls == []
        exp_identity_residual(Q2Pair(Y=GridOperator(pair.grid, "zero"), X=pair.X, grid=pair.grid, window=pair.window))
        assert calls == []
        exp_identity_residual(Q2Pair(Y=pair.Y, X=pair.X, grid=pair.grid, window=pair.window_or_identity()))
        assert len(calls) == 12


@pytest.mark.parametrize("q, M", [(q, M) for q in (0.3, 0.5, 0.7) for M in (4, 6, 8, 12)], ids=lambda v: str(v))
def test_gathered_fq_products_match_dense_products(q, M):
    # the matrix elements of F_q(Y) F_q(X), F_q(X) F_q(Y) and F_q(X) in the
    # mixed basis, gathered from the circulant table, against P* U P with U
    # built densely and P the whole mixed basis (the margin-0 window, column
    # k M + l = e_k (x) phi_l): 1e-13 relative to the largest entry
    g = grid(q, M)
    pair = schrodinger_pair(g)
    params = QExpParams(q)
    FX = fq_on_operator(pair.X, params, M)
    FY = g.fourier.conj().T @ FX @ g.fourier
    P = interior_window(g, 0)
    a, b = np.divmod(np.arange(g.size), M)
    gathered = _fq_products(fq_eigenvalues(pair.X, params, M), M)
    for name, U, dense in zip(("stated", "swapped", "F_q(X)"), gathered, (FY @ FX, FX @ FY, FX)):
        want = P.conj().T @ dense @ P
        got = U(a[:, None], b[:, None], a, b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("q, M", [(q, M) for q in (0.3, 0.5, 0.7) for M in range(8, 25, 4)], ids=lambda v: str(v))
def test_closed_form_control_matches_the_column_route(q, M):
    # the Y = 0 control of exp-identity on its interior window (S = X,
    # F_q(Y) = 1, sigma(S B) = x over the window columns) against the same
    # pair given the window as a dense basis: both at roundoff, the same raw
    # sum (the certified X), the modulus distance at roundoff on both, and
    # Weyl rows of exactly 0 (Y = 0)
    pair = schrodinger_pair(grid(q, M))
    zero = GridOperator(pair.grid, "zero")
    closed, column = (Q2Pair(Y=zero, X=pair.X, grid=pair.grid, window=w)
                      for w in (pair.window, pair.window_or_identity()))
    got, want = exp_identity_residual(closed), exp_identity_residual(column)
    for report in (got, want):
        assert report.residual < 1e-12 and report.residual_swapped < 1e-12
    assert got.sum_defect == want.sum_defect
    assert abs(got.gamma_distance - want.gamma_distance) <= 1e-15
    for _, gen in grid_generators(pair.grid):
        assert weyl_residual(closed, gen) == weyl_residual(column, gen) == 0.0


def test_interior_window_is_given_once():
    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    assert isinstance(pair.window, InteriorWindow)
    assert pair.window_or_identity() is pair.window.basis
    assert np.array_equal(pair.window_or_identity(), interior_window(g, 2))
    with pytest.raises(DimensionError):
        Q2Pair(Y=pair.Y, X=pair.X, grid=g, window=InteriorWindow(grid(0.5, 6), 2))
