"""Schrodinger pairs, the windowed conjugation relation, the exponential
identity witness, and block-built pairs."""

import math

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import ParameterError
from qazb.gamma import grid, make_point
from qazb.opalg import NormalMatrix, chi_op, operator_norm
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


def test_interior_window_is_projector():
    g = grid(0.5, 8)
    P = interior_window(g, 2)
    assert operator_norm(P @ P - P) < 1e-12
    assert operator_norm(P - P.conj().T) < 1e-13


def test_pair_with_itself_fails_weyl():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    pair = Q2Pair(Y=base.X, X=base.X, grid=g, margin=2, window=base.window)
    report = verify_q2(pair, tol=1e-10)
    assert not report.passed and not report.weyl_pass
    # scaling a nonzero operator changes it: residual is |1 - gamma| ||WXW||
    q_gen = g.point(1, 0)
    lower = abs(1 - q_gen.value(0.5)) * operator_norm(base.window @ base.X.entries @ base.window)
    assert report.weyl_residuals["q"] >= 0.99 * lower


def test_swapped_roles_match_inverse_relation():
    g = grid(0.5, 8)
    base = schrodinger_pair(g, margin=2)
    swapped = Q2Pair(Y=base.X, X=base.Y, grid=g, margin=2, window=base.window)
    assert not verify_q2(swapped, tol=1e-10).weyl_pass
    # conjugating by chi(Y, gamma) translates the spectrum the other way
    q_gen = g.point(1, 0)
    C = chi_op(base.Y, q_gen, 0.5)
    W = base.window
    D_inv = C @ base.X.entries @ C.conj().T - base.X.entries / q_gen.value(0.5)
    assert operator_norm(W @ D_inv @ W) < 1e-10


def test_exp_identity_zero_control():
    g = grid(0.5, 8)
    base = schrodinger_pair(g)
    zero_pair = Q2Pair(
        Y=NormalMatrix(np.zeros((64, 64))), X=base.X, grid=g,
        margin=base.margin, window=base.window,
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
