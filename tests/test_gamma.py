"""Lattice points, bicharacter laws, and the grid Fourier unitary."""

import math

import numpy as np
import pytest

from qazb.errors import DimensionError, DomainError, ParameterError
from qazb.gamma import (
    GammaPoint,
    chi,
    fourier_apply,
    grid,
    make_point,
    rational_point,
    snap_point,
    snap_spectrum,
    zero_point,
)


def test_make_point_examples():
    one = make_point(0, 0.0)
    assert one.value(0.5) == 1 and not one.is_singular
    assert make_point(-2, math.pi).is_singular          # the point -q^-2
    assert not make_point(-1, math.pi).is_singular      # odd exponent
    assert not make_point(2, math.pi).is_singular       # positive exponent


def test_angle_reduction_keeps_lattice_angles_exact():
    # 3 pi reduces to exactly pi, so the singularity predicate still fires
    assert make_point(-2, 3 * math.pi).is_singular
    assert make_point(0, 2 * math.pi).theta == 0.0
    p = make_point(1, math.pi / 2)
    assert 0.0 <= p.theta < 2 * math.pi


def test_make_point_rejects_non_finite():
    with pytest.raises(DomainError):
        make_point(0, math.inf)


def test_chi_phase_example():
    # chi(gamma, q) is the phase of gamma
    g1 = make_point(3, math.pi / 2)
    q_pt = make_point(1, 0.0)
    assert abs(chi(g1, q_pt) - 1j) < 1e-15


def test_chi_at_identity_is_exact():
    one = make_point(0, 0.0)
    for k, th in [(3, 1.2), (-5, 4.0), (0, 0.3)]:
        assert chi(make_point(k, th), one) == 1


def test_chi_closed_form_value():
    # q=0.5: gamma=(1, pi/2), gamma'=(2, 0) -> e^{i(2 * pi/2)} = -1
    val = chi(make_point(1, math.pi / 2), make_point(2, 0.0))
    assert abs(val - (-1)) < 1e-12


def test_chi_symmetric_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g1 = make_point(int(rng.integers(-6, 7)), float(rng.uniform(0, 2 * math.pi)))
        g2 = make_point(int(rng.integers(-6, 7)), float(rng.uniform(0, 2 * math.pi)))
        assert chi(g1, g2) == chi(g2, g1)


def test_chi_multiplicative_on_random_triples():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        pts = [
            make_point(int(rng.integers(-6, 7)), float(rng.uniform(0, 2 * math.pi)))
            for _ in range(3)
        ]
        lhs = chi(pts[0] * pts[1], pts[2])
        rhs = chi(pts[0], pts[2]) * chi(pts[1], pts[2])
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_chi_well_defined_mod_two_pi():
    # theta -> theta + 2 pi leaves chi unchanged exactly for angles whose
    # shift is representable (pi/2 -> 5 pi/2 is exact in binary64)
    other = make_point(2, 1.0)
    a = chi(make_point(3, math.pi / 2), other)
    b = chi(make_point(3, math.pi / 2 + 2 * math.pi), other)
    assert a == b


def test_chi_zero_point_rejected():
    with pytest.raises(DomainError):
        chi(zero_point(), make_point(0, 0.0))


def test_chi_modulus_character_identity():
    # chi(gamma, q^{it}) = |gamma|^{it}: with gamma' = (0, t'), the closed
    # form e^{i k t'} must match exp(i (ln|gamma|/ln q) t')
    q = 0.5
    for k in (-3, 1, 4):
        gam = make_point(k, 1.1)
        for tp in (0.3, 2.0):
            lhs = chi(gam, make_point(0, tp))
            rhs = np.exp(1j * (math.log(q**k) / math.log(q)) * tp)
            assert abs(lhs - rhs) < 1e-12


def test_point_group_law_and_inverse():
    p1 = make_point(2, 1.0)
    p2 = make_point(-1, 5.0)
    prod = p1 * p2
    assert prod.k == 1
    inv = p1.inverse()
    assert (p1 * inv).k == 0 and abs((p1 * inv).theta) < 1e-15
    assert (p1 * zero_point()).zero


def test_grid_m2_points():
    g = grid(0.5, 2)
    # c(0)=0, c(1)=-1, index order (k, j); lattice data is exact, complex
    # values carry only sin(pi) roundoff
    assert [(p.k, p.theta) for p in g.points] == [(0, 0.0), (0, math.pi), (-1, 0.0), (-1, math.pi)]
    assert np.allclose([p.value(0.5) for p in g.points], [1, -1, 2, -2], atol=1e-15)


def test_grid_m4_moduli():
    g = grid(0.5, 4)
    moduli = sorted({abs(p.value(0.5)) for p in g.points})
    assert moduli == [0.5, 1.0, 2.0, 4.0]   # q, 1, q^-1, q^-2


def test_grid_parameter_errors():
    with pytest.raises(ParameterError):
        grid(1.5, 4)
    with pytest.raises(ParameterError):
        grid(0.5, 5)
    with pytest.raises(ParameterError):
        grid(0.5, 0)


def test_grid_q_guard_warns():
    with pytest.warns(UserWarning, match="dynamic range"):
        grid(0.05, 4)


def test_grid_pairing_matches_chi_exactly_m4():
    g = grid(0.5, 4)
    for i1 in g.index_pairs():
        for i2 in g.index_pairs():
            assert g.pairing(i1, i2) == chi(g.point(*i1), g.point(*i2))


def test_grid_pairing_matches_chi_m8():
    g = grid(0.5, 8)
    worst = max(
        abs(g.pairing(i1, i2) - chi(g.point(*i1), g.point(*i2)))
        for i1 in g.index_pairs()
        for i2 in g.index_pairs()
    )
    assert worst < 1e-12


@pytest.mark.parametrize("M", [2, 4, 8, 16])
def test_fourier_unitary(M):
    g = grid(0.5, M)
    F = g.fourier
    eye = np.eye(M * M)
    assert np.linalg.norm(F @ F.conj().T - eye, 2) < 1e-12
    assert np.linalg.norm(F.conj().T @ F - eye, 2) < 1e-12


def test_fourier_delta_to_constant():
    g = grid(0.5, 4)
    v = np.zeros(16)
    v[0] = 1.0   # delta at index (0, 0): kernel is identically 1 there
    out = fourier_apply(g, v)
    assert np.allclose(out, np.full(16, 1 / 4), atol=1e-14)


def test_fourier_norm_preserving_100_vectors():
    g = grid(0.5, 8)
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert abs(np.linalg.norm(fourier_apply(g, v)) / np.linalg.norm(v) - 1) < 1e-12


def test_fourier_inverse_roundtrip():
    g = grid(0.5, 8)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    w = g.fourier.conj().T @ fourier_apply(g, v)
    assert np.abs(w - v).max() < 1e-12


def test_fourier_fft_route_agrees():
    g = grid(0.5, 8)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.abs(g.fourier_apply(v) - g.fourier_apply_fft(v)).max() < 1e-12


def test_fourier_conjugation_preserves_spectrum():
    g = grid(0.5, 4)
    rng = np.random.default_rng(6)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    D = np.diag(d)
    A = g.fourier.conj().T @ D @ g.fourier
    got = np.sort_complex(np.linalg.eigvals(A))
    want = np.sort_complex(d)
    assert np.abs(got - want).max() < 1e-11


def test_fourier_dimension_mismatch():
    g = grid(0.5, 4)
    with pytest.raises(DimensionError):
        fourier_apply(g, np.ones(7))


def test_snap_point_roundtrip_and_rejection():
    q = 0.5
    p = make_point(-3, 2.0)
    assert snap_point(p.value(q), q) == GammaPoint(-3, p.theta)
    assert snap_point(0j, q).zero
    with pytest.raises(DomainError):
        snap_point(1.1 + 0j, q)


def test_grid_metadata():
    assert grid(0.5, 8).metadata() == {"q": 0.5, "M": 8}


@pytest.mark.parametrize("M", [4, 6, 8])
def test_grid_product_is_bit_equal_to_point_products(M):
    g = grid(0.5, M)
    for beta in list(g.points) + [rational_point(2, 1, 3), make_point(1, 0.3)]:
        k, theta = beta * g
        ref = [beta * p for p in g.points]
        assert np.array_equal(k, [p.k for p in ref])
        assert np.array_equal(theta, [p.theta for p in ref])
    # snapped spectra carry no fractions: grid angles are recognised as j/M
    k, theta = g.times([p.k for p in g.points], [p.theta for p in g.points])
    for i, beta in enumerate(g.points):
        ref = [p * beta for p in g.points]
        assert np.array_equal(k[:, i], [p.k for p in ref])
        assert np.array_equal(theta[:, i], [p.theta for p in ref])


def test_zero_point_times_a_grid_is_a_domain_error():
    with pytest.raises(DomainError):
        zero_point() * grid(0.5, 4)


@pytest.mark.parametrize("M", [4, 6, 8])
def test_snap_spectrum_returns_exact_grid_angles(M):
    from qazb.q2pair import schrodinger_pair

    g = grid(0.5, M)
    want = [(p.k, p.theta) for p in g.points]
    n, theta, zero, _ = snap_spectrum(g.values, 0.5, M=M)
    assert not zero.any()
    assert list(zip(n.tolist(), theta.tolist())) == want
    # the Fourier-conjugate spectrum misses the grid angles by a few ulps unsnapped
    lam = schrodinger_pair(g).Y.eig()[1]
    n, theta, _, _ = snap_spectrum(lam, 0.5, M=M)
    assert sorted(zip(n.tolist(), theta.tolist())) == sorted(want)
    assert np.count_nonzero(theta == math.pi) == M
