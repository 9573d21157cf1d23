"""Coproduct structure, representation building, residuals, round trip."""

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import ExtractionError, ParameterError
from qazb.gamma import grid
from qazb.opalg import NormalMatrix, operator_norm
from qazb.q2pair import (
    Q2Pair,
    grid_generators,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    weyl_residual,
)
from qazb.corep import (
    build_rep,
    chi_kron,
    coproduct,
    corep_residual,
    extract_pair,
    g_family,
    grid_operators,
    load_representation,
    save_representation,
)


def test_grid_operator_convention():
    # chi(a, gen) b chi(a, gen)* = gen * b on the interior window
    from qazb.opalg import chi_op
    from qazb.q2pair import interior_window

    g = grid(0.5, 8)
    b, a = grid_operators(g)
    W = interior_window(g, 2)
    for _, gen in grid_generators(g):
        C = chi_op(a, gen, 0.5)
        D = C @ b @ C.conj().T - gen.value(0.5) * b
        assert operator_norm(W @ D @ W) < 1e-10


def test_coproduct_spectrum_of_delta_a():
    from conftest import multiset_close

    g = grid(0.5, 4)
    delta_a, _ = coproduct(g)
    want = np.array([x * y for x in g.values for y in g.values])
    assert multiset_close(np.linalg.eigvals(delta_a), want, tol=1e-10)


def test_coproduct_coassociative_on_a():
    g = grid(0.5, 2)
    _, _ = coproduct(g)
    b, a = grid_operators(g)
    lhs = np.kron(np.kron(a, a), a)
    rhs = np.kron(a, np.kron(a, a))
    assert operator_norm(lhs - rhs) < 1e-13 * operator_norm(lhs)


def test_coproduct_coassociative_on_b():
    # both composites expand to the same three Kronecker terms; the only
    # difference is float association order
    g = grid(0.5, 2)
    b, a = grid_operators(g)
    eye = np.eye(g.size)
    lhs = (
        np.kron(np.kron(a, a), b)
        + np.kron(np.kron(a, b), eye)
        + np.kron(np.kron(b, eye), eye)
    )
    rhs = (
        np.kron(a, np.kron(a, b))
        + np.kron(a, np.kron(b, eye))
        + np.kron(b, np.kron(eye, eye))
    )
    assert operator_norm(lhs - rhs) < 1e-13 * operator_norm(rhs)


def test_coproduct_defect_reported():
    g = grid(0.5, 4)
    _, delta_b = coproduct(g)
    assert delta_b.normality_defect > 0


def test_coproduct_size_guard():
    with pytest.raises(ParameterError):
        coproduct(grid(0.5, 10))


def test_build_classical_representation():
    g = grid(0.5, 4)
    gamma0 = g.point(1, 0)   # the point q
    pair = random_regular_pair([("trivial", gamma0)], seed=0, g=g)
    rep = build_rep(pair, g)
    assert rep.unitarity_defect < 1e-10
    # diagonalised by the a-eigenbasis with joint spectrum chi(gamma0, .),
    # which for gamma0 = q is the phase of the grid point
    got = np.linalg.eigvals(rep.U)
    want = np.array([pt.phase() for pt in g.points])
    key = lambda z: (np.round(z.real, 8), np.round(z.imag, 8))
    assert all(
        abs(x - y) < 1e-10
        for x, y in zip(sorted(got, key=key), sorted(want, key=key))
    )
    r = corep_residual(rep, samples=8, seed=3)
    assert r.residual < 1e-9


def test_two_trivial_blocks_residual():
    g = grid(0.5, 4)
    pair = random_regular_pair(
        [("trivial", g.point(0, 1)), ("trivial", g.point(3, 2))], seed=0, g=g
    )
    rep = build_rep(pair, g)
    r = corep_residual(rep, samples=8, seed=3)
    assert r.residual < 1e-9


def test_schrodinger_block_pinned():
    pinned = load_pinned()
    g = grid(0.5, 4)
    pair = schrodinger_pair(g, margin=1)
    rep = build_rep(pair, g)
    assert rep.unitarity_defect <= 1.5 * pinned["corep_unitarity"]["4"]
    r = corep_residual(rep, samples=32, seed=1, margin=1)
    assert r.residual == pytest.approx(pinned["corep_residual"]["4"], rel=1e-9)


def test_g_family_unitary_commuting():
    g = grid(0.5, 8)
    pair = random_regular_pair(seeded_block_specs(3, 4, g), seed=3, g=g)
    rep = build_rep(pair, g)
    G = g_family(rep)
    eye = np.eye(4)
    assert max(operator_norm(Gi @ Gi.conj().T - eye) for Gi in G) < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(10):
        i, j = rng.integers(0, len(G), 2)
        assert operator_norm(G[i] @ G[j] - G[j] @ G[i]) < 1e-9


def test_extract_trivial_block_exact():
    g = grid(0.5, 8)
    gamma0 = g.point(2, 5)
    pair = random_regular_pair([("trivial", gamma0)], seed=0, g=g)
    rep = build_rep(pair, g)
    ext, report = extract_pair(rep)
    assert operator_norm(ext.Y.entries - np.zeros((1, 1))) < 1e-10
    assert abs(ext.X.entries[0, 0] - gamma0.value(0.5)) < 1e-10
    assert report.completeness < 1e-9
    assert not report.degenerate


def test_roundtrip_seed7():
    g = grid(0.5, 8)
    specs = seeded_block_specs(7, 4, g)
    pair = random_regular_pair(specs, seed=7, g=g)
    rep = build_rep(pair, g)
    ext, report = extract_pair(rep, seed=7)
    assert operator_norm(ext.Y.entries - pair.Y.entries) < 1e-8
    assert operator_norm(ext.X.entries - pair.X.entries) < 1e-8
    assert report.g_unitarity < 1e-9
    assert report.g_commutation < 1e-9
    assert report.completeness < 1e-9


def test_weyl_residual_zero_pair():
    g = grid(0.5, 8)
    pair = Q2Pair(
        Y=NormalMatrix(np.zeros((2, 2))),
        X=NormalMatrix(np.diag([0.5, 1.0 + 0j])),
        grid=g,
        margin=2,
    )
    assert max(weyl_residual(pair, gen) for _, gen in grid_generators(g)) == 0.0


def test_weyl_residual_detects_corruption():
    g = grid(0.5, 8)
    gamma0 = g.point(1, 0)
    pair = random_regular_pair([("trivial", gamma0)], seed=0, g=g)
    corrupted = Q2Pair(
        Y=NormalMatrix(pair.Y.entries + np.eye(1)),
        X=pair.X,
        grid=g,
        margin=pair.margin,
    )
    lower = max(abs(gen.value(0.5) - 1.0) for _, gen in grid_generators(g))
    assert max(weyl_residual(corrupted, gen) for _, gen in grid_generators(g)) >= 0.99 * lower


def test_save_load_bit_exact(tmp_path):
    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(1, 1))], seed=0, g=g)
    rep = build_rep(pair, g)
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    loaded = load_representation(str(path))
    assert np.array_equal(loaded.U, rep.U)
    assert loaded.grid.M == 4 and loaded.h_dim == 1


def test_load_rejects_unknown_version(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(ParameterError):
        load_representation(str(path))


def test_corep_residual_needs_pair(tmp_path):
    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(1, 1))], seed=0, g=g)
    rep = build_rep(pair, g)
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    loaded = load_representation(str(path))
    with pytest.raises(ExtractionError):
        corep_residual(loaded, samples=2, seed=0)


def test_chi_kron_unitary():
    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(2, 1))], seed=0, g=g)
    V = chi_kron(pair.X, g)
    assert operator_norm(V @ V.conj().T - np.eye(16)) < 1e-12


def test_chi_kron_position_blocks_match_chi():
    from qazb.gamma import chi

    g = grid(0.5, 4)
    alphas = [g.point(2, 1), g.point(3, 2), g.point(1, 3)]
    pair = random_regular_pair([("trivial", a) for a in alphas], seed=0, g=g)
    d, n = len(alphas), g.size
    IF = np.kron(np.eye(d), g.fourier)
    Z = IF.conj().T @ chi_kron(pair.X, g) @ IF
    for gi, gp in enumerate(g.points):
        want = np.diag([chi(a, gp) for a in alphas])
        assert np.abs(Z[gi::n, gi::n] - want).max() < 1e-13
