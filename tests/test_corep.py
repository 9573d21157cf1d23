"""Coproduct structure, representation building, residuals, round trip."""

import os

import numpy as np
import pytest

from qazb.corpus import load_pinned
from qazb.errors import DimensionError, DomainError, ExtractionError, ParameterError
from qazb.gamma import grid
from qazb.opalg import NormalMatrix, operator_norm
from qazb.qexp import invert_fq_family
from qazb.q2pair import (
    Q2Pair,
    conjugate_pair,
    corep_margin,
    grid_generators,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    weyl_residual,
)
from qazb.corep import (
    DENSE_U_COPIES,
    build_rep,
    chi_kron,
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
    B = interior_window(g, 2)
    for _, gen in grid_generators(g):
        C = chi_op(a, gen, 0.5)
        D = C @ b @ C.conj().T - gen.value(0.5) * b
        assert operator_norm(B.conj().T @ D @ B) < 1e-10


def test_coproduct_spectrum_of_delta_a():
    from conftest import multiset_close

    g = grid(0.5, 4)
    delta_a, _ = dense_coproduct(g)
    want = np.array([x * y for x in g.values for y in g.values])
    assert multiset_close(np.linalg.eigvals(delta_a), want, tol=1e-10)


def test_coproduct_coassociative_on_a():
    g = grid(0.5, 2)
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
    _, delta_b = dense_coproduct(g)
    assert NormalMatrix(delta_b).normality_defect > 0


def test_build_classical_representation():
    g = grid(0.5, 4)
    gamma0 = g.point(1, 0)   # the point q
    pair = random_regular_pair([("trivial", gamma0)], g)
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
        [("trivial", g.point(0, 1)), ("trivial", g.point(3, 2))], g
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
    assert r.residual == pytest.approx(pinned["corep_residual_window"]["4"], rel=1e-9)
    # the key recorded on the full-tensor draw, replayed on that draw
    from conftest import full_tensor_coords
    from qazb.corep import _window_residual

    old = _window_residual(rep, full_tensor_coords(rep, 32, 1, 1), margin=1)
    assert old.residual == pytest.approx(pinned["corep_residual"]["4"], rel=1e-9)


def test_g_family_unitary_commuting():
    g = grid(0.5, 8)
    pair = random_regular_pair(seeded_block_specs(3, 4, g), g)
    rep = build_rep(pair, g)
    G = g_family(rep)
    eye = np.eye(4)
    assert max(operator_norm(Gi @ Gi.conj().T - eye) for Gi in G) < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(10):
        i, j = rng.integers(0, len(G), 2)
        assert operator_norm(G[i] @ G[j] - G[j] @ G[i]) < 1e-9


def loop_extraction(rep, seed):
    """The per-position, per-eigenvector and per-shift loops that the array
    form of extract_pair replaced, kept as the reference: the family G as a
    list, the data rows of the joint eigenvectors, bt, at and the
    completeness."""
    g = rep.grid
    d, n, M = rep.h_dim, g.size, g.M
    Ut = rep.U.reshape(d, n, d, n)
    G = [Ut[:, gi, :, :].sum(axis=2) for gi in range(n)]
    rng = np.random.default_rng(seed)
    rng.integers(0, n, size=(8, 2))
    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Vhat, _ = NormalMatrix(sum(c * Gi for c, Gi in zip(coeff, G))).eig()
    rows = []
    for i in range(d):
        v = Vhat[:, i]
        data = np.array([v.conj() @ (Gi @ v) for Gi in G])
        rows.append(data / np.maximum(np.abs(data), 1e-15))
    Esum = np.zeros((d, d), dtype=complex)
    a_t = np.zeros((d, d), dtype=complex)
    karr, jarr = np.arange(n) // M, np.arange(n) % M
    for di in range(n):
        dk, dj = di // M, di % M
        tgt = ((karr + dk) % M) * M + (jarr + dj) % M
        E = np.zeros((d, d), dtype=complex)
        for gi in range(n):
            E += G[gi].conj().T @ Ut[:, gi, :, tgt[gi]]
        E /= n
        Esum += E
        a_t += g.values[di] * E
    return G, np.array(rows), a_t, operator_norm(Esum - np.eye(d))


@pytest.mark.parametrize("M, d", [(8, 8), (4, 16)])
def test_extraction_arrays_equal_the_loops(monkeypatch, M, d):
    import qazb.corep

    g = grid(0.5, M)
    rep = build_rep(random_regular_pair(seeded_block_specs(5, d, g), g), g)
    seen = []

    def spy(data, *args):
        seen.append(data)
        return invert_fq_family(data, *args)

    monkeypatch.setattr(qazb.corep, "invert_fq_family", spy)
    ext, report = extract_pair(rep, seed=5)
    G, rows, a_t, completeness = loop_extraction(rep, 5)
    assert np.array_equal(g_family(rep), np.array(G))
    assert len(seen) == 1 and np.array_equal(seen[0], rows)
    assert np.array_equal(ext.X.entries, a_t)
    assert report.completeness == completeness


def test_roundtrip_takes_one_candidate_table(monkeypatch):
    # one fq_lattice call builds the representation, one the candidate
    # table, and at most one per eigenvector gives the exact residual (none
    # for a zero eigenvalue): at most d + 2 for d = 8, where a search per
    # candidate and eigenvector made 513
    import sys

    from qazb.cli import main
    from qazb.qexp import fq_lattice

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fq_lattice(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qazb") and getattr(mod, "fq_lattice", None) is fq_lattice:
            monkeypatch.setattr(mod, "fq_lattice", counted)
    assert main(["--out", os.devnull, "roundtrip", "--h-dim", "8"]) == 0
    assert 0 < len(calls) <= 8 + 2


def test_extract_trivial_block_exact():
    g = grid(0.5, 8)
    gamma0 = g.point(2, 5)
    pair = random_regular_pair([("trivial", gamma0)], g)
    rep = build_rep(pair, g)
    ext, report = extract_pair(rep)
    assert operator_norm(ext.Y.entries - np.zeros((1, 1))) < 1e-10
    assert abs(ext.X.entries[0, 0] - gamma0.value(0.5)) < 1e-10
    assert report.completeness < 1e-9
    assert not report.degenerate


def test_roundtrip_seed7():
    g = grid(0.5, 8)
    specs = seeded_block_specs(7, 4, g)
    pair = random_regular_pair(specs, g)
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
    )
    assert max(weyl_residual(pair, gen) for _, gen in grid_generators(g)) == 0.0


def test_weyl_residual_detects_corruption():
    g = grid(0.5, 8)
    gamma0 = g.point(1, 0)
    pair = random_regular_pair([("trivial", gamma0)], g)
    corrupted = Q2Pair(
        Y=NormalMatrix(pair.Y.entries + np.eye(1)),
        X=pair.X,
        grid=g,
    )
    lower = max(abs(gen.value(0.5) - 1.0) for _, gen in grid_generators(g))
    assert max(weyl_residual(corrupted, gen) for _, gen in grid_generators(g)) >= 0.99 * lower


def test_save_load_bit_exact(tmp_path):
    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(1, 1))], g)
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
    pair = random_regular_pair([("trivial", g.point(1, 1))], g)
    rep = build_rep(pair, g)
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    loaded = load_representation(str(path))
    with pytest.raises(ExtractionError):
        corep_residual(loaded, samples=2, seed=0)


def test_chi_kron_unitary():
    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(2, 1))], g)
    V = chi_kron(pair.X, g)
    assert operator_norm(V @ V.conj().T - np.eye(16)) < 1e-12


@pytest.mark.parametrize(
    "M, idx",
    [(4, [(2, 1), (3, 2), (1, 3)]), (6, [(5, 0), (0, 3), (2, 5), (4, 1)])],
    ids=["M4", "M6"],
)
def test_chi_kron_position_blocks_match_chi(M, idx):
    from qazb.gamma import chi

    g = grid(0.5, M)
    alphas = [g.point(k, j) for k, j in idx]
    pair = random_regular_pair([("trivial", a) for a in alphas], g)
    d, n = len(alphas), g.size
    IF = np.kron(np.eye(d), g.fourier)
    Z = IF.conj().T @ chi_kron(pair.X, g) @ IF
    for gi, gp in enumerate(g.points):
        want = np.diag([chi(a, gp) for a in alphas])
        assert np.abs(Z[gi::n, gi::n] - want).max() < 1e-13


def dense_reference_u(pair, g):
    """U = W (IF Z IF*) with W and Z block diagonal over grid positions,
    materialised densely slot by slot: the reference for build_rep."""
    from qazb.gamma import snap_spectrum
    from qazb.qexp import QExpParams, fq_lattice

    d, n = pair.dim, g.size
    Vb, lam = pair.Y.eig()
    nb, tb, zb, _ = snap_spectrum(lam, g.q, scale=pair.Y.norm2, M=g.M)
    k, theta = g.times(nb, tb)
    fqv = fq_lattice(k.ravel(), theta.ravel(), QExpParams(g.q),
                     zero=np.broadcast_to(zb, k.shape).ravel()).reshape(k.shape)
    Va, lam = pair.X.eig()
    na, ta, _, _ = snap_spectrum(lam, g.q, scale=pair.X.norm2, M=g.M)
    gk, gtheta = g.lattice
    chiv = np.exp(1j * (np.outer(gk, ta) + np.outer(gtheta, na)))
    W = np.zeros((d * n, d * n), dtype=complex)
    Z = np.zeros((d * n, d * n), dtype=complex)
    for gi in range(n):
        W[gi::n, gi::n] = (Vb * fqv[gi]) @ Vb.conj().T
        Z[gi::n, gi::n] = (Va * chiv[gi]) @ Va.conj().T
    IF = np.kron(np.eye(d), g.fourier)
    return W @ (IF @ Z @ IF.conj().T)


def dense_coproduct(g):
    """Delta(a) = a (x) a and Delta(b) = a (x) b + b (x) I as dense
    M^4-dimensional matrices: the reference for the grid legs of S'."""
    b, a = grid_operators(g)
    return np.kron(a, a), np.kron(a, b) + np.kron(b, np.eye(g.size))


CASES = ["schrodinger-4", "schrodinger-6", "seeded-d8-8", "conjugated-4", "swapped-4", "xx-4"]


def case_pair(case):
    """The grid and pair of a CASES id: the Schrodinger pair at M, a
    seeded d = 8 pair at M = 8, the Schrodinger pair at M = 4 conjugated
    by a seeded unitary (so that at has no identity basis), or the two
    failing pairs of `verify-pair` at M, whose bt has the identity basis:
    "swapped" (bt = X, at = Y) and "xx" (bt = at = X)."""
    kind, *rest = case.split("-")
    if kind == "schrodinger":
        g = grid(0.5, int(rest[0]))
        return g, schrodinger_pair(g)
    if kind in ("swapped", "xx"):
        g = grid(0.5, int(rest[0]))
        base = schrodinger_pair(g)
        return g, Q2Pair(Y=base.X, X=base.X if kind == "xx" else base.Y, grid=g, window=base.window)
    if kind == "conjugated":
        g = grid(0.5, int(rest[0]))
        rng = np.random.default_rng(8)
        A = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        return g, conjugate_pair(schrodinger_pair(g), np.linalg.qr(A)[0])
    g = grid(0.5, 8)
    return g, random_regular_pair(seeded_block_specs(5, 8, g), g)


@pytest.mark.parametrize("case", CASES)
def test_build_rep_matches_dense_reference(case):
    g, pair = case_pair(case)
    U = build_rep(pair, g).U
    assert np.abs(U - dense_reference_u(pair, g)).max() < 1e-13


def on_h(A, v):
    """A matrix A on the H leg of a (d, ...) tensor."""
    return (A @ v.reshape(A.shape[1], -1)).reshape((A.shape[0],) + v.shape[1:])


def standard_read(ops):
    """The read of H in the standard basis from V_b coordinates (the
    `exit` argument of a Q that ends in the standard basis)."""
    return ops.Vb


def dense_leg(A, v, leg, adjoint=False):
    """A (or A*) on H (x) grid leg `leg` of a (d, n, n) tensor, as a dense
    (d n) x (d n) product: the reference for the block leg operators."""
    d, n, _ = v.shape
    m = A.conj().T if adjoint else A
    w = v if leg == 1 else v.transpose(0, 2, 1)
    w = (m @ w.reshape(d * n, n)).reshape(d, n, n)
    return w if leg == 1 else w.transpose(0, 2, 1)


@pytest.mark.parametrize("case", CASES)
def test_leg_operators_match_dense_route(case):
    from qazb.corep import _LegOps

    g, pair = case_pair(case)
    rep = build_rep(pair, g)
    ops = _LegOps(rep)
    U, V = rep.U, chi_kron(pair.X, g)
    d, n = pair.dim, g.size
    rng = np.random.default_rng(0)
    v = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    vh = dense_leg(V, dense_leg(V, v, 1, adjoint=True), 2, adjoint=True)
    q = dense_leg(U, dense_leg(U, vh, 2), 1)
    # the factored chain on full coordinates: P = 1 on H, the positions on both grid legs
    y = (ops.Fh @ v.transpose(1, 0, 2).reshape(n, -1)).reshape(n, d, n)
    factored = ops.q_factored(y, ops.entry(np.eye(d)), ops.fold(np.eye(n)), ops.exit(standard_read(ops)))
    checks = [
        (ops.u12(v), dense_leg(U, v, 1)),
        (ops.u13(v), dense_leg(U, v, 2)),
        (ops.vh12(v), dense_leg(V, v, 1, adjoint=True)),
        (ops.vh13(v), dense_leg(V, v, 2, adjoint=True)),
        (factored.transpose(1, 0, 2), q),
    ]
    for got, want in checks:
        assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


def eigen_bt(pair, v):
    """bt v on the H leg from the eigen-data of bt, V (lam * (V* v)): for the
    Schrodinger bt F* (x (F v)) with the dense F, which keeps the accuracy of
    the FFT route, where a product with the materialised entries does not."""
    V, lam = pair.Y.eig()
    w = v.reshape(pair.dim, -1)
    return (V @ (lam[:, None] * (V.conj().T @ w))).reshape(v.shape)


def literal_s(pair, g, v):
    """S' = bt (x) a (x) b + bt (x) b (x) I on a full (d, n, n) tensor, leg
    by leg: the oracle of the thin S'."""
    _, a = grid_operators(g)
    w = eigen_bt(pair, v)
    return (a @ w) * g.values + g.values[:, None] * w


def thin_bases(g, margin):
    """The window basis Bg of a grid leg, the leg-2 basis [b Bg | Bg] of
    S'v, and the leg-2 projection [b-bar Bg | Bg] of Qv."""
    from qazb.q2pair import interior_window

    Bg = interior_window(g, margin)
    b = g.values[:, None]
    return Bg, np.hstack([b * Bg, Bg]), np.hstack([b.conj() * Bg, Bg])


def window_draw(rep, margin, seed):
    """One window sample of a corep residual: its coordinates c (r_h, r, r)
    and the full (d, n, n) tensor Bh (x) Bg (x) Bg c."""
    from qazb.corep import _window_bases

    Bh, Bg = _window_bases(rep, margin)
    shape = (Bh.shape[1], Bg.shape[1], Bg.shape[1])
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return c, on_h(Bh, (Bg @ c) @ Bg.T)


@pytest.mark.parametrize("case", ["schrodinger-4", "schrodinger-6", "conjugated-4"])
def test_s_norm_matches_dense_coproduct(case):
    # S' = bt (x) Delta(b), with Delta(b) dense on grid (x) grid: the literal
    # S' of the oracle on a full tensor, and on window samples also the
    # ||S'v|| that the residual takes from triangular factors
    from qazb.corep import _CommutatorReads, _LegOps, _window_bases

    g, pair = case_pair(case)
    rep = build_rep(pair, g)
    reads = _CommutatorReads(_LegOps(rep), *_window_bases(rep, None))
    d, n = pair.dim, g.size
    _, delta_b = dense_coproduct(g)
    rng = np.random.default_rng(0)
    full = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    for c, v in [(None, full)] + [window_draw(rep, None, seed) for seed in range(3)]:
        want = eigen_bt(pair, v).reshape(d, n * n) @ delta_b.T
        assert np.linalg.norm(literal_s(pair, g, v).reshape(d, n * n) - want) < 1e-13 * np.linalg.norm(want)
        if c is not None:
            assert abs(reads.s_norms(c[None])[0] - np.linalg.norm(want)) < 1e-13 * np.linalg.norm(want)


def literal_q(ops, v):
    """Q as the literal chain of the four legs on a full tensor."""
    return ops.u12(ops.u13(ops.vh13(ops.vh12(v))))


THIN_CASES = CASES + [f"schrodinger-{M}-margin{m}" for M in (4, 6, 8) for m in range(M // 2)]


def thin_case(case):
    """The grid, pair and margin of a THIN_CASES id."""
    from qazb.q2pair import default_margin

    if "margin" in case:
        _, M, m = case.split("-")
        g, margin = grid(0.5, int(M)), int(m.removeprefix("margin"))
        return g, schrodinger_pair(g, margin=margin), margin
    g, pair = case_pair(case)
    return g, pair, default_margin(g.M)


@pytest.mark.parametrize("case", THIN_CASES)
def test_thin_route_matches_literal_legs(case):
    # Q through its input and output factors on window coordinates, as
    # corep_residual takes it, against the literal legs and S' on full
    # tensors: Q(S'v) read by Bh* on H and by Bg* on leg 2, Qv read by
    # Bh* bt and [b-bar Bg | Bg]*, and Qv on the whole leg 2 with H in the
    # standard basis; leg 1 is left on its n positions
    from qazb.corep import _CommutatorReads, _LegOps, _window_bases

    g, pair, margin = thin_case(case)
    rep = build_rep(pair, g)
    ops = _LegOps(rep)
    Bh, Bg = _window_bases(rep, margin)
    reads = _CommutatorReads(ops, Bh, Bg)
    _, _, Pv = thin_bases(g, margin)
    c, v = window_draw(rep, margin, 1)
    sv = literal_s(pair, g, v)
    y, ys = reads.entries(c)
    Bhh = Bh.conj().T
    checks = [
        (ops.q_factored(ys, reads.Rs, reads.Ks, reads.Ts), on_h(Bhh, literal_q(ops, sv) @ Bg.conj())),
        (ops.q_factored(y, reads.Rv, reads.Kv, reads.Tv), on_h(Bhh @ pair.Y.entries, literal_q(ops, v) @ Pv.conj())),
        (ops.q_factored(y, reads.Rv, ops.fold(Bg), ops.exit(standard_read(ops))), literal_q(ops, v)),
    ]
    for got, want in checks:
        assert np.linalg.norm(got.transpose(1, 0, 2) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("case", THIN_CASES)
def test_window_reads_match_literal_legs(case):
    # the reads the residual takes per sample against the literal legs and
    # S' on full tensors: the window reads of Q(S'v) and S'(Qv) and the
    # scale ||S'v|| (the kernel branch's Q on the whole leg 2 is the third
    # check of test_thin_route_matches_literal_legs)
    from qazb.corep import _CommutatorReads, _LegOps, _window_bases

    g, pair, margin = thin_case(case)
    rep = build_rep(pair, g)
    ops = _LegOps(rep)
    Bh, Bg = _window_bases(rep, margin)
    reads = _CommutatorReads(ops, Bh, Bg)
    r_h, r = Bh.shape[1], Bg.shape[1]
    c, v = window_draw(rep, margin, 1)
    sv = literal_s(pair, g, v)

    def coords(x):   # the window coordinates (r, r_h, r) of a full tensor, leg 1 first
        return (Bg.conj().T @ on_h(Bh.conj().T, x) @ Bg.conj()).transpose(1, 0, 2)

    qsv, sqv = reads.terms(c)
    checks = [
        (qsv.reshape(r, r_h, r), coords(literal_q(ops, sv))),
        (sqv.reshape(r, r_h, r), coords(literal_s(pair, g, literal_q(ops, v)))),
        (reads.s_norms(c[None])[0], np.array(np.linalg.norm(sv))),
    ]
    for got, want in checks:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def literal_residual(rep, samples, seed, margin=None):
    """(commutation, kernel_identity) of the corep residual on full (d, n,
    n) tensors, with Q the literal chain of the four legs and S' leg by
    leg, over the same seeded window coordinates, each embedded in a full
    tensor: the oracle of the thin route."""
    from qazb.corep import _LegOps
    from qazb.q2pair import corep_margin, interior_window

    ops = _LegOps(rep)
    pair, g = rep.pair, rep.grid
    d, n = rep.h_dim, g.size
    Bg = interior_window(g, corep_margin(g.M) if margin is None else margin)
    Bh = pair.window_or_identity()

    def on_h(A, v):
        return (A @ v.reshape(A.shape[1], -1)).reshape((A.shape[0],) + v.shape[1:])

    def coords(v):
        return (Bg.conj().T @ on_h(Bh.conj().T, v)) @ Bg.conj()

    Vb, zero = pair.Y.eig()[0], pair.Y.lattice(g.q)[2]
    Pker = (Vb * zero) @ Vb.conj().T
    shape = (samples, Bh.shape[1], Bg.shape[1], Bg.shape[1])
    rng = np.random.default_rng(seed)
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    comms, sscale, kern = [], 0.0, 0.0
    for c in C:
        v = on_h(Bh, (Bg @ c) @ Bg.T)
        assert v.shape == (d, n, n)
        v /= np.linalg.norm(v)
        sv = literal_s(pair, g, v)
        comms.append(np.linalg.norm(coords(literal_q(ops, sv) - literal_s(pair, g, literal_q(ops, v)))))
        sscale = max(sscale, np.linalg.norm(sv))
        if zero.any():
            w = on_h(Pker, v)
            w /= np.linalg.norm(w)
            kern = max(kern, np.linalg.norm(literal_q(ops, w) - w))
    return (max(comms) / sscale if sscale > 0 else 0.0), kern


@pytest.mark.parametrize(
    "case", ["classical", "seeded-d8-8", "conjugated-4", "schrodinger-4", "schrodinger-6"]
)
def test_residual_through_fused_q_matches_literal_legs(case):
    if case == "classical":   # bt = 0: every sample lies in ker(bt)
        g = grid(0.5, 4)
        pair = random_regular_pair([("trivial", g.point(1, 0))], g)
    else:
        g, pair = case_pair(case)
    rep = build_rep(pair, g)
    fused = corep_residual(rep, samples=8, seed=2)
    comm, kern = literal_residual(rep, samples=8, seed=2)
    assert fused.samples == 8
    for field, want in (("commutation", comm), ("kernel_identity", kern),
                        ("residual", max(comm, kern))):
        got = getattr(fused, field)
        assert abs(got - want) <= max(1e-13 * abs(want), 1e-14), field
    if case in ("classical", "seeded-d8-8"):
        assert kern > 0.0
    else:
        assert comm > 1e-4


def recording_type():
    """An ndarray subclass Recorded and the list of the shapes of every
    array made from a Recorded one: products, views, elementwise results
    and the results of numpy functions."""
    shapes = []

    class Recorded(np.ndarray):
        def __array_finalize__(self, obj):
            shapes.append(self.shape)

        def __array_function__(self, func, types, args, kwargs):
            out = super().__array_function__(func, types, args, kwargs)
            return out.view(Recorded) if type(out) is np.ndarray else out

    return Recorded, shapes


def test_commutation_branch_stays_thin():
    # on the M = 8 Schrodinger representation at margin 2 (width 4) the
    # per-sample chain of the window-column route makes no array from a
    # sample (from its window coordinates c) with more than d n 2r entries
    # (r the columns of the window basis), so none has the n^2 r^2
    # entries of an operator on the window of the two grid legs
    from qazb.corep import _column_residual, _window_bases

    g = grid(0.5, 8)
    rep = build_rep(schrodinger_pair(g), g)
    Bh, Bg = _window_bases(rep, 2)
    d, n, r = rep.h_dim, g.size, Bg.shape[1]
    Recorded, shapes = recording_type()
    rng = np.random.default_rng(1)
    shape = (4, Bh.shape[1], r, r)
    C = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).view(Recorded)
    report = _column_residual(rep, C, Bh, Bg)
    assert report.commutation > 0.0 and report.kernel_identity == 0.0
    assert (n, d, 2 * r) in shapes   # Q(S'v) entered on H, leg 2 in [b Bg | Bg]
    assert max(np.prod(s) for s in shapes) <= d * n * 2 * r < n * n * r * r


def test_window_draw_stays_thin(monkeypatch):
    # the seeded draw of a Schrodinger M = 8 residual at margin 2 (width 4,
    # gathered) is samples r_h r^2 complex window coordinates, which the
    # band of L takes as one (r_h r^2, samples) array, and off the kernel
    # branch (bt has no kernel here) no array made from them has the size
    # of a (d, n, n) tensor
    from qazb.corep import _window_bases

    g = grid(0.5, 8)
    rep = build_rep(schrodinger_pair(g), g)
    d, n = rep.h_dim, g.size
    Bh, Bg = _window_bases(rep, 2)
    r_h, r = Bh.shape[1], Bg.shape[1]
    assert not rep.pair.Y.lattice(g.q)[2].any()
    draws = []
    Recorded, shapes = recording_type()
    default_rng = np.random.default_rng

    class RecordingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            draws.append(size)
            return self.rng.standard_normal(size).view(Recorded)

    monkeypatch.setattr(np.random, "default_rng", RecordingRng)
    report = corep_residual(rep, samples=8, seed=1, margin=2)
    assert draws == [(8, r_h, r, r)] * 2   # real and imaginary parts
    assert report.commutation > 0.0 and report.kernel_identity == 0.0
    assert (r_h * r * r, 8) in shapes and max(np.prod(s) for s in shapes) < d * n * n


def test_all_kernel_pair_skips_commutation(monkeypatch):
    # bt = 0: S' = 0 on every sample, so the commutation is 0.0 without a
    # read of Q(S'v) or Qv.  On the window-column route the kernel branch
    # runs its one Q per sample, read on the whole leg 2 (K of n columns,
    # from r window coordinates); the classical pair's residual is gathered,
    # with no such read, and matches it to 1e-15 on the same draw
    from qazb.corep import _column_residual, _CommutatorReads, _LegOps, _window_bases

    g = grid(0.5, 4)
    rep = build_rep(random_regular_pair([("trivial", g.point(1, 0))], g), g)
    calls = []
    for cls, name in ((_CommutatorReads, "__init__"), (_LegOps, "q_factored")):
        def recording(*args, _step=getattr(cls, name), _name=name):
            calls.append((_name, args[-2].shape[-1] if _name == "q_factored" else None))
            return _step(*args)

        monkeypatch.setattr(cls, name, recording)
    report = corep_residual(rep, samples=8, seed=2)
    assert calls == []
    assert report.commutation == 0.0 and report.residual == report.kernel_identity
    Bh, Bg = _window_bases(rep, None)
    rng = np.random.default_rng(2)
    shape = (8, 1, Bg.shape[1], Bg.shape[1])
    column = _column_residual(rep, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), Bh, Bg)
    assert column.commutation == 0.0
    assert column.residual == column.kernel_identity > 0.0
    assert calls == [("q_factored", g.size)] * 8
    assert abs(report.kernel_identity - column.kernel_identity) <= 1e-15


@pytest.mark.parametrize("case", ["schrodinger-4", "swapped-4", "conjugated-4"])
def test_corep_reads_no_dense_pair_member(monkeypatch, case):
    # corep takes its pair through the bases and applications of the
    # members: with their dense entries unreadable, the residual on the
    # Schrodinger pair (bt applied by FFTs), the swapped one (bt on the
    # identity basis) and a conjugated one matches the one taken with them
    from qazb.opalg import GridOperator

    g, pair = case_pair(case)
    want = corep_residual(build_rep(pair, g), samples=4)

    def refuse(self):
        raise AssertionError("a pair member's entries were read")

    for cls in (GridOperator, NormalMatrix):
        monkeypatch.setattr(cls, "entries", property(refuse))
    got = corep_residual(build_rep(pair, g), samples=4)
    assert got == want and got.residual > 1e-4


CERT_CASES = CASES + ["classical", "two-trivial"]


def cert_pair(case):
    """The grid and pair of a CERT_CASES id: a CASES pair, the classical
    pair of `corep` or two trivial blocks, at M = 4."""
    if case not in ("classical", "two-trivial"):
        return case_pair(case)
    g = grid(0.5, 4)
    points = [(1, 0)] if case == "classical" else [(0, 1), (3, 2)]
    return g, random_regular_pair([("trivial", g.point(*p)) for p in points], g)


@pytest.mark.parametrize("case", CERT_CASES)
def test_unitarity_certificate_bounds_dense_defect(case):
    g, pair = cert_pair(case)
    rep = build_rep(pair, g)
    dense = operator_norm(rep.U.conj().T @ rep.U - np.eye(rep.dim))
    assert rep.unitarity_defect < 1e-12
    assert dense <= rep.unitarity_defect


def block_defect(blocks):
    """max ||B* B - 1||_2 over a stack of square blocks, or of one matrix,
    by batched SVD: the oracle of the certificate's factor bounds."""
    return float(np.max(np.linalg.norm(blocks.conj().swapaxes(-1, -2) @ blocks - np.eye(blocks.shape[-1]),
                                       2, axis=(-2, -1))))


@pytest.mark.parametrize("case", CERT_CASES)
def test_factor_bounds_cover_block_defects(case):
    # each factor's bound from the eigen-data is at least the defect of
    # its block stack (W_g = V_b diag(w_g) V_b*, Z_a = V_a diag(z_a) V_a*)
    # or of F, measured by SVD
    from qazb.corep import _basis_defect, _factor_defect
    from qazb.opalg import eigen_stack

    g, pair = cert_pair(case)
    rep = build_rep(pair, g)
    for T, vals in ((pair.Y, rep.fq_values), (pair.X, rep.chi_values)):
        assert block_defect(eigen_stack(T.eig()[0], vals)) <= _factor_defect(T.basis, vals) < 1e-12
    assert block_defect(g.fourier) <= _basis_defect(g.fourier) < 1e-12


def test_build_rep_holds_no_block_stack():
    # the tracemalloc peak of building the M = 8 Schrodinger representation
    # (n = d = 64) stays below one complex (n, d, d) block stack
    import tracemalloc

    g = grid(0.5, 8)
    pair = schrodinger_pair(g)
    pair.Y.eig(), pair.X.eig(), g.fourier   # the pair's dense bases and F, built before the count
    n = d = g.size
    tracemalloc.start()
    try:
        build_rep(pair, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * d * d


def test_residual_leaves_u_unmaterialised():
    g = grid(0.5, 6)
    rep = build_rep(schrodinger_pair(g, margin=2), g)
    corep_residual(rep, samples=4, seed=1, margin=2)
    assert "U" not in vars(rep)


def test_dense_u_refused_beyond_physical_memory(monkeypatch):
    import qazb.corep
    from qazb.cli import main

    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 1024)
    g = grid(0.5, 4)
    rep = build_rep(schrodinger_pair(g), g)
    with pytest.raises(ParameterError, match=f"needs {16 * DENSE_U_COPIES * 256 ** 2} bytes.* 1024 bytes"):
        rep.U
    assert "U" not in vars(rep)
    assert main(["-M", "4", "roundtrip", "--h-dim", "1"]) == 2


def test_corep_refused_beyond_physical_memory(monkeypatch, capsys):
    # on the window-column route, for the residual 32 bytes a window coordinate of the samples (the
    # draw and its temporaries), 208 an entry of a (d, n, r) tensor (the
    # four factor stacks of Q and nine more per sample) and 144 one of a
    # (d, r, r) tensor; the build holds no (n, d, d) block and is not
    # counted; the CLI checks every grid order before it runs one
    import qazb.corep
    from qazb.cli import main
    from qazb.corep import check_corep_memory, check_memory

    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 2048)
    with pytest.raises(ParameterError, match=f"needs {32 * 32 * 4 ** 3 + 208 * 16 * 4 + 144 * 16} bytes for its residual samples.* 2048 bytes"):
        check_memory(1, 16, 4, 32, 4)
    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 10 ** 6)   # M = 4 fits, M = 6 not
    check_memory(16, 16, 4, 32, 4)
    with pytest.raises(ParameterError, match=f"needs {32 * 32 * 16 ** 3 + 208 * 16 * 16 * 16 + 144 * 16 * 16 * 16} bytes for its residual"):
        check_memory(16, 16, 16, 32, 16)   # M = 4 at margin 0
    # M = 26 at margin 11 (width 4, r = 16 a grid leg, d = n = 676) fits
    # 1.6 * 10^9 bytes and is refused below them, naming the chain's count
    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 16 * 10 ** 8)
    check_memory(676, 676, 16, 32, 16)
    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 15 * 10 ** 8)
    with pytest.raises(ParameterError, match=f"needs 1549930496 bytes for its residual samples on the chain route.* {15 * 10 ** 8} bytes"):
        check_memory(676, 676, 16, 32, 16)
    # the CLI's grid rows take the gathered residual and check its working
    # set (check_corep_memory), never check_memory: at M = 6, margin 2
    # (width 2), 32 samples, the classical row's 64 bytes a sample and entry
    # of M^3 w (884736) is the larger; M = 4 (273408) fits 5 * 10^5 bytes
    # and M = 6 does not, so nothing is run
    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 5 * 10 ** 5)
    check_corep_memory(4, 1, 32)
    assert main(["corep", "--M-list", "4,6"]) == 2
    out, err = capsys.readouterr()
    need = 64 * 32 * 6 ** 3 * 2
    assert out == "" and f"needs {need} bytes for its gathered residual samples" in err and f"{5 * 10 ** 5} bytes" in err
    monkeypatch.setattr(qazb.corep, "_physical_memory", lambda: 2 * 10 ** 6)

    def not_consulted(*args):
        raise AssertionError("a grid row consulted check_memory")

    monkeypatch.setattr(qazb.corep, "check_memory", not_consulted)
    assert main(["corep", "--M-list", "4,6"]) == 0


def test_memory_figure_is_the_available_memory(monkeypatch):
    # every refusal reads MemAvailable, and the machine's
    # total only where /proc/meminfo cannot be read; the refusal names the
    # figure it read
    import qazb.corep
    from qazb.corep import _physical_memory, refuse_beyond_memory

    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    with open("/proc/meminfo") as fh:
        assert any(line.startswith("MemAvailable:") for line in fh)
    assert 0 < _physical_memory() <= total
    with pytest.raises(ParameterError, match=r"than the \d+ bytes of physical memory available \(MemAvailable\)"):
        refuse_beyond_memory(total + 1, "a run", "arrays")

    def unreadable(*args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(qazb.corep, "open", unreadable, raising=False)
    assert _physical_memory() == total
    with pytest.raises(ParameterError, match=rf"than the {total} bytes of physical memory in total"):
        refuse_beyond_memory(total + 1, "a run", "arrays")


def test_chain_takes_samples_as_views_of_the_draw(monkeypatch):
    # on the per-sample chain of the window-column route (M = 8, margin 2:
    # width 4) every sample the
    # commutator reads receive is a view of the draw C, and a sample with
    # ||c|| < 1e-12 is skipped
    from qazb.corep import _column_residual, _CommutatorReads, _window_bases

    g = grid(0.5, 8)
    rep = build_rep(schrodinger_pair(g), g)
    Bh, Bg = _window_bases(rep, 2)
    shape = (4, Bh.shape[1], Bg.shape[1], Bg.shape[1])
    rng = np.random.default_rng(1)
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    C[2] = 0.0
    seen = []
    terms = _CommutatorReads.terms

    def recorded(self, c):
        seen.append(c)
        return terms(self, c)

    monkeypatch.setattr(_CommutatorReads, "terms", recorded)
    report = _column_residual(rep, C, Bh, Bg)
    assert report.commutation > 0.0 and len(seen) == 3
    assert all(np.shares_memory(c, C) and np.any(c) for c in seen)


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("d", 2, DimensionError),
        ("d", 0, DomainError),
        ("u_shape", [8, 32], DimensionError),
        ("u_data_b64", "nan", DomainError),
        ("u_data_b64", "short", DimensionError),
        ("u_data_b64", "scale", DomainError),
    ],
)
def test_load_rejects_tampered_file(tmp_path, field, value, error):
    import base64
    import json

    g = grid(0.5, 4)
    pair = random_regular_pair([("trivial", g.point(1, 1))], g)
    path = tmp_path / "rep.json"
    save_representation(build_rep(pair, g), str(path))
    payload = json.loads(path.read_text())
    if field == "u_data_b64":
        U = np.frombuffer(base64.b64decode(payload[field]), dtype=complex).copy()
        if value == "short":
            U = U[:-1]
        elif value == "nan":
            U[3] = np.nan
        else:   # one finite entry scaled: no longer unitary
            U[np.argmax(np.abs(U))] *= 1.001
        value = base64.b64encode(U.tobytes()).decode("ascii")
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(error):
        load_representation(str(path))


@pytest.mark.parametrize("case", ["seeded-d8-8", "trivial+schrodinger-4"])
def test_kernel_projection_matches_dense_projector(monkeypatch, case):
    # the kernel branch projects the window basis Bh onto ker(bt) by the
    # zero mask of bt in V_b coordinates; the input factors R = entry(P)
    # it gives q_factored match those of the dense (V_b mask) V_b* Bh, and
    # its leg-1 entries are F* Bg c.  In the seeded pair the window lies
    # in ker(bt); next to a P = 4 block it does not.
    from qazb.corep import _LegOps, _window_bases

    if case == "seeded-d8-8":
        g, pair = case_pair(case)
    else:
        g = grid(0.5, 8)
        pair = random_regular_pair([("trivial", g.point(1, 0)), ("schrodinger", 4)], g)
    Vb, zero = pair.Y.eig()[0], pair.Y.lattice(g.q)[2]
    assert zero.any() and not zero.all() and not np.array_equal(pair.Y.basis, np.eye(pair.dim))
    Pker = (Vb * zero) @ Vb.conj().T
    inputs = []
    q_factored = _LegOps.q_factored

    def record(self, y, R, K, T):
        if K.shape[-1] == g.size:   # the kernel branch: leg 2 read on its n positions
            inputs.append((y.copy(), R.copy()))
        return q_factored(self, y, R, K, T)

    monkeypatch.setattr(_LegOps, "q_factored", record)
    rep = build_rep(pair, g)
    corep_residual(rep, samples=4, seed=3)
    Bh, Bg = _window_bases(rep, None)
    r = Bg.shape[1]
    rng = np.random.default_rng(3)
    shape = (4, Bh.shape[1], r, r)
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want_R = _LegOps(rep).entry(Pker @ Bh)
    assert len(inputs) == 4
    for c, (y, R) in zip(C, inputs):
        x = on_h(Bh, Bg @ c)   # the sample, leg 2 in coordinates Bg
        assert np.linalg.norm(on_h(Pker, x)) > 0.1 * np.linalg.norm(x)
        assert np.linalg.norm(R - want_R) <= 1e-13 * np.linalg.norm(want_R)
        want_y = (g.fourier.conj() @ Bg @ c.transpose(1, 0, 2).reshape(r, -1)).reshape(y.shape)
        assert np.linalg.norm(y - want_y) <= 1e-13 * np.linalg.norm(want_y)


def test_corep_residual_refuses_empty_window():
    # at M = 4 a margin of 2 leaves no interior column: every sample would
    # project to 0 and the residual would read 0 with nothing checked
    g = grid(0.5, 4)
    rep = build_rep(schrodinger_pair(g), g)
    with pytest.raises(ParameterError, match="margin 2 leaves no interior window at M=4"):
        corep_residual(rep, margin=2)


def gathered_l(rep, margin=None, table=None):
    """The gathered L on the windows of a corep residual as a dense matrix
    (rows and columns in the layout of c) from its slots, from the F_q
    table of the representation unless `table` is given."""
    from qazb.corep import _GatheredWindow, _residual_windows
    from qazb.q2pair import _fq_orbit_table

    wh, wg = _residual_windows(rep, margin)
    gathered = _GatheredWindow(_fq_orbit_table(rep.fq_values, rep.grid.M) if table is None else table, wh, wg)
    n = len(gathered.points[0])
    L = np.zeros((n, n), dtype=gathered.slots[0][2].dtype)
    for rows, cols, vals in gathered.slots:
        L[rows, cols] = vals
    return L


def extended_table(rep):
    """The F_q orbit table of `_fq_orbit_table` from the same computed
    values, by an M-point inverse DFT in extended precision."""
    M = rep.grid.M
    f = rep.fq_values.reshape(M, M, M, M)[:, 0].astype(np.clongdouble)
    m = np.arange(M)
    angle = 2 * np.arccos(np.longdouble(-1)) * (np.outer(m, m) % M) / M
    return ((f @ (np.cos(angle) + 1j * np.sin(angle))) / M).transpose(1, 0, 2)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("M", [4, 6, 8])
def test_gathered_l_matches_chain(q, M):
    # the band of L gathered from the F_q table against L built column by
    # column from the per-sample chain on unit coordinates (rows reordered
    # to the layout of c), both against the gather in extended precision
    # from the same F_q values: the gathered L is within 1e-12 (Frobenius,
    # relative) of both, or of the chain's L within twice the chain's own
    # roundoff where that is larger (3.3e-12 at q = 0.3, M = 8, whose L is
    # 1.5e-3 against O(1) terms)
    from qazb.corep import _CommutatorReads, _LegOps, _window_bases

    g = grid(q, M)
    rep = build_rep(schrodinger_pair(g, margin=corep_margin(M)), g)
    Bh, Bg = _window_bases(rep, None)
    r_h, r = Bh.shape[1], Bg.shape[1]
    reads = _CommutatorReads(_LegOps(rep), Bh, Bg)
    chain = np.empty((r_h * r * r,) * 2, dtype=complex)
    for j, e in enumerate(np.eye(r_h * r * r)):
        qsv, sqv = reads.terms(e.reshape(r_h, r, r).astype(complex))
        chain[:, j] = (qsv - sqv).reshape(r, r_h, r).transpose(1, 0, 2).ravel()
    gathered = gathered_l(rep)
    exact = gathered_l(rep, table=extended_table(rep))

    def dist(A, B):
        return float(np.linalg.norm((A - B).astype(complex)) / np.linalg.norm(B.astype(complex)))

    assert gathered.shape == (r_h * r * r,) * 2 and np.count_nonzero(gathered) > r_h * r * r
    assert dist(gathered, exact) <= 1e-12
    assert dist(gathered, chain) <= max(1e-12, 2 * dist(chain, exact))


# the Schrodinger THIN_CASES ids of width 2 (r = 4 columns a grid leg) and
# M = 10 at margin 3 (width 4, r_h = r = 16)
GATHERED_CASES = ["schrodinger-4", "schrodinger-6", "schrodinger-4-margin1", "schrodinger-6-margin2",
                  "schrodinger-8-margin3", "schrodinger-10-margin3"]


@pytest.mark.parametrize("case", GATHERED_CASES)
def test_gathered_residual_matches_chain(case):
    # the gathered residual against the per-sample chain of the
    # window-column route on the same 32 samples, one of them all zero,
    # which both skip
    from qazb.corep import _column_residual, _window_bases, _window_residual

    g, pair, margin = thin_case(case)
    rep = build_rep(pair, g)
    Bh, Bg = _window_bases(rep, margin)
    shape = (32, Bh.shape[1], Bg.shape[1], Bg.shape[1])
    rng = np.random.default_rng(5)
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    C[7] = 0.0
    chain = _column_residual(rep, C, Bh, Bg)
    gathered = _window_residual(rep, C, margin)
    assert gathered.samples == chain.samples == 32
    assert gathered.kernel_identity == chain.kernel_identity == 0.0
    for field in ("commutation", "residual"):
        want = getattr(chain, field)
        assert want > 1e-4 and abs(getattr(gathered, field) - want) <= 1e-12 * want, field


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("M", [4, 6, 8, 12])
def test_classical_gather_matches_kernel_identity(q, M):
    # the classical pair (H = C, bt = 0): Q - 1 on ker bt (x) window read on
    # both whole grid legs from the computed F_q(0) and chi values, against
    # the window-column route's per-sample kernel branch on the same draw,
    # one sample of which is 0 and skipped by both
    from qazb.corep import _column_residual, _window_bases, _window_residual

    g = grid(q, M)
    rep = build_rep(random_regular_pair([("trivial", g.point(1, 0))], g), g)
    Bh, Bg = _window_bases(rep, None)
    rng = np.random.default_rng(M)
    shape = (8, 1, Bg.shape[1], Bg.shape[1])
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    C[3] = 0.0
    column = _column_residual(rep, C, Bh, Bg)
    gathered = _window_residual(rep, C)
    assert gathered.commutation == column.commutation == 0.0 and gathered.samples == 8
    assert gathered.residual == gathered.kernel_identity < 1e-15
    assert abs(gathered.kernel_identity - column.kernel_identity) <= 1e-15


def test_gathered_route_makes_no_n_row_array():
    # at width 2 (M = 24, margin 11: n = d = 576 and 64 window points) the
    # tracemalloc peak of the gathered Schrodinger residual, 32 samples,
    # stays below one complex array of n rows over the window's points,
    # where the window-column route holds (n, d, r) tensors
    import tracemalloc

    g = grid(0.5, 24)
    rep = build_rep(schrodinger_pair(g, margin=11), g)
    corep_residual(rep, margin=11)   # numpy's one-time allocations
    tracemalloc.start()
    try:
        report = corep_residual(rep, margin=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.commutation > 0.0
    assert peak < 16 * g.size * 64


def test_gathered_route_reads_no_dense_view(monkeypatch):
    # once the representation is built, the gathered residuals of the
    # Schrodinger and the classical pair read no dense Fourier matrix, no
    # window basis of a grid leg, no dense member of the pair and no
    # eigenbasis of a grid member: of the pair only bt's zero mask, and the
    # F_q and chi values build_rep holds
    from qazb.gamma import GammaGrid
    from qazb.opalg import GridOperator
    from qazb.q2pair import InteriorWindow

    g = grid(0.5, 6)
    reps = [build_rep(schrodinger_pair(g), g), build_rep(random_regular_pair([("trivial", g.point(1, 0))], g), g)]
    want = [corep_residual(rep, samples=4) for rep in reps]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense view was read")

    monkeypatch.setattr(GammaGrid, "fourier", property(refuse))
    monkeypatch.setattr(InteriorWindow, "basis", property(refuse))
    for name in ("entries", "eigensystem", "basis"):
        monkeypatch.setattr(GridOperator, name, property(refuse))
    monkeypatch.setattr(GridOperator, "eig", refuse)
    monkeypatch.setattr(NormalMatrix, "entries", property(refuse))
    assert [corep_residual(rep, samples=4) for rep in reps] == want
