"""Record the model constants replayed by the acceptance suite.

Runs the reference sweeps (exponential-identity witness, spectrum
statistics, corepresentation residuals, inversion separation certificate)
at the blessed configuration q = 0.5 and freezes the results into
``src/qazb/data/pinned.json``.  Acceptance tests treat these values as
envelopes (x1.5 safety factor) and monotonicity witnesses.

Each constant is cross-checked by a second computation route where one
exists (FFT versus dense Fourier for the grid unitary, the closed-form
window basis versus the dense window projector D (F* D F), the supplied
eigensystems of the Schrodinger pair versus their Schur forms, the
window-column witnesses versus their n x n formulas, the closed-form
images of the window columns, the Weyl rows, the gathered witnesses
of the Schrodinger pair and the Y = 0 control row versus the dense
products, the structured Schrodinger pair versus its
dense copy on every exp-identity and verify-pair field, eigh versus
schur for self-adjoint spectra, the candidate table versus the
per-candidate families for the separation certificate, the window reads
of Q S' and S' Q and the scale ||S'v|| that the corepresentation residual
takes through the factors of Q per sample, and its window matrix
gathered in the mixed basis, versus the dense U, V and coproduct
applied leg by leg, the unitarity certificate of a built representation
versus its dense defect, the corepresentation residual on
the full-tensor draw that `corep_residual` was recorded on versus its
stored value); a disagreement aborts the run
before anything is written.  `corep_residual_window` is the residual on
the window-coordinate draw that `corep_residual` takes now.

Usage: python3 tools/make_pinned.py [out_json]
"""

import json
import sys
import warnings

import numpy as np

warnings.filterwarnings("ignore")

from qazb.corep import (
    _CommutatorReads,
    _GatheredWindow,
    _LegOps,
    _residual_windows,
    _window_bases,
    _window_residual,
    build_rep,
    chi_kron,
    corep_residual,
    grid_operators,
)
from qazb.corpus import load_pinned
from qazb.gamma import grid, snap_spectrum
from qazb.opalg import SPECTRUM_RTOL, GridOperator, NormalMatrix, chi_op, operator_norm
from qazb.q2pair import (
    Image,
    Q2Pair,
    _fq_orbit_table,
    _phase_modes,
    corep_margin,
    default_margin,
    exp_identity_residual,
    grid_generators,
    interior_window,
    schrodinger_pair,
    verify_q2,
    weyl_residual,
)
from qazb.qexp import QExpParams, candidate_separation, default_candidates, fq_family, fq_on_operator

Q = 0.5


def check_fourier_routes(g) -> None:
    rng = np.random.default_rng(0)
    v = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    F = g.fourier
    d = max(np.abs(F @ v - g.fourier_columns(v, False)).max(),
            np.abs(F.conj().T @ v - g.fourier_columns(v, True)).max())
    if d > 1e-11:
        raise RuntimeError(f"fourier route disagreement {d} at M={g.M}")


def check_separation_routes(g) -> None:
    """The separation certificate from the candidate table against the
    same minimum over the per-candidate fq_family rows, to 1e-12 relative
    (the table shares one truncation length between its rows)."""
    params = QExpParams(g.q)
    rows = np.stack([fq_family(b, g, params) for b in default_candidates(g)])
    want = min(float(np.min(np.sum(np.abs(rows[i + 1:] - rows[i]) ** 2, axis=1)))
               for i in range(len(rows) - 1))
    got = candidate_separation(g, params)
    if abs(got - want) > 1e-12 * want:
        raise RuntimeError(f"separation route disagreement {abs(got - want) / want} at M={g.M}")


def check_structured_routes(pair) -> None:
    """The structured Schrodinger pair (M-point FFTs, closed-form class
    blocks, structural certificate) against its dense NormalMatrix copy on
    every exp-identity and verify-pair field: 1e-9 relative on the
    exp-identity fields (sum_defect_windowed, at roundoff, to 1e-15
    absolute), the Weyl rows at most the dense ones plus 1e-15 (they are
    roundoff at the window scale on the structured route, at the scale
    ||Y|| on the dense one), the same kernel row and pass flags, and on
    both routes a certified defect within its threshold and a spectrum
    row within SPECTRUM_RTOL."""
    g = pair.grid
    dense = Q2Pair(Y=NormalMatrix(pair.Y.entries, pair.Y.eigensystem),
                   X=NormalMatrix(pair.X.entries, pair.X.eigensystem), grid=g, window=pair.window_or_identity())
    got, want = exp_identity_residual(pair), exp_identity_residual(dense)
    for name in ("residual", "residual_swapped", "sum_defect", "gamma_distance"):
        a, b = getattr(got, name), getattr(want, name)
        if abs(a - b) > 1e-9 * abs(b):
            raise RuntimeError(f"structured route disagreement {abs(a - b) / abs(b)} on {name} at M={g.M}")
    if abs(got.sum_defect_windowed - want.sum_defect_windowed) > 1e-15 or got.degraded != want.degraded:
        raise RuntimeError(f"structured route disagreement on the windowed defect at M={g.M}")
    mine, theirs = verify_q2(pair), verify_q2(dense)
    for name, r in mine.weyl_residuals.items():
        if r > theirs.weyl_residuals[name] + 1e-15:
            raise RuntimeError(f"structured weyl_{name} {r} above the dense {theirs.weyl_residuals[name]} at M={g.M}")
    for report in (mine, theirs):
        if not (report.normality_pass and max(report.spectrum_dist_x, report.spectrum_dist_y) <= SPECTRUM_RTOL):
            raise RuntimeError(f"normality or spectrum row failed at M={g.M}")
    if mine.kernel_min != theirs.kernel_min or mine.passed != theirs.passed:
        raise RuntimeError(f"structured route disagreement on the kernel row or the verdict at M={g.M}")


def image_columns(w, image) -> np.ndarray:
    """The image of the window columns of `w` written out in the standard
    basis, as an n x r block: term t sends column i to
    coef[i] e_k[i] (x) phi_l[i]."""
    M = w.grid.M
    modes = _phase_modes(M, np.arange(M)).T   # phi_l as row l
    V = np.zeros((M, M, w.r), complex)
    for t in image:
        V[t.k, :, np.arange(w.r)] += t.coef[:, None] * modes[t.l]
    return V.reshape(M * M, -1)


def check_closed_form_routes(g) -> None:
    """The closed-form images of the window columns (F, X, X*, Y, Y*,
    S, S* and both terms of each Weyl row) against the dense products of
    GammaGrid.fourier and the members' entries with the window basis, to
    1e-13 relative to the largest entry of the dense product on the whole
    mixed basis P; each closed-form Weyl row against its n x n formula,
    to 1e-13 relative to ||Y||; the gathered witnesses of the Schrodinger
    pair (both F_q products) against their n x n formulas, to 1e-12
    relative; and the closed-form witness of the Y = 0 control (S = X,
    U = F_q(X)) against its n x n formula, to 1e-13 absolute (its fields
    are relative and at roundoff)."""
    pair = schrodinger_pair(g)
    w = pair.window
    X, Y = pair.X.entries, pair.Y.entries
    P = interior_window(g, 0)
    cols = (w.inner[:, None] * g.M + w.inner[None, :]).ravel()
    B = pair.window_or_identity()
    checks = [("F", g.fourier, (Image(w.l, -w.k % g.M, np.ones(w.r)),)), ("X", X, w.position()),
              ("X*", X.conj().T, w.position(adjoint=True)), ("Y", Y, w.momentum()),
              ("Y*", Y.conj().T, w.momentum(adjoint=True)), ("S", X + Y, w.sum()),
              ("S*", (X + Y).conj().T, w.sum(adjoint=True))]
    for name, gen in grid_generators(g):
        C = chi_op(pair.X, gen, g.q)
        CYC, gY = C @ Y @ C.conj().T, gen.value(g.q) * Y
        conj, scaled = w.weyl(gen)
        checks += [(f"chi Y chi* ({name})", CYC, (conj,)), (f"gamma Y ({name})", gY, (scaled,))]
        dense = operator_norm(B.conj().T @ (CYC - gY) @ B)
        d = abs(weyl_residual(pair, gen) - dense) / pair.Y.norm2
        if d > 1e-13:
            raise RuntimeError(f"closed-form weyl_{name} disagreement {d} at M={g.M}")
    for name, A, image in checks:
        AP = A @ P
        d = np.abs(image_columns(w, image) - AP[:, cols]).max() / np.abs(AP).max()
        if d > 1e-13:
            raise RuntimeError(f"closed-form image disagreement {d} on {name} at M={g.M}")
    params = QExpParams(g.q)
    FX, FY = fq_on_operator(pair.X, params, g.M), fq_on_operator(pair.Y, params, g.M)
    S = X + Y
    ident = exp_identity_residual(pair)
    scale = np.linalg.svd(S @ B, compute_uv=False)[0]
    for name, got, U in (("residual", ident.residual, FY @ FX), ("residual_swapped", ident.residual_swapped, FX @ FY)):
        want = operator_norm(B.conj().T @ (U @ S - S @ U) @ B) / scale
        if abs(got - want) > 1e-12 * want:
            raise RuntimeError(f"gathered witness disagreement {abs(got - want) / want} on {name} at M={g.M}")
    control = exp_identity_residual(Q2Pair(Y=GridOperator(g, "zero"), X=pair.X, grid=g, window=w))
    sigma = np.linalg.svd(X @ B, compute_uv=False)
    _, _, zero, rel = snap_spectrum(sigma.astype(complex), g.q, scale=float(sigma.max()))
    res = operator_norm(B.conj().T @ (FX @ X - X @ FX) @ B) / sigma[0]
    for name, got, want in (
        ("residual", control.residual, res), ("residual_swapped", control.residual_swapped, res),
        ("sum_defect_windowed", control.sum_defect_windowed,
         operator_norm(B.conj().T @ (X @ X.conj().T - X.conj().T @ X) @ B) / operator_norm(X) ** 2),
        ("gamma_distance", control.gamma_distance, float(np.mean(np.where(zero, 0.0, rel)))),
    ):
        if abs(got - want) > 1e-13:
            raise RuntimeError(f"closed-form control disagreement {abs(got - want)} on {name} at M={g.M}")


def check_window_routes(g, margin: int) -> None:
    M = g.M
    inner = (g.c >= -M // 2 + margin) & (g.c <= M // 2 - 1 - margin)
    D = np.diag(np.repeat(inner, M).astype(float))
    P = D @ (g.fourier.conj().T @ D @ g.fourier)
    B = interior_window(g, margin)
    d = np.abs(B @ B.conj().T - P).max()
    if d > 1e-13:
        raise RuntimeError(f"window route disagreement {d} at M={M}, margin={margin}")


def check_eigensystem_routes(pair) -> None:
    g = pair.grid
    params = QExpParams(g.q)
    for T in (pair.X, pair.Y):
        exact = fq_on_operator(T, params, g.M)
        d = operator_norm(exact - fq_on_operator(NormalMatrix(T.entries), params, g.M))
        if d > 1e-12:
            raise RuntimeError(f"eigensystem route disagreement {d} at M={g.M}")


def check_window_column_routes(pair) -> None:
    """Each witness against its n x n formula (A formed, then B* A B), to
    1e-12 relative, or absolute on the scale of a field at roundoff (||Y||
    for the Weyl residuals; the other fields are relative already).  The
    modulus distance is checked against the singular values of S B, as the
    dense route forms S*S first and is itself 4e-12 off at M = 16."""
    g = pair.grid
    params = QExpParams(g.q)
    B = pair.window_or_identity()
    Bh = B.conj().T
    Y = pair.Y.entries
    S = pair.X.entries + Y
    FX, FY = fq_on_operator(pair.X, params, g.M), fq_on_operator(pair.Y, params, g.M)
    comm = S @ S.conj().T - S.conj().T @ S
    sigma = np.linalg.svd(S @ B, compute_uv=False)
    _, _, zero, rel = snap_spectrum(sigma.astype(complex), g.q, scale=float(sigma.max()))
    ident = exp_identity_residual(pair)
    checks = [
        ("residual", ident.residual, operator_norm(Bh @ (FY @ FX @ S - S @ FY @ FX) @ B) / sigma[0]),
        ("residual_swapped", ident.residual_swapped,
         operator_norm(Bh @ (FX @ FY @ S - S @ FX @ FY) @ B) / sigma[0]),
        ("sum_defect", ident.sum_defect, operator_norm(comm) / operator_norm(S) ** 2),
        ("sum_defect_windowed", ident.sum_defect_windowed, operator_norm(Bh @ comm @ B) / operator_norm(S) ** 2),
        ("gamma_distance", ident.gamma_distance, float(np.mean(np.where(zero, 0.0, rel)))),
    ]
    for name, gen in grid_generators(g):
        C = chi_op(pair.X, gen, g.q)
        dense = operator_norm(Bh @ (C @ Y @ C.conj().T - gen.value(g.q) * Y) @ B)
        checks.append((f"weyl_{name}", weyl_residual(pair, gen) / pair.Y.norm2, dense / pair.Y.norm2))
    for name, got, want in checks:
        d = abs(got - want) / (want if want > 1e-10 else 1.0)
        if d > 1e-12:
            raise RuntimeError(f"window-column route disagreement {d} on {name} at M={g.M}")


def check_corep_routes(rep, margin: int) -> None:
    """The factored route of corep_residual against the dense U, V =
    chi_kron and coproduct Delta(b), each applied to a full (d, n, n)
    tensor, on one window sample v = Bh (x) Bg (x) Bg c: the window reads
    of Q(S'v) and S'(Qv) by the per-sample chain, the scale ||S'v|| from
    the triangular factors, and L c from the band of the window matrix L
    gathered in the mixed basis, to 1e-13 relative; and the unitarity
    certificate of build_rep against the dense ||U* U - 1||_2, which it
    must not undercut."""
    g = rep.grid
    d, n = rep.h_dim, g.size
    dense = operator_norm(rep.U.conj().T @ rep.U - np.eye(rep.dim))
    if rep.unitarity_defect < dense:
        raise RuntimeError(f"unitarity certificate {rep.unitarity_defect} is below the dense defect {dense} at M={g.M}")

    def leg(A, v, which):   # A on H (x) grid leg `which` of a (d, n, n) tensor
        w = v if which == 1 else v.transpose(0, 2, 1)
        w = (A @ w.reshape(d * n, n)).reshape(d, n, n)
        return w if which == 1 else w.transpose(0, 2, 1)

    def on_h(A, v):   # A on the H leg of a (d, ...) tensor
        return (A @ v.reshape(A.shape[1], -1)).reshape((A.shape[0],) + v.shape[1:])

    Vh = chi_kron(rep.pair.X, g).conj().T

    def dense_q(v):
        return leg(rep.U, leg(rep.U, leg(Vh, leg(Vh, v, 1), 2), 2), 1)

    b, a = grid_operators(g)
    delta_b = np.kron(a, b) + np.kron(b, np.eye(n))

    # bt from its eigen-data, V (lam * (V* v)): for the Schrodinger bt this is
    # F* (x (F v)) with the dense F, as accurate as the FFT route the residual
    # takes, where a product with the materialised entries is not
    Vy, lam = rep.pair.Y.eig()

    def dense_s(v):
        w = Vy @ (lam[:, None] * (Vy.conj().T @ v.reshape(d, n * n)))
        return (w @ delta_b.T).reshape(d, n, n)

    Bh, Bg = _window_bases(rep, margin)
    r_h, r = Bh.shape[1], Bg.shape[1]

    def coords(v):   # window coordinates (r, r_h, r), leg 1 first
        return (Bg.conj().T @ on_h(Bh.conj().T, v) @ Bg.conj()).transpose(1, 0, 2)

    reads = _CommutatorReads(_LegOps(rep), Bh, Bg)
    gathered = _GatheredWindow(_fq_orbit_table(rep.fq_values, g.M), *_residual_windows(rep, margin))
    rng = np.random.default_rng(0)
    c = rng.standard_normal((r_h, r, r)) + 1j * rng.standard_normal((r_h, r, r))
    v = on_h(Bh, Bg @ c @ Bg.T)
    sv = dense_s(v)
    qsv, sqv = reads.terms(c)
    want_qsv, want_sqv = coords(dense_q(sv)), coords(dense_s(dense_q(v)))
    checks = [
        ("Q(S'v)", qsv.reshape(r, r_h, r), want_qsv),
        ("S'(Qv)", sqv.reshape(r, r_h, r), want_sqv),
        ("||S'v||", reads.s_norms(c[None])[0], np.array(np.linalg.norm(sv))),
        ("gathered L c", gathered.apply(c.reshape(-1, 1)).reshape(r_h, r, r).transpose(1, 0, 2), want_qsv - want_sqv),
    ]
    for name, got, want in checks:
        dist = np.linalg.norm(got - want) / np.linalg.norm(want)
        if dist > 1e-13:
            raise RuntimeError(f"corep route disagreement {dist} on {name} at M={g.M}")


def full_tensor_coords(rep, samples: int, seed: int, margin: int) -> np.ndarray:
    """The window coordinates (samples, r_h, r, r) of the seeded draw
    `corep_residual` was recorded on: per sample a full (d, n, n) standard
    complex Gaussian, projected onto Bh (x) Bg (x) Bg."""
    g = rep.grid
    d, n = rep.h_dim, g.size
    Bg = interior_window(g, margin)
    Bh = rep.pair.window_or_identity()
    rng = np.random.default_rng(seed)
    coords = []
    for _ in range(samples):
        v = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        v = (Bh.conj().T @ v.reshape(d, -1)).reshape((-1, n, n))
        coords.append((Bg.conj().T @ v) @ Bg.conj())
    return np.stack(coords)


def check_full_tensor_draw(rep, margin: int) -> float:
    """The corep residual (32 samples, seed 1) on the full-tensor draw
    through `_window_residual`, which must reproduce the stored
    `corep_residual` at M to 1e-9 relative."""
    M = str(rep.grid.M)
    got = _window_residual(rep, full_tensor_coords(rep, 32, 1, margin), margin).residual
    want = load_pinned()["corep_residual"][M]
    if abs(got - want) > 1e-9 * want:
        raise RuntimeError(f"full-tensor draw replay {got} is not the stored corep_residual {want} at M={M}")
    return got


def main(out_path: str) -> None:
    pinned = {"q": Q}

    for M in (4, 8, 12, 16):
        check_closed_form_routes(grid(Q, M))

    exp_res, exp_swapped, defects, wdefects, gdists, weyl = {}, {}, {}, {}, {}, {}
    for M in (8, 12, 16):
        g = grid(Q, M)
        check_fourier_routes(g)
        check_window_routes(g, default_margin(M))
        pair = schrodinger_pair(g)
        check_eigensystem_routes(pair)
        check_window_column_routes(pair)
        check_structured_routes(pair)
        report = verify_q2(pair)
        if not report.passed:
            raise RuntimeError(f"schrodinger pair failed verification at M={M}")
        ident = exp_identity_residual(pair)
        exp_res[str(M)] = ident.residual
        exp_swapped[str(M)] = ident.residual_swapped
        defects[str(M)] = ident.sum_defect
        wdefects[str(M)] = ident.sum_defect_windowed
        gdists[str(M)] = ident.gamma_distance
        weyl[str(M)] = max(report.weyl_residuals.values())
    pinned["exp_identity"] = exp_res
    pinned["exp_identity_swapped"] = exp_swapped
    pinned["sum_defect"] = defects
    pinned["sum_defect_windowed"] = wdefects
    pinned["gamma_distance"] = gdists
    pinned["weyl_residual"] = weyl

    # truncation signature of the raw sum at the blessed grid size
    g8 = grid(Q, 8)
    pair8 = schrodinger_pair(g8)
    S8 = NormalMatrix(pair8.X.entries + pair8.Y.entries)
    pinned["sum_defect_absolute_m8"] = S8.normality_defect

    corep_res, corep_window, corep_unit = {}, {}, {}
    for M in (4, 6):
        g = grid(Q, M)
        margin = corep_margin(M)
        check_window_routes(g, margin)
        pair = schrodinger_pair(g, margin=margin)
        rep = build_rep(pair, g)
        check_corep_routes(rep, margin)
        corep_res[str(M)] = check_full_tensor_draw(rep, margin)
        corep_window[str(M)] = corep_residual(rep, samples=32, seed=1, margin=margin).residual
        corep_unit[str(M)] = rep.unitarity_defect
    pinned["corep_residual"] = corep_res
    pinned["corep_residual_window"] = corep_window
    pinned["corep_unitarity"] = corep_unit

    g8 = grid(Q, 8)
    check_separation_routes(g8)
    pinned["separation_m8"] = candidate_separation(g8, QExpParams(Q))

    with open(out_path, "w") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(pinned, sort_keys=True, indent=2))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/qazb/data/pinned.json")
