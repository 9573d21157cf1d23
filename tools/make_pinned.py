"""Record the model constants replayed by the acceptance suite.

Runs the reference sweeps (exponential-identity witness, spectrum
statistics, corepresentation residuals, inversion separation certificate)
at the blessed configuration q = 0.5 and freezes the results into
``src/qazb/data/pinned.json``.  Acceptance tests treat these values as
envelopes (x1.5 safety factor) and monotonicity witnesses.

Each constant is cross-checked by a second computation route where one
exists (FFT versus dense Fourier for the grid unitary, the closed-form
window basis versus the dense window projector D (F* D F), the supplied
eigensystems of the Schrodinger pair versus their Schur forms, eigh versus
schur for self-adjoint spectra); a disagreement aborts the run.

Usage: python3 tools/make_pinned.py [out_json]
"""

import json
import sys
import warnings

import numpy as np

warnings.filterwarnings("ignore")

from qazb.corep import build_rep, corep_residual
from qazb.gamma import grid
from qazb.opalg import NormalMatrix, operator_norm
from qazb.q2pair import (
    default_margin,
    exp_identity_residual,
    interior_window,
    schrodinger_pair,
    verify_q2,
)
from qazb.qexp import QExpParams, candidate_separation, fq_on_operator

Q = 0.5


def check_fourier_routes(g) -> None:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    d = np.abs(g.fourier_apply(v) - g.fourier_apply_fft(v)).max()
    if d > 1e-11:
        raise RuntimeError(f"fourier route disagreement {d} at M={g.M}")


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


def main(out_path: str) -> None:
    pinned = {"q": Q}

    exp_res, exp_swapped, defects, wdefects, gdists, weyl = {}, {}, {}, {}, {}, {}
    for M in (8, 12, 16):
        g = grid(Q, M)
        check_fourier_routes(g)
        check_window_routes(g, default_margin(M))
        pair = schrodinger_pair(g)
        check_eigensystem_routes(pair)
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

    corep_res, corep_unit = {}, {}
    for M in (4, 6):
        g = grid(Q, M)
        margin = default_margin(M)
        check_window_routes(g, margin)
        pair = schrodinger_pair(g, margin=margin)
        rep = build_rep(pair, g)
        r = corep_residual(rep, samples=32, seed=1, margin=margin)
        corep_res[str(M)] = r.residual
        corep_unit[str(M)] = rep.unitarity_defect
    pinned["corep_residual"] = corep_res
    pinned["corep_unitarity"] = corep_unit

    g8 = grid(Q, 8)
    pinned["separation_m8"] = candidate_separation(g8, QExpParams(Q))

    with open(out_path, "w") as fh:
        json.dump(pinned, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(pinned, sort_keys=True, indent=2))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/qazb/data/pinned.json")
