"""Regular q^2-pairs in the finite Schrodinger model.

A regular q^2-pair is a pair (Y, X) of normal operators with spectra in
Gamma-bar, ker X = {0}, and the conjugation relation

    chi(X, gamma) Y chi(X, gamma)* = gamma * Y      for all gamma,

the rigorous form of XY = q^2 YX, XY* = Y*X.  The model pair lives on the
grid: X multiplies by the grid values (exactly diagonal) and Y = F* X F is
its Fourier conjugate.  On the cyclic grid the relation holds exactly off
the wrap subspace, where the centred modulus exponent jumps by -+M; all
residuals are therefore measured through interior window projectors:

* position window: flat indices whose modulus index is at least `margin`
  away from the wrap boundary;
* Fourier window: the same mask conjugated by F (it acts on the phase
  axis, so the two windows commute and their product is a projector).

Finite dimensions admit no exact pair with Y != 0 (the relation would force
spec(Y) = q spec(Y)), so the wrap violation is irreducible; all continuum
statements are recovered as windowed residuals decaying in M.

The quantum exponential identity F_q(X -+. Y) = F_q(Y) F_q(X) is witnessed
in commutation form: the product F_q(Y) F_q(X) must commute with X + Y,
being a function of its closure.  The direct route (spectral calculus of
X + Y followed by a windowed difference) is not usable at desk scale: the
plain sum has wrap-borne normality defect of order ||X+Y||^2, so its global
eigenbasis is an O(1) perturbation even on interior vectors.  The windowed
commutator instead touches the wrap only through exponentially small tails
and decays like q^(M/2); the swapped-order product fails it at O(1), which
is the order sensitivity the identity asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .gamma import GammaGrid, GammaPoint, centered_index, snap_spectrum
from .opalg import NormalMatrix, chi_op, closure_sum, operator_norm
from .qexp import QExpParams, fq_on_operator

__all__ = [
    "Q2Pair",
    "Q2Report",
    "ExpIdentityReport",
    "interior_window",
    "window_basis",
    "grid_generators",
    "schrodinger_pair",
    "verify_q2",
    "weyl_residual",
    "exp_identity_residual",
    "windowed_modulus_distance",
    "random_regular_pair",
    "seeded_block_specs",
    "conjugate_pair",
]


def interior_mask(M: int, margin: int) -> np.ndarray:
    """Modulus indices with centred exponent at least `margin` away from
    the wrap boundary: -M/2 + margin <= c(k) <= M/2 - 1 - margin."""
    c = np.array([centered_index(k, M) for k in range(M)])
    return (c >= -M // 2 + margin) & (c <= M // 2 - 1 - margin)


def interior_window(
    g: GammaGrid,
    margin: int,
    position: bool = True,
    fourier: bool = True,
) -> np.ndarray:
    """Orthogonal projector onto grid vectors interior in the requested
    domains.  The position mask restricts the modulus axis directly; the
    Fourier mask is the same restriction conjugated by F_M, which acts on
    the phase axis only, so the two factors commute."""
    M = g.M
    if margin < 0:
        raise ParameterError(f"margin must be nonnegative, got {margin}")
    d = np.repeat(interior_mask(M, margin), M).astype(float)
    P = np.eye(g.size, dtype=complex)
    if fourier:
        F = g.fourier
        P = F.conj().T @ (d[:, None] * F)
    if position:
        P = d[:, None] * P
    return (P + P.conj().T) / 2.0


def window_basis(P: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a projector."""
    w, V = np.linalg.eigh((P + P.conj().T) / 2.0)
    return V[:, w > 0.5]


@dataclass(frozen=True)
class Q2Pair:
    """A model pair (Y, X) with its grid, window margin and projector.

    It is also the generating pair (bt, at) = (Y, X) of a representation.
    `window` confines residual checks to the subspace where the cyclic
    model represents the continuum; None means no confinement (exact
    pairs).  `provenance` records the block construction when generated.
    """

    Y: NormalMatrix
    X: NormalMatrix
    grid: GammaGrid
    margin: int
    window: np.ndarray | None = None
    provenance: tuple = ()

    @property
    def dim(self) -> int:
        return self.X.dim

    def window_or_identity(self) -> np.ndarray:
        if self.window is None:
            return np.eye(self.dim, dtype=complex)
        return self.window


def grid_generators(g: GammaGrid) -> list[tuple[str, GammaPoint]]:
    """The two generators of the grid group as lattice points:
    index (1, 0) (the point q for M >= 4) and (0, 1) (the phase omega)."""
    return [("q", g.point(1, 0)), ("omega", g.point(0, 1))]


def schrodinger_pair(g: GammaGrid, margin: int | None = None) -> Q2Pair:
    """The grid Schrodinger pair: X = diag(grid values), Y = F* X F.

    Both are exactly normal; default margin M/4 balances window size
    against wrap suppression.
    """
    if margin is None:
        margin = -(-g.M // 4)
    X = np.diag(g.values)
    F = g.fourier
    Y = F.conj().T @ X @ F
    W = interior_window(g, margin)
    return Q2Pair(
        Y=NormalMatrix(Y),
        X=NormalMatrix(X),
        grid=g,
        margin=margin,
        window=W,
        provenance=(("schrodinger", g.M),),
    )


def weyl_residual(pair: Q2Pair, point: GammaPoint, window: np.ndarray | None = None) -> float:
    """|| W (chi(X,gamma) Y chi(X,gamma)* - gamma Y) W ||_2, with W the
    pair's window unless `window` is given."""
    q = pair.grid.q
    C = chi_op(pair.X, point, q)
    D = C @ pair.Y.entries @ C.conj().T - point.value(q) * pair.Y.entries
    W = window if window is not None else pair.window_or_identity()
    return operator_norm(W @ D @ W)


@dataclass(frozen=True)
class Q2Report:
    """Per-condition verification of the pair axioms."""

    defect_x: float
    defect_y: float
    normality_pass: bool
    spectrum_dist_x: float
    spectrum_dist_y: float
    spectrum_pass: bool
    kernel_min: float
    kernel_pass: bool
    weyl_residuals: dict[str, float] = field(default_factory=dict)
    weyl_pass: bool = False

    @property
    def passed(self) -> bool:
        return self.normality_pass and self.spectrum_pass and self.kernel_pass and self.weyl_pass

    def rows(self) -> list[dict]:
        out = [
            {"condition": "normality", "value": max(self.defect_x, self.defect_y),
             "pass": self.normality_pass},
            {"condition": "spectrum_lattice", "value": max(self.spectrum_dist_x, self.spectrum_dist_y),
             "pass": self.spectrum_pass},
            {"condition": "kernel", "value": self.kernel_min, "pass": self.kernel_pass},
        ]
        for name, r in self.weyl_residuals.items():
            out.append({"condition": f"weyl_{name}", "value": r, "pass": self.weyl_pass})
        return out


def verify_q2(pair: Q2Pair, tol: float = 1e-10, snap_rtol: float = 1e-9) -> Q2Report:
    """Check the pair axioms; failures are report entries, never raises.

    (a) normality defects below threshold, (b) spectra on the modulus
    lattice within snap_rtol, (c) numerically trivial kernel of X,
    (d) windowed conjugation residual below tol for both grid generators
    (multiplicativity of chi extends the check to the whole group).
    """
    q = pair.grid.q
    _, _, zx, rel_x = snap_spectrum(pair.X.eig()[1], q, scale=pair.X.norm2)
    _, _, _, rel_y = snap_spectrum(pair.Y.eig()[1], q, scale=pair.Y.norm2)
    sx = float(np.max(rel_x, initial=0.0))
    sy = float(np.max(rel_y, initial=0.0))
    kmin = float(np.min(np.abs(pair.X.eig()[1]), initial=np.inf))

    weyl = {}
    ok = True
    for name, gen in grid_generators(pair.grid):
        r = weyl_residual(pair, gen)
        weyl[name] = r
        ok = ok and (r <= tol)

    return Q2Report(
        defect_x=pair.X.normality_defect,
        defect_y=pair.Y.normality_defect,
        normality_pass=not (pair.X.degraded or pair.Y.degraded),
        spectrum_dist_x=sx,
        spectrum_dist_y=sy,
        spectrum_pass=max(sx, sy) <= snap_rtol,
        kernel_min=kmin,
        kernel_pass=not bool(np.any(zx)),
        weyl_residuals=weyl,
        weyl_pass=ok,
    )


@dataclass(frozen=True)
class ExpIdentityReport:
    """Windowed diagnostics of the exponential identity for one pair."""

    residual: float            # commutation witness, stated order F_q(Y) F_q(X)
    residual_swapped: float    # same witness for F_q(X) F_q(Y)
    sum_defect: float          # relative normality defect of X + Y (raw)
    sum_defect_windowed: float # the same, sandwiched by the window
    gamma_distance: float      # windowed modulus-spectrum distance of X + Y
    degraded: bool             # the raw sum exceeded its defect threshold


def exp_identity_residual(pair: Q2Pair, params: QExpParams | None = None) -> ExpIdentityReport:
    """Windowed witness of F_q(X -+. Y) = F_q(Y) F_q(X).

    The reported residual is the commutation form

        || W (U S - S U) W ||_2 / || S W ||_2,
        U = F_q(Y) F_q(X),  S = X + Y:

    in the continuum U is a function of the normal closure of S and the
    commutator vanishes; on the grid it decays like q^(M/2) on the window
    while the swapped product stays at O(1).  The spectral-difference form
    || (F_q(S) - F_q(Y) F_q(X)) W || is deliberately not used: S has
    wrap-borne defect of order ||S||^2, so no spectral calculus of the raw
    sum is meaningful (its defect and windowed defect are reported).
    """
    if params is None:
        params = QExpParams(pair.grid.q)
    S = closure_sum(pair.X, pair.Y)
    FX = fq_on_operator(pair.X, params, pair.grid.M)
    FY = fq_on_operator(pair.Y, params, pair.grid.M)
    W = pair.window_or_identity()
    Se = S.entries
    scale = operator_norm(Se @ W)

    def witness(U: np.ndarray) -> float:
        if scale < 1e-300:
            return 0.0
        C = U @ Se - Se @ U
        return operator_norm(W @ C @ W) / scale

    r = witness(FY @ FX)
    rs = witness(FX @ FY)
    wd = 0.0 if S.norm2 == 0 else operator_norm(W @ (Se @ Se.conj().T - Se.conj().T @ Se) @ W) / S.norm2 ** 2
    return ExpIdentityReport(
        residual=r,
        residual_swapped=rs,
        sum_defect=S.relative_defect,
        sum_defect_windowed=wd,
        gamma_distance=windowed_modulus_distance(pair, S),
        degraded=S.degraded,
    )


def windowed_modulus_distance(pair: Q2Pair, S: NormalMatrix | None = None) -> float:
    """Mean lattice distance of the modulus spectrum of X + Y on the window.

    The continuum closure is normal with spectrum in Gamma-bar; its modulus
    content is the spectrum of S*S, which is self-adjoint, so the windowed
    compression is free of the spectral pollution that invalidates raw
    finite-section eigenvalues of the non-normal S.  Returns the mean
    relative distance of sqrt(eig(B* S*S B)) to q^Z (B spans the window).
    """
    if S is None:
        S = closure_sum(pair.X, pair.Y)
    if pair.window is None:
        B = np.eye(pair.dim, dtype=complex)
    else:
        B = window_basis(pair.window)
    if B.shape[1] == 0:
        return 0.0
    Se = S.entries
    G = B.conj().T @ (Se.conj().T @ Se) @ B
    mu = np.clip(np.linalg.eigvalsh((G + G.conj().T) / 2.0), 0.0, None)
    moduli = np.sqrt(mu)
    _, _, zero, rel = snap_spectrum(moduli.astype(complex), pair.grid.q, scale=float(np.max(moduli, initial=0.0)))
    return float(np.mean(np.where(zero, 0.0, rel)))


def _blockdiag(mats: list[np.ndarray]) -> np.ndarray:
    n = sum(m.shape[0] for m in mats)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at:at + d, at:at + d] = m
        at += d
    return out


def random_regular_pair(blocks, seed: int, g: GammaGrid) -> Q2Pair:
    """Direct sum of elementary regular blocks on a small Hilbert space.

    Block specs: ("trivial", point_or_None) contributes the 1-dimensional
    pair (0, gamma0) (gamma0 drawn from the grid when None, seeded), and
    ("schrodinger", P) embeds the P-point sub-grid pair (dimension P^2,
    P must divide M so its spectra stay grid-supported).  The direct sum
    satisfies the pair axioms blockwise; the window is assembled blockwise
    too (sub-grid blocks get their own interior window, which is empty for
    P = 2: a 2-point modulus axis has no wrap-free interior).
    """
    rng = np.random.default_rng(seed)
    ys, xs, ws, prov = [], [], [], []
    for spec in blocks:
        kind = spec[0]
        if kind == "trivial":
            point = spec[1]
            if point is None:
                k = int(rng.integers(0, g.M))
                j = int(rng.integers(0, g.M))
                point = g.point(k, j)
            if point.zero:
                raise ParameterError("trivial block requires a nonzero lattice point")
            ys.append(np.zeros((1, 1), dtype=complex))
            xs.append(np.array([[point.value(g.q)]], dtype=complex))
            ws.append(np.eye(1, dtype=complex))
            prov.append(("trivial", point.k, point.theta))
        elif kind == "schrodinger":
            P = int(spec[1])
            if P < 2 or P % 2 or g.M % P:
                raise ParameterError(f"sub-grid order {P} must be even and divide M={g.M}")
            sub = GammaGrid(g.q, P)
            sp = schrodinger_pair(sub, margin=max(1, P // 4))
            ys.append(sp.Y.entries)
            xs.append(sp.X.entries)
            ws.append(sp.window_or_identity())
            prov.append(("schrodinger", P))
        else:
            raise ParameterError(f"unknown block kind {kind!r}")
    return Q2Pair(
        Y=NormalMatrix(_blockdiag(ys)),
        X=NormalMatrix(_blockdiag(xs)),
        grid=g,
        margin=-(-g.M // 4),
        window=_blockdiag(ws),
        provenance=tuple(prov),
    )


def seeded_block_specs(seed: int, dim: int, g: GammaGrid) -> list[tuple]:
    """Deterministic block palette of total dimension `dim`: a seeded mix
    of trivial blocks and 2-point sub-grid blocks (dimension 4)."""
    rng = np.random.default_rng(seed)
    specs: list[tuple] = []
    remaining = dim
    while remaining > 0:
        if remaining >= 4 and g.M % 2 == 0 and rng.random() < 0.5:
            specs.append(("schrodinger", 2))
            remaining -= 4
        else:
            k = int(rng.integers(0, g.M))
            j = int(rng.integers(0, g.M))
            specs.append(("trivial", g.point(k, j)))
            remaining -= 1
    return specs


def conjugate_pair(pair: Q2Pair, U: np.ndarray) -> Q2Pair:
    """Conjugate both members (and the window) by a fixed unitary."""
    if U.shape != (pair.dim, pair.dim):
        raise DimensionError(f"unitary shape {U.shape} does not match pair dimension {pair.dim}")
    W = None if pair.window is None else U @ pair.window @ U.conj().T
    return Q2Pair(
        Y=NormalMatrix(U @ pair.Y.entries @ U.conj().T),
        X=NormalMatrix(U @ pair.X.entries @ U.conj().T),
        grid=pair.grid,
        margin=pair.margin,
        window=W,
        provenance=pair.provenance + (("conjugated", None),),
    )
