"""Regular q^2-pairs in the finite Schrodinger model.

A regular q^2-pair is a pair (Y, X) of normal operators with spectra in
Gamma-bar, ker X = {0}, and the conjugation relation

    chi(X, gamma) Y chi(X, gamma)* = gamma * Y      for all gamma,

the rigorous form of XY = q^2 YX, XY* = Y*X.  The model pair lives on the
grid: X multiplies by the grid values (exactly diagonal) and Y = F* X F is
its Fourier conjugate.  On the cyclic grid the relation holds exactly off
the wrap subspace, where the centred modulus exponent jumps by -+M; all
residuals are therefore measured on the interior window: grid vectors
whose modulus index and Fourier modulus index (which pairs with the phase
axis) both stay `margin` away from the wrap.  It is carried as its
closed-form orthonormal basis B (see `interior_window`), and a windowed
norm is that of B* A B.

The model pair is diagonal in closed form: X has eigenbasis 1 and Y has
eigenbasis F*, both with the grid values and their exact lattice data
(k, j).  The pair constructions here (`schrodinger_pair`, the blocks of
`random_regular_pair`, `conjugate_pair`) supply that eigensystem to their
:class:`~qazb.opalg.NormalMatrix` members, which certify it on first read
(||T V - V diag(lam)||_F / max|lam| and ||V* V - 1||_F, see
:mod:`qazb.opalg`), so no Schur form or floating-point snap enters their
functional calculus.  Matrices built otherwise keep the Schur route.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .errors import DimensionError, DomainError, ParameterError
from .gamma import GammaGrid, GammaPoint, snap_spectrum
from .opalg import SPECTRUM_RTOL, Eigensystem, NormalMatrix, chi_op, closure_sum, operator_norm
from .qexp import QExpParams, fq_on_operator

__all__ = [
    "Q2Pair",
    "Q2Report",
    "ExpIdentityReport",
    "default_margin",
    "interior_window",
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

WINDOW_ORTHO_TOL = 1e-10   # largest ||B* B - 1||_F of a window basis


def default_margin(M: int) -> int:
    """The window margin ceil(M/4), which balances window size against
    wrap suppression."""
    return -(-M // 4)


def interior_window(g: GammaGrid, margin: int) -> np.ndarray:
    """Orthonormal basis (n x r columns) of the grid vectors interior in
    both the position and the Fourier domain: e_k (x) phi_l for modulus
    indices k and Fourier modulus indices l whose centred exponent lies in
    [-M/2 + margin, M/2 - 1 - margin], with phi_l[j] = e^{-2 pi i l j/M} /
    sqrt(M) the phase-axis mode that F_M maps to Fourier modulus index l."""
    M = g.M
    if margin < 0:
        raise ParameterError(f"margin must be nonnegative, got {margin}")
    inner = np.flatnonzero((g.c >= -M // 2 + margin) & (g.c <= M // 2 - 1 - margin))
    modes = np.exp(-2j * np.pi * (np.outer(np.arange(M), inner) % M) / M) / np.sqrt(M)
    return np.kron(np.eye(M)[:, inner], modes)


@dataclass(frozen=True)
class Q2Pair:
    """A model pair (Y, X) with its grid and window basis.

    It is also the generating pair (bt, at) = (Y, X) of a representation.
    `window` is an orthonormal basis (dim x r columns) of the subspace
    where the cyclic model represents the continuum, and residual checks
    are confined to it; None means no confinement (exact pairs).
    `provenance` records the block construction when generated.
    """

    Y: NormalMatrix
    X: NormalMatrix
    grid: GammaGrid
    window: np.ndarray | None = None
    provenance: tuple = ()

    def __post_init__(self):
        B = self.window
        if B is None:
            return
        if np.ndim(B) != 2 or B.shape[0] != self.dim:
            raise DimensionError(f"window basis shape {np.shape(B)} needs {self.dim} rows")
        defect = np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1]))
        if defect > WINDOW_ORTHO_TOL:
            raise DomainError(f"window columns are not orthonormal: ||B* B - 1||_F = {defect:.3e}")

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

    Both are exactly normal and carry their eigensystems: the grid values
    and lattice data with basis 1 for X and F* for Y.  The margin defaults
    to `default_margin(M)`.
    """
    if margin is None:
        margin = default_margin(g.M)
    X = np.diag(g.values)
    Fh = g.fourier.conj().T
    Y = Fh @ X @ g.fourier
    return Q2Pair(
        Y=NormalMatrix(Y, Eigensystem(Fh, g.values, *g.lattice)),
        X=NormalMatrix(X, Eigensystem(np.eye(g.size), g.values, *g.lattice)),
        grid=g,
        window=interior_window(g, margin),
        provenance=(("schrodinger", g.M),),
    )


def weyl_residual(pair: Q2Pair, point: GammaPoint) -> float:
    """|| B* (chi(X,gamma) Y chi(X,gamma)* - gamma Y) B ||_2, with B the
    pair's window basis."""
    q = pair.grid.q
    C = chi_op(pair.X, point, q)
    D = C @ pair.Y.entries @ C.conj().T - point.value(q) * pair.Y.entries
    B = pair.window_or_identity()
    return operator_norm(B.conj().T @ D @ B)


@dataclass(frozen=True)
class Q2Report:
    """Per-condition verification of the pair axioms."""

    defect_x: float
    defect_y: float
    normality_pass: bool
    spectrum_dist_x: float
    spectrum_dist_y: float
    spectrum_pass: bool
    kernel_min: float | None   # None: X has no certified eigensystem
    kernel_pass: bool
    weyl_residuals: dict[str, float | None] = field(default_factory=dict)   # None: not computed
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


def verify_q2(pair: Q2Pair, tol: float = 1e-10) -> Q2Report:
    """Check the pair axioms; failures are report entries, never raises.

    (a) normality defects below threshold, (b) spectra on the modulus
    lattice within SPECTRUM_RTOL (for a supplied eigensystem, the larger
    of its lattice distance and its certificate, so the check measures the
    stored matrix), (c) numerically trivial kernel of X, (d) windowed
    conjugation residual below tol for both grid generators
    (multiplicativity of chi extends the check to the whole group).  A
    supplied eigensystem that fails its certificate or its lattice data
    fails (b) with distance inf.  When X has no certified lattice data or
    (c) fails, chi(X, .) is undefined: the values not computed are None,
    and their checks fail.
    """
    q = pair.grid.q

    def spectrum(T: NormalMatrix):
        try:
            _, _, zero, rel = T.lattice(q)
        except DomainError:
            return None, np.inf
        return zero, max(float(np.max(rel, initial=0.0)), T.eig_certificate or 0.0)

    zx, sx = spectrum(pair.X)
    _, sy = spectrum(pair.Y)
    kmin = None if zx is None else float(np.min(np.abs(pair.X.eig()[1]), initial=np.inf))
    kernel_pass = zx is not None and not bool(np.any(zx))

    weyl = {}
    ok = kernel_pass
    for name, gen in grid_generators(pair.grid):
        r = weyl_residual(pair, gen) if kernel_pass else None
        weyl[name] = r
        ok = ok and (r <= tol)

    return Q2Report(
        defect_x=pair.X.normality_defect,
        defect_y=pair.Y.normality_defect,
        normality_pass=not (pair.X.degraded or pair.Y.degraded),
        spectrum_dist_x=sx,
        spectrum_dist_y=sy,
        spectrum_pass=max(sx, sy) <= SPECTRUM_RTOL,
        kernel_min=kmin,
        kernel_pass=kernel_pass,
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


def exp_identity_residual(pair: Q2Pair) -> ExpIdentityReport:
    """Windowed witness of F_q(X -+. Y) = F_q(Y) F_q(X).

    The reported residual is the commutation form

        || B* (U S - S U) B ||_2 / || S B ||_2,
        U = F_q(Y) F_q(X),  S = X + Y:

    in the continuum U is a function of the normal closure of S and the
    commutator vanishes; on the grid it decays like q^(M/2) on the window
    while the swapped product stays at O(1).  The spectral-difference form
    || (F_q(S) - F_q(Y) F_q(X)) B || is deliberately not used: S has
    wrap-borne defect of order ||S||^2, so no spectral calculus of the raw
    sum is meaningful (its defect and windowed defect are reported).
    """
    params = QExpParams(pair.grid.q)
    S = closure_sum(pair.X, pair.Y)
    FX = fq_on_operator(pair.X, params, pair.grid.M)
    FY = fq_on_operator(pair.Y, params, pair.grid.M)
    B = pair.window_or_identity()
    Bh = B.conj().T
    Se = S.entries
    scale = operator_norm(Se @ B)

    def witness(U: np.ndarray) -> float:
        if scale < 1e-300:
            return 0.0
        C = U @ Se - Se @ U
        return operator_norm(Bh @ C @ B) / scale

    r = witness(FY @ FX)
    rs = witness(FX @ FY)
    wd = 0.0 if S.norm2 == 0 else operator_norm(Bh @ (Se @ Se.conj().T - Se.conj().T @ Se) @ B) / S.norm2 ** 2
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
    B = pair.window_or_identity()
    if B.shape[1] == 0:
        return 0.0
    Se = S.entries
    G = B.conj().T @ (Se.conj().T @ Se) @ B
    mu = np.clip(np.linalg.eigvalsh((G + G.conj().T) / 2.0), 0.0, None)
    moduli = np.sqrt(mu)
    _, _, zero, rel = snap_spectrum(moduli.astype(complex), pair.grid.q, scale=float(np.max(moduli, initial=0.0)))
    return float(np.mean(np.where(zero, 0.0, rel)))


def random_regular_pair(blocks, seed: int, g: GammaGrid) -> Q2Pair:
    """Direct sum of elementary regular blocks on a small Hilbert space.

    Block specs: ("trivial", point_or_None) contributes the 1-dimensional
    pair (0, gamma0) (gamma0 drawn from the grid when None, seeded), and
    ("schrodinger", P) embeds the P-point sub-grid pair (dimension P^2,
    P must divide M so its spectra stay grid-supported).  The direct sum
    satisfies the pair axioms blockwise; the window basis and the
    eigensystems are assembled blockwise too (sub-grid blocks get their
    own interior window at the default margin, which is empty for P = 2: a
    2-point modulus axis has no wrap-free interior, and the block
    contributes rows but no columns).
    """
    rng = np.random.default_rng(seed)
    ys, xs, ws, prov = [], [], [], []   # ys, xs: (entries, eigensystem) per block
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
            value = point.value(g.q)
            ys.append((np.zeros((1, 1)), Eigensystem.zero_operator(1)))
            xs.append(([[value]], Eigensystem(np.eye(1), [value], [point.k], [point.theta])))
            ws.append(np.eye(1, dtype=complex))
            prov.append(("trivial", point.k, point.theta))
        elif kind == "schrodinger":
            P = int(spec[1])
            if P < 2 or P % 2 or g.M % P:
                raise ParameterError(f"sub-grid order {P} must be even and divide M={g.M}")
            sub = GammaGrid(g.q, P)
            sp = schrodinger_pair(sub)
            ys.append((sp.Y.entries, sp.Y.eigensystem))
            xs.append((sp.X.entries, sp.X.eigensystem))
            ws.append(sp.window)
            prov.append(("schrodinger", P))
        else:
            raise ParameterError(f"unknown block kind {kind!r}")

    def direct_sum(members):
        entries, systems = zip(*members)
        return NormalMatrix(block_diag(*entries), Eigensystem.direct_sum(systems))

    return Q2Pair(
        Y=direct_sum(ys),
        X=direct_sum(xs),
        grid=g,
        window=block_diag(*ws),
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
    """Conjugate both members by a fixed unitary, and map the window basis
    and the supplied eigenbases by it (a non-unitary U fails their
    certificate with DomainError)."""
    if U.shape != (pair.dim, pair.dim):
        raise DimensionError(f"unitary shape {U.shape} does not match pair dimension {pair.dim}")

    def conjugate(T: NormalMatrix) -> NormalMatrix:
        es = T.eigensystem
        return NormalMatrix(U @ T.entries @ U.conj().T, None if es is None else es.conjugated(U))

    return Q2Pair(
        Y=conjugate(pair.Y),
        X=conjugate(pair.X),
        grid=pair.grid,
        window=None if pair.window is None else U @ pair.window,
        provenance=pair.provenance + (("conjugated", None),),
    )
