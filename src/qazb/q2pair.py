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
norm is that of B* A B.  On a general pair every witness computes it as
B* (A B): the operator A (a commutator, a conjugate, a product of
functions of X and Y) is applied to the r window columns factor by
factor, through the members' own `apply`, `apply_adjoint` and
`spectral_apply` (functions of X and Y by their values on the
eigenbasis), and A itself is never formed.  The norms taken are of
n x r or r x r matrices.  The grid Schrodinger pair knows its window by
its index set (:class:`InteriorWindow`), whose dense basis is built only
when read: in the mixed basis P = 1 (x) phi below, the window columns
are unit vectors, and F, X, Y, S = X + Y and chi(X, gamma) send each
basis vector to a multiple of one other.  So their images of the window
are index maps with coefficients, and a Weyl row is the largest of r
closed-form entries.  F_q(X) is block diagonal there, with circulant
blocks read off one M-point transform of its values along the phase
axis, so every matrix element of the F_q products is a product of two
entries of that table, and each exponential-identity witness is an
r x r matrix gathered on the separable (w, w, w, w) grid of the window,
r = w^2, by table reads of w^3 entries.  So neither `verify_q2` nor the
exponential-identity witnesses of the pair and of its Y = 0 control
(S = X, F_q(Y) = 1) transform the grid or hold an n-row array.

The model pair is diagonal in closed form: X has eigenbasis 1 and Y has
eigenbasis F*, both with the grid values and their exact lattice data
(k, j).  `schrodinger_pair` holds its members as
:class:`~qazb.opalg.GridOperator`: X multiplies by the grid values, and
Y and its eigenbasis go through M-point FFTs on the (M, M, c) reshape of
a column block, so no n x n array enters the witnesses, and the
certificate is structural (see :mod:`qazb.opalg`).  The blocks of
`random_regular_pair` and `conjugate_pair` supply the same eigensystems,
read densely, to :class:`~qazb.opalg.NormalMatrix` members, which certify
them on first read (||T V - V diag(lam)||_F / max|lam| and
||V* V - 1||_F).  Either way no Schur form or floating-point snap enters
their functional calculus, and their normality defect is the certified
bound of :mod:`qazb.opalg` rather than a dense commutator norm.
Matrices built otherwise keep the Schur route.

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

The raw norms of the model sum, ||S|| and ||S S* - S* S|| (S = X + Y),
are exact and cheap in the mixed basis P = 1 (x) phi of grid vectors
e_k (x) phi_m, the full basis whose interior columns form the window.
There X sends e_k (x) phi_m to x_k e_k (x) phi_{m-1} and Y sends it to
x_m e_{k+1} (x) phi_m (x_k = q^c(k)), so Sigma = P* S P has two nonzeros
per column and maps the class s = (k - m) mod M to the class s + 1
through an M x M block B_s, built in closed form.  ||S|| is
max_s ||B_s||, and the commutator is block diagonal with the Hermitian
blocks B_{s-1} B_{s-1}* - B_s* B_s: one batched SVD and one batched
eigvalsh of M blocks of M x M instead of two n x n SVDs.  The window
columns of class s pick columns of B_s, so the singular values of S B
and the windowed defect come from the same blocks restricted to the
window.  Any other sum (conjugated pairs, direct sums) is a dense
:class:`~qazb.opalg.NormalMatrix` with its dense norms.
"""

from __future__ import annotations

import copy
import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ParameterError
from .gamma import GammaGrid, GammaPoint, snap_spectrum
from .opalg import (DEFAULT_DEFECT_RTOL, SPECTRUM_RTOL, Eigensystem, GridOperator, NormalMatrix, NormalOperator,
                    _as_normal, block_diag, chi_values, lattice_values, operator_norm)
from .qexp import QExpParams, fq_eigenvalues, fq_lattice

__all__ = [
    "InteriorWindow",
    "Q2Pair",
    "Q2Report",
    "ExpIdentityReport",
    "default_margin",
    "corep_margin",
    "check_margin",
    "closure_sum",
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


def corep_margin(M: int) -> int:
    """The window margin of a corep residual, min(ceil((M + 2)/4), M/2 - 1),
    and 1 at M = 2, which every margin refuses.  The witness reads S' =
    bt (x) a (x) b + bt (x) b (x) I, whose modulus exponents add across
    the legs, so its window leaves the wrap only at m >= (M + 2)/4, one
    step past ceil(M/4) when 4 | M; the cap keeps a window of width 2."""
    return max(1, min(-(-(M + 2) // 4), M // 2 - 1))


def check_margin(M: int, margin: int) -> int:
    """`margin`, refused with ParameterError when it leaves no interior
    window at grid order M (the window is empty unless 2 margin < M)."""
    if 2 * margin >= M:
        raise ParameterError(f"margin {margin} leaves no interior window at M={M} (needs 2*margin < M)")
    return margin


def interior_window(g: GammaGrid, margin: int) -> np.ndarray:
    """Orthonormal basis (n x r columns) of the grid vectors interior in
    both the position and the Fourier domain: e_k (x) phi_l for modulus
    indices k and Fourier modulus indices l whose centred exponent lies in
    [-M/2 + margin, M/2 - 1 - margin], with phi_l[j] = e^{-2 pi i l j/M} /
    sqrt(M) the phase-axis mode that F_M maps to Fourier modulus index l."""
    return InteriorWindow(g, margin).basis


def _phase_modes(M: int, l: np.ndarray) -> np.ndarray:
    """The columns phi_l, phi_l[j] = e^{-2 pi i l j/M} / sqrt(M) (M x len(l))."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(M), l) % M) / M) / np.sqrt(M)


class Image(NamedTuple):
    """The image A B of the window columns under an operator A that sends
    each vector of the mixed basis to a multiple of another: column i goes
    to coef[i] e_k[i] (x) phi_l[i] (indices mod M)."""

    k: np.ndarray
    l: np.ndarray
    coef: np.ndarray


class InteriorWindow:
    """The interior window of the grid `g` at `margin`, known by its index
    set: the columns e_k (x) phi_l of :func:`interior_window`, k and l in
    `inner`, in its column order (source indices `k`, `l`).

    In the mixed basis P = 1 (x) phi of all vectors e_k (x) phi_l, the
    operators of the grid Schrodinger pair send each basis vector to a
    multiple of another (x_k = q^c(k), indices mod M):

        F        (k, l) -> (l, -k)        1
        X, X*    (k, l) -> (k, l -+ 1)    x_k
        Y, Y*    (k, l) -> (k +- 1, l)    x_l
        chi(X, q^a e^{i theta})    (k, l) -> (k, l - a)    e^{i c(k) theta}

    so the images of the window columns under X, Y, S = X + Y and the
    terms of a Weyl row are index maps with coefficients, a tuple of
    :class:`Image` terms per operator (two for S), computed with no grid
    transform and no n x r array; F enters through the matrix elements of
    the F_q products (:func:`_fq_products`).  The window is a product set,
    `inner` x `inner`: `axes` holds it as two axes, on which each image is
    an index map of one axis, and `commutator` gathers the compression
    B* U (S B) - (S* B)* (U B) of an operator U given by its matrix
    elements in the mixed basis from these separable images.  The class
    blocks of S = X + Y restricted to the window give the singular values
    of S B and the windowed defect.
    """

    def __init__(self, g: GammaGrid, margin: int):
        if margin < 0:
            raise ParameterError(f"margin must be nonnegative, got {margin}")
        self.grid, self.margin = g, margin
        self.inner = np.flatnonzero((g.c >= -g.M // 2 + margin) & (g.c <= g.M // 2 - 1 - margin))
        k, l = np.meshgrid(self.inner, self.inner, indexing="ij")
        self.k, self.l = k.ravel(), l.ravel()
        self.x = g.q ** g.c.astype(float)
        self._interior = np.isin(np.arange(g.M), self.inner)

    @property
    def r(self) -> int:
        return self.inner.size ** 2

    @functools.cached_property
    def axes(self) -> "InteriorWindow":
        """This window with `k` and `l` the (w, 1) and (1, w) axes of its
        product set in place of the flat columns, w = len(`inner`): its images
        are the same index maps, each index and coefficient an array over
        one axis, broadcast over the (w, w) grid of columns."""
        view = copy.copy(self)
        view.k, view.l = self.inner[:, None], self.inner[None, :]
        return view

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The dense n x r basis of :func:`interior_window`."""
        return np.kron(np.eye(self.grid.M)[:, self.inner], _phase_modes(self.grid.M, self.inner))

    def position(self, adjoint: bool = False) -> tuple[Image]:
        """X B, or X* B."""
        return (Image(self.k, (self.l + (1 if adjoint else -1)) % self.grid.M, self.x[self.k]),)

    def momentum(self, adjoint: bool = False) -> tuple[Image]:
        """Y B, or Y* B."""
        return (Image((self.k + (-1 if adjoint else 1)) % self.grid.M, self.l, self.x[self.l]),)

    def sum(self, adjoint: bool = False) -> tuple[Image, Image]:
        """S B, or S* B, S = X + Y."""
        return self.position(adjoint) + self.momentum(adjoint)

    def weyl(self, point: GammaPoint) -> tuple[Image, Image]:
        """chi(X, gamma) Y chi(X, gamma)* B and gamma Y B, gamma = q^a e^{i theta}.

        Both send column (k, l) to (k + 1, l): chi* takes it to (k, l + a)
        with e^{-i c(k) theta}, Y on to (k + 1, l + a) with x_{l+a}, and chi
        back to (k + 1, l) with e^{i c(k+1) theta}; gamma Y gives gamma x_l.
        The two phases of chi are combined before rounding, into
        e^{i (c(k+1) - c(k)) theta}, which is e^{i theta} off the wrap and
        the same e^{i theta} as in gamma: off the wrap the terms differ only
        by the rounding of x_{l+a} against q^a x_l, none at q = 1/2."""
        c, (y,) = self.grid.c, self.momentum()
        e = np.exp(1j * point.theta)
        wrap = c[y.k] - c[self.k] - 1   # -M where k + 1 wraps, else 0
        conj = self.x[(self.l + point.k) % self.grid.M] * (e * np.exp(1j * wrap * point.theta))
        return Image(y.k, y.l, conj), Image(y.k, y.l, (self.grid.q ** point.k * e) * y.coef)

    def weyl_row(self, point: GammaPoint) -> float:
        """|| B* (chi(X, gamma) Y chi(X, gamma)* - gamma Y) B ||_2 from
        :meth:`weyl`: distinct columns go to distinct basis vectors, so the
        compression has one entry per column whose target is interior, and
        its norm is the largest of them."""
        conj, scaled = self.weyl(point)
        keep = self._interior[conj.k] & self._interior[conj.l]
        return float(np.abs(conj.coef - scaled.coef)[keep].max(initial=0.0))

    def commutator(self, U: Callable[..., np.ndarray], SB: tuple[Image, ...], SsB: tuple[Image, ...]) -> np.ndarray:
        """B* U (S B) - (S* B)* (U B) (r x r) for an operator U given by its
        matrix elements U(a, b, k, l) = <e_a (x) phi_b, U e_k (x) phi_l>
        (broadcasting index arrays) and the images `SB`, `SsB` of S B and
        S* B on the separable columns (:attr:`axes`).

        Entry (i, j) is read on the (w, w, w, w) grid of (a_i, b_i, k_j,
        l_j): each image term shifts one index of a column and scales it
        by a coefficient of one index, and each table factor of U reads
        three of the four indices, so every gather is a w^3 array
        broadcast to the grid, and no r x r index array is made.  The
        terms are summed in the order of the flat r x r gather, and every
        entry is bit-equal to it."""
        rows, cols = (slice(None), slice(None), None, None), (None, None)
        a, b, k, l = self.axes.k[rows], self.axes.l[rows], self.axes.k[cols], self.axes.l[cols]
        out = (sum(t.coef[cols] * U(a, b, t.k[cols], t.l[cols]) for t in SB)
               - sum(t.coef.conj()[rows] * U(t.k[rows], t.l[rows], k, l) for t in SsB))
        return out.reshape(self.r, self.r)

    @functools.cached_property
    def _class_mask(self) -> np.ndarray:
        """[s, k]: the vector e_k (x) phi_{k-s} of class s is a window column."""
        M = self.grid.M
        s, k = np.arange(M)[:, None], np.arange(M)[None, :]
        return self._interior[k] & self._interior[(k - s) % M]

    def sum_singular_values(self, S: "_SchrodingerSum") -> np.ndarray:
        """The singular values of S B, from the class blocks: S sends the
        window columns of class s into class s + 1, through the columns of
        B_s they pick, so S B is a direct sum over the classes."""
        mask = self._class_mask
        sv = np.linalg.svd(S.blocks * mask[:, None, :], compute_uv=False)
        return sv[np.arange(self.grid.M) < mask.sum(axis=1)[:, None]]

    def sum_windowed_defect(self, S: "_SchrodingerSum") -> float:
        """||B* (S S* - S* S) B||_2: the commutator is block diagonal over
        the classes, and its windowed blocks are its class blocks restricted
        to the window columns of their class."""
        m = self._class_mask
        comm = S.commutator * m[:, :, None] * m[:, None, :]
        return float(np.abs(np.linalg.eigvalsh(comm)).max(initial=0.0))


def _class_blocks(g: GammaGrid) -> tuple[np.ndarray, np.ndarray]:
    """The class blocks B_s (an (M, M, M) array) of the model sum S = X + Y
    on `g` in the mixed basis, built in closed form (see the module
    docstring), and the blocks B_{s-1} B_{s-1}* - B_s* B_s of its
    commutator S S* - S* S on class s.  Column k of B_s is e_k (x) phi_m,
    m = (k - s) mod M, which X sends to x_k times entry k and Y to x_m
    times entry k + 1 of class s + 1 (entry k' of class s + 1 is
    e_k' (x) phi_{k' - s - 1})."""
    M = g.M
    x = g.q ** g.c.astype(float)
    s, k = np.arange(M)[:, None], np.arange(M)[None, :]
    B = np.zeros((M, M, M))
    B[s, k, k] = x[k]                          # X
    B[s, (k + 1) % M, k] = x[(k - s) % M]      # Y
    Bp = B[np.arange(M) - 1]
    return B, Bp @ Bp.transpose(0, 2, 1) - B.transpose(0, 2, 1) @ B


def _block_norms(blocks: np.ndarray, comm: np.ndarray) -> tuple[float, float]:
    """(||S||_2, ||S S* - S* S||_2) from the class blocks of S and of its
    commutator."""
    norm = float(np.linalg.svd(blocks, compute_uv=False).max(initial=0.0))
    return norm, float(np.abs(np.linalg.eigvalsh(comm)).max(initial=0.0))


class _SchrodingerSum(NormalOperator):
    """S = X + Y of the grid Schrodinger pair, applied member by member,
    with ||S|| and its normality defect from the class blocks, which it
    keeps (`blocks`, `commutator`) for the window route."""

    def __init__(self, X: GridOperator, Y: GridOperator):
        self.X, self.Y = X, Y
        self.blocks, self.commutator = _class_blocks(X.grid)
        self.norm2, self.normality_defect = _block_norms(self.blocks, self.commutator)

    @property
    def dim(self) -> int:
        return self.X.dim

    def apply(self, B: np.ndarray) -> np.ndarray:
        return self.X.apply(B) + self.Y.apply(B)

    def apply_adjoint(self, B: np.ndarray) -> np.ndarray:
        return self.X.apply_adjoint(B) + self.Y.apply_adjoint(B)


def closure_sum(X, Y) -> NormalOperator:
    """The operator sum X + Y wrapped with normality diagnostics.

    In the finite model this is the plain sum standing in for the closure
    of the densely defined sum; no exact normality is claimed, the defect
    and lattice-distance reports quantify the truncation.  When Y is zero
    the sum is X itself, with its eigensystem and caches.  The members of
    a grid Schrodinger pair (either order) give their structured sum;
    any other pair the dense matrix sum.
    """
    Xm, Ym = _as_normal(X), _as_normal(Y)
    if Xm.dim != Ym.dim:
        raise DimensionError(f"dimension mismatch: {Xm.dim} vs {Ym.dim}")
    if Ym.is_zero:
        return Xm
    if (isinstance(Xm, GridOperator) and isinstance(Ym, GridOperator) and Xm.grid is Ym.grid
            and {Xm.kind, Ym.kind} == {"position", "fourier"}):
        return _SchrodingerSum(Xm, Ym)
    return NormalMatrix(Xm.entries + Ym.entries)


@dataclass(frozen=True)
class Q2Pair:
    """A model pair (Y, X) with its grid and window.

    It is also the generating pair (bt, at) = (Y, X) of a representation.
    `window` spans the subspace where the cyclic model represents the
    continuum, and residual checks are confined to it: an orthonormal basis
    (dim x r columns), or a grid window as its index set
    (:class:`InteriorWindow`), on which the witnesses read the grid
    Schrodinger pair and its Y = 0 control in closed form; None means no
    confinement (exact pairs).  `window_or_identity` gives the dense basis,
    built from an index set on first read.  `provenance` records the block
    construction when generated.
    """

    Y: NormalOperator
    X: NormalOperator
    grid: GammaGrid
    window: np.ndarray | InteriorWindow | None = None
    provenance: tuple = ()

    def __post_init__(self):
        B = self.window
        if isinstance(B, InteriorWindow) and B.grid.size != self.dim:
            raise DimensionError(f"interior window on {B.grid.size} grid points needs dimension {self.dim}")
        if B is None or isinstance(B, InteriorWindow):
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
        return self.window.basis if isinstance(self.window, InteriorWindow) else self.window


def grid_generators(g: GammaGrid) -> list[tuple[str, GammaPoint]]:
    """The two generators of the grid group as lattice points:
    index (1, 0) (the point q for M >= 4) and (0, 1) (the phase omega)."""
    return [("q", g.point(1, 0)), ("omega", g.point(0, 1))]


def schrodinger_pair(g: GammaGrid, margin: int | None = None) -> Q2Pair:
    """The grid Schrodinger pair: X = diag(grid values), Y = F* X F.

    Both are exactly normal and held by their structure
    (:class:`~qazb.opalg.GridOperator`): the grid values and lattice data
    with basis 1 for X and F* for Y.  The margin defaults to
    `default_margin(M)`, and the window is given by its index set
    (:class:`InteriorWindow`), on which the witnesses read the pair in
    closed form.
    """
    if margin is None:
        margin = default_margin(g.M)
    return Q2Pair(
        Y=GridOperator(g, "fourier"),
        X=GridOperator(g, "position"),
        grid=g,
        window=InteriorWindow(g, margin),
        provenance=(("schrodinger", g.M),),
    )


def _model_window(pair: Q2Pair) -> InteriorWindow | None:
    """The pair's window when it is an index set and X is the position
    GridOperator of its grid, Y the Fourier one (the grid Schrodinger pair)
    or the zero one (its Y = 0 control): the witnesses then take the
    closed-form route of :class:`InteriorWindow`.  None for any other pair,
    which takes the window-column route."""
    w, X, Y = pair.window, pair.X, pair.Y
    if (isinstance(w, InteriorWindow) and isinstance(X, GridOperator) and isinstance(Y, GridOperator)
            and X.kind == "position" and Y.kind in ("fourier", "zero") and X.grid is Y.grid is w.grid is pair.grid):
        return w
    return None


def weyl_residual(pair: Q2Pair, point: GammaPoint) -> float:
    """|| B* (chi(X,gamma) Y chi(X,gamma)* - gamma Y) B ||_2, with B the
    pair's window basis, from the n x r block C Y (C* B) - gamma Y B; the
    chi values of X are read once and applied by `spectral_apply`.  On the
    grid Schrodinger pair with its interior window, the closed form of
    :meth:`InteriorWindow.weyl_row`, and 0 for its Y = 0 control."""
    if point.zero:
        raise DomainError("chi(X, gamma) is defined for nonzero lattice points only")
    w = _model_window(pair)
    if w is not None:
        return 0.0 if pair.Y.is_zero else w.weyl_row(point)
    q = pair.grid.q
    Y = pair.Y
    B = pair.window_or_identity()
    chi = lattice_values(pair.X, chi_values(point.k, point.theta), q)
    CYCB = pair.X.spectral_apply(chi, Y.apply(pair.X.spectral_apply(chi.conj(), B)))
    return operator_norm(B.conj().T @ (CYCB - point.value(q) * Y.apply(B)))


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

    def spectrum(T: NormalOperator):
        try:
            _, _, zero, rel = T.lattice(q)
        except DomainError:
            return None, np.inf
        return zero, max(float(np.max(rel, initial=0.0)), T.eig_certificate or 0.0)

    zx, sx = spectrum(pair.X)
    _, sy = spectrum(pair.Y)
    kmin = None if zx is None else float(np.min(np.abs(pair.X.eigenvalues), initial=np.inf))
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

    On the window columns each product is applied to the block [B, S B]
    factor by factor, so the commutator enters as U (S B) - S (U B); the
    closed form gathers its compression B* U (S B) - (S* B)* (U B) from
    the matrix elements of U.  The F_q values are computed once and serve
    both orders.  The windowed defect is
    ||B* (S S* - S* S) B||, and the modulus distance comes from the
    singular values of S B, whose largest is ||S B||.  ||S|| and the raw
    defect are those of the sum of :func:`closure_sum`: the class blocks
    for the model pair, the certified X for the Y = 0 control, the dense
    norms otherwise.  The grid Schrodinger pair and its Y = 0 control on an
    interior window take the closed forms of :class:`InteriorWindow` (r x r
    gathers from one M-point transform of the F_q values, no grid
    transform), any other pair the window columns.
    """
    params = QExpParams(pair.grid.q)
    S = closure_sum(pair.X, pair.Y)
    w = _model_window(pair)
    if w is None:
        res, rs, wd, sigma = _column_witnesses(pair, S, params)
    else:
        res, rs, wd, sigma = _closed_form_witnesses(pair, w, S, params)
    s, defect = S.norm2, S.normality_defect
    return ExpIdentityReport(
        residual=res,
        residual_swapped=rs,
        sum_defect=0.0 if s == 0.0 else defect / (s * s),
        sum_defect_windowed=0.0 if s == 0 else wd / s ** 2,
        gamma_distance=_modulus_distance(sigma, pair.grid.q),
        degraded=defect > DEFAULT_DEFECT_RTOL * s ** 2,
    )


def _sum_moduli(pair: Q2Pair, S: NormalOperator, w: InteriorWindow | None) -> np.ndarray:
    """The singular values of S B, S = X + Y: on the closed-form route `w`,
    x_k over the window columns for the Y = 0 control (S = X sends each
    column to x_k times a distinct basis vector) and the class blocks of S
    for the Schrodinger pair; else the SVD of the n x r block, which the
    window-column witnesses take of the S B they hold."""
    if w is None:
        return np.linalg.svd(S.apply(pair.window_or_identity()), compute_uv=False)
    return w.x[w.k] if pair.Y.is_zero else w.sum_singular_values(S)


def _column_witnesses(pair: Q2Pair, S: NormalOperator, params: QExpParams):
    """(residual, swapped residual, ||B* (S S* - S* S) B||, singular values
    of S B) of :func:`exp_identity_residual`, with every operator applied to
    the n x r window block B through its members' methods."""
    M = pair.grid.M
    B = pair.window_or_identity()
    Bh = B.conj().T
    SB, SsB = S.apply(B), S.apply_adjoint(B)
    sigma = np.linalg.svd(SB, compute_uv=False)
    scale = float(sigma.max(initial=0.0))
    cols = np.hstack([B, SB])
    r = B.shape[1]

    fq_x, fq_y = fq_eigenvalues(pair.X, params, M), fq_eigenvalues(pair.Y, params, M)

    def fx(A: np.ndarray) -> np.ndarray:
        return pair.X.spectral_apply(fq_x, A)

    def fy(A: np.ndarray) -> np.ndarray:
        return pair.Y.spectral_apply(fq_y, A)

    def witness(U_cols: np.ndarray) -> float:   # U applied to [B, S B]
        if scale < 1e-300:
            return 0.0
        return operator_norm(Bh @ (U_cols[:, r:] - S.apply(U_cols[:, :r]))) / scale

    wd = operator_norm(SsB.conj().T @ SsB - SB.conj().T @ SB)
    return witness(fy(fx(cols))), witness(fx(fy(cols))), wd, sigma


def _fq_products(f: np.ndarray, M: int):
    """The matrix elements U(a, b, k, l) = <e_a (x) phi_b, U e_k (x) phi_l>
    in the mixed basis of F_q(Y) F_q(X), F_q(X) F_q(Y) and F_q(X) for the
    F_q values `f` of X on the grid of order M (indices mod M).  F_q(X) is
    block diagonal with the circulant blocks C_k[m, l] = c[k, m - l], c the
    M-point inverse transform of f along the phase axis; Y = F* X F has
    the lattice data of X, so F_q(Y) = F* C F, and F sends (k, l) to
    (l, -k).  So each element of F_q(Y) F_q(X) = F* C F C and of
    F_q(X) F_q(Y) = C F* C F is a product of two entries of c."""
    c = np.fft.ifft(f.reshape(M, M), axis=1)

    def stated(a, b, k, l):
        return c[k, (b - l) % M] * c[b, (k - a) % M]

    def swapped(a, b, k, l):
        return c[l, (k - a) % M] * c[a, (b - l) % M]

    def fq_x(a, b, k, l):
        return np.where(a == k, c[k, (b - l) % M], 0.0)

    return stated, swapped, fq_x


def _fq_orbit_table(w: np.ndarray, M: int) -> np.ndarray:
    """The matrix elements of F_q(Y (x) X) in the mixed basis of two grid
    spaces of order M, the two-leg analogue of :func:`_fq_products`, from
    its computed values w (n, n): rows the positions (k, j) of the X leg,
    columns the eigenvectors (L, m) of Y = F* X F (eigenvalue the grid
    value of (L, m)), as `build_rep` holds them for the Schrodinger bt.

    Y (x) X sends (K, L) (x) (k, l) to x_L x_k (K + 1, L) (x) (k, l - 1):
    a cyclic shift along the orbit of M points with L, k and K + l fixed,
    of constant weight x_L x_k.  So F_q of it is circulant on each orbit:

        <(K', L) (x) (k, l'), F_q(Y (x) X) (K, L) (x) (k, l)> = c[L, k, K - K']

    for K' + l' = K + l (mod M), and 0 off the orbit, with c[L, k] the
    M-point inverse transform along m of w[(k, 0), (L, m)] = F_q(q^(c(L) +
    c(k)) e^(2 pi i m / M)).  One transform per pair of moduli (L, k): the
    table c (M, M, M), indices mod M."""
    return np.fft.ifft(w.reshape(M, M, M, M)[:, 0], axis=2).transpose(1, 0, 2)


def _closed_form_witnesses(pair: Q2Pair, w: InteriorWindow, S: NormalOperator, params: QExpParams):
    """The quantities of :func:`_column_witnesses` for the grid Schrodinger
    pair on its interior window `w`, with no grid transform and no n-row
    array.  Each witness B* U (S B) - (S* B)* (U B) is gathered from the
    matrix elements of U in the mixed basis (:func:`_fq_products`, one
    M-point transform per grid order of the F_q values of X, which as the
    grid's position operator has the grid's lattice data) at the
    closed-form images of S B and S* B on the separable window columns
    (:attr:`InteriorWindow.axes`, :meth:`InteriorWindow.commutator`: w^3
    gathers broadcast to the (w, w, w, w) grid, no r x r index array);
    sigma(S B) is :func:`_sum_moduli`, and the windowed defect comes from
    the class blocks of S.  For the Y = 0 control (S = X, F_q(Y) = 1)
    both products are F_q(X), gathered the same way, and the windowed
    defect of the diagonal X is 0."""
    g = pair.grid
    stated, swapped, fq_x = _fq_products(fq_lattice(*g.lattice, params), g.M)
    control = pair.Y.is_zero
    images = w.axes.position if control else w.axes.sum
    SB, SsB = images(), images(adjoint=True)
    sigma = _sum_moduli(pair, S, w)
    scale = float(sigma.max(initial=0.0))

    def witness(U) -> float:
        if scale < 1e-300:
            return 0.0
        return operator_norm(w.commutator(U, SB, SsB)) / scale

    if control:
        res = witness(fq_x)
        return res, res, 0.0, sigma
    return witness(stated), witness(swapped), w.sum_windowed_defect(S), sigma


def windowed_modulus_distance(pair: Q2Pair) -> float:
    """Mean lattice distance of the modulus spectrum of X + Y on the window.

    The continuum closure is normal with spectrum in Gamma-bar; its modulus
    content is the spectrum of S*S, which is self-adjoint, so the windowed
    compression is free of the spectral pollution that invalidates raw
    finite-section eigenvalues of the non-normal S.  Returns the mean
    relative distance of sqrt(eig(B* S*S B)) to q^Z (B spans the window),
    taken as the singular values of S B: the eigenvalues of the Gram
    matrix (S B)* (S B) would square the q^(+-M/2) range of S B.
    """
    S = closure_sum(pair.X, pair.Y)
    return _modulus_distance(_sum_moduli(pair, S, _model_window(pair)), pair.grid.q)


def _modulus_distance(moduli: np.ndarray, q: float) -> float:
    """The distance of `windowed_modulus_distance` from the singular values
    of the n x r block S B."""
    if moduli.size == 0:
        return 0.0
    _, _, zero, rel = snap_spectrum(moduli.astype(complex), q, scale=float(np.max(moduli)))
    return float(np.mean(np.where(zero, 0.0, rel)))


def random_regular_pair(blocks, g: GammaGrid) -> Q2Pair:
    """Direct sum of elementary regular blocks on a small Hilbert space.

    Block specs: ("trivial", gamma0) contributes the 1-dimensional pair
    (0, gamma0) for a nonzero lattice point gamma0, and
    ("schrodinger", P) embeds the P-point sub-grid pair (dimension P^2,
    P must divide M so its spectra stay grid-supported).  The direct sum
    satisfies the pair axioms blockwise; the window basis and the
    eigensystems are assembled blockwise too (sub-grid blocks get their
    own interior window at the default margin, which is empty for P = 2: a
    2-point modulus axis has no wrap-free interior, and the block
    contributes rows but no columns).
    """
    ys, xs, ws, prov = [], [], [], []   # ys, xs: (entries, eigensystem) per block
    for spec in blocks:
        kind = spec[0]
        if kind == "trivial":
            point = spec[1]
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
            ws.append(sp.window_or_identity())
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
        window=None if pair.window is None else U @ pair.window_or_identity(),
        provenance=pair.provenance + (("conjugated", None),),
    )
