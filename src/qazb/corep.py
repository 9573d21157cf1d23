"""Unitary representations of the quantum az+b group at grid scale.

A representation is a unitary U on H tensor H_grid satisfying the
comultiplication identity (id (x) Delta) U = U_12 U_13, where Delta acts on
the grid generators by Delta(a) = a (x) a and Delta(b) = a (x) b +. b (x) I.
Every such U comes from a unique pair (bt, at) on H through

    U = F_q(bt (x) b) chi(at (x) I, I (x) a),

and conversely every pair satisfying the q^2-pair axioms yields a
representation.  This module builds U from a pair, measures the
corepresentation residual, and decomposes U back into its pair.

Grid-leg convention: b is multiplication by the grid values (diagonal) and
a = F b F*, so that chi(a, gamma) b chi(a, gamma)* = gamma b holds off the
wrap window.  This orientation makes the extraction algebra exact: writing
U_{g,g'} for the H-valued matrix elements in the position basis of the
grid leg, the Fourier kernel collapses row sums to

    G(g) = sum_{g'} U_{g,g'} = F_q(bt * gamma_g),

a commuting unitary family determining bt, while the normalised elements
G(g)* U_{g, g + d} average to the spectral projections of at.

The corepresentation residual follows the same commutation-form witness as
the exponential identity (see q2pair): with V = chi(at (x) I, I (x) a),
the product Q = U_12 U_13 (V_12 V_13)* equals, in the continuum,
F_q applied to the closure of S' = bt (x) a (x) b + bt (x) b (x) I, so Q
commutes with S' on the interior window and acts as the identity on
ker(bt) (x) grid legs, where S' vanishes and F_q(0) = 1.

U = W V is kept through its two block factors: W = F_q(bt (x) b) is block
diagonal over grid positions, and V = (I (x) F) Z (I (x) F*) conjugates
the block-diagonal Z = blocks chi(at, gamma_a) by the grid Fourier
unitary F.  Both are diagonal in eigen-coordinates: Z_a = V_a diag(z_a)
V_a* and W_g = V_b diag(w_g) V_b*, with V_a, V_b the eigenbases of at and
bt and z, w the chi and F_q values on their lattice data.  The unitarity
defect of a built U is certified from these eigen-data (the defects of
V_a, V_b and F and the distance of |w|, |z| from 1), so no block is
formed to build U; the residual applies U and V in these coordinates, as
matrix products on one axis (F on a grid leg, a change of eigenbasis on
H) and multiplies by the values, and the dense U is materialised only
when it is read.  Q reduces to W_1 F_1 Z_1 . W_2 . Z_1* F_1*, whose only
factor on grid leg 2 is the diagonal W_2, so leg 2 stays in window
coordinates and W_2 folds into the leg-2 projection the witness reads.
The end factors are folded per grid position of leg 1: Z_1* and the
change to the V_b coordinates of W_2 with the window basis on H into
input factors, and the change back, W_1 and the read on H into output
factors.  So a window sample enters Q from its window coordinates and
leaves it read on the window (or on the whole leg 2, on ker(bt)), and of
the products on the full width of a tensor only F_1 and the change from
V_b to V_a coordinates are left, taken one sample at a time.

The two rows of the `corep` command are gathered instead, from the values
`build_rep` holds and no dense basis.  For the grid Schrodinger pair, in
the mixed basis e_k (x) phi_l of H and of both grid legs (see
:class:`~qazb.q2pair.InteriorWindow`), V is an index map and W is
circulant on orbits of M points, read off one table of M^3 entries
(:func:`~qazb.q2pair._fq_orbit_table`), and each term of S' is an index
map.  So Q and S' keep four index sums, and B* [Q, S'] B is a band of at
most (K values) x (l values) of the window entries a row, each six
entries of the table (:class:`_GatheredWindow`), which takes the whole
draw with no n-row array.  For the classical pair (H = C, bt = 0), Q - 1
on the window is read from the computed F_q(0) and chi values in two
products (:func:`_classical_kernel`).  Every other pair (seeded,
conjugated, the failing `swapped` and `xx`) takes the window columns as
above, and that per-sample chain is the oracle of the gathers.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    ExtractionError,
    ParameterError,
)
from .gamma import GammaGrid
from .opalg import (
    NormalMatrix,
    chi_values,
    eigen_stack,
    lattice_calculus,
    lattice_values,
    operator_norm,
)
from .q2pair import (InteriorWindow, Q2Pair, _fq_orbit_table, _model_window, check_margin, corep_margin,
                     interior_window)
from .qexp import QExpParams, fq_grid, invert_fq_family

__all__ = [
    "Representation",
    "CorepReport",
    "ExtractionReport",
    "grid_operators",
    "build_rep",
    "check_memory",
    "check_corep_memory",
    "refuse_beyond_memory",
    "refuse_dense_u",
    "corep_residual",
    "extract_pair",
    "g_family",
    "save_representation",
    "load_representation",
]


def as_pair_on_h(pair) -> Q2Pair:
    """The generating pair (bt, at) of a representation is a Q2Pair with
    bt = Y and at = X; anything else is rejected."""
    if not isinstance(pair, Q2Pair):
        raise DimensionError(f"expected a Q2Pair, got {type(pair).__name__}")
    return pair


def _available_memory() -> int | None:
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name == "MemAvailable":
                    return int(value.split()[0]) * 1024   # given in kB
    except (OSError, ValueError, IndexError):
        pass
    return None


def _memory_figure() -> str:
    """Which figure :func:`_physical_memory` reads, for a refusal message."""
    return "available (MemAvailable)" if _available_memory() is not None else "in total (MemAvailable unreadable)"


def _physical_memory() -> int:
    """Bytes of physical memory a run may take: the memory available
    (MemAvailable), or the machine's total where that cannot be read."""
    have = _available_memory()
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if have is None else have


def refuse_beyond_memory(need: int, subject: str, what: str) -> None:
    """Refuse a working set of `need` bytes (the `what` of `subject`) that
    exceeds :func:`_physical_memory`, with ParameterError naming both byte
    counts and the figure read."""
    have = _physical_memory()
    if need > have:
        raise ParameterError(
            f"{subject} needs {need} bytes for its {what}, "
            f"more than the {have} bytes of physical memory {_memory_figure()}"
        )


# Complex arrays of the size of U that building U and a roundtrip (U, the
# gathered U_{g, g+s} and their products) hold at their peak (tracemalloc
# peak / 16 (d M^2)^2 at d = 4-16, M = 4-12: 3.03-3.13 for reading U,
# 3.04-3.26 for a roundtrip), rounded up.
DENSE_U_COPIES = 4


def refuse_dense_u(dim: int, subject: str) -> None:
    """Refuse a dense U of dimension `dim` whose DENSE_U_COPIES copies exceed physical memory."""
    refuse_beyond_memory(16 * DENSE_U_COPIES * dim * dim, subject, f"{DENSE_U_COPIES} dense U-sized arrays")


def check_memory(d: int, n: int, r: int, samples: int, r_h: int) -> None:
    """Refuse a corep residual on the window columns (the per-sample
    chain of :class:`_CommutatorReads`) on H of dimension d and n grid
    points, with r window columns on each grid leg and r_h on H, over
    `samples` samples, when its working set exceeds :func:`_physical_memory`;
    ParameterError names the byte count.  Only the residual is counted:
    `build_rep` holds (n, d) values and d x d or n x n bases and their
    products, and no (n, d, d) block.

    Bytes, at w = max(r_h, r) columns for r: the samples and their
    temporaries, 32 a window coordinate; the four per-position factor
    stacks of Q, n d w complex numbers each, and per sample tensors of at
    most d n 2w complex numbers and thinner ones (the folds, d w^2, and
    the leg-1 entries, n w^2): at most 13 d n w + 9 d w^2 with the stacks
    for d = n.  The kernel branch reads Q on the whole grid leg, (n, d, n)
    tensors.  No row of the `corep` command takes this route: both are
    gathered (see :func:`check_corep_memory`).

    The tracemalloc peaks of the whole residual on the Schrodinger pair,
    32 samples, against the count: 0.87-0.89 of it at width 2 (M = 4-16)
    and 0.72-0.79 at width 4 (M = 6-10)."""
    w = max(r_h, r)
    refuse_beyond_memory(32 * samples * w ** 3 + 208 * d * n * w + 144 * d * w * w,
                         f"corep with d = {d} on {n} grid points", "residual samples on the chain route")


def check_corep_memory(M: int, margin: int, samples: int) -> None:
    """Refuse the two grid rows of `corep` (the classical pair and the
    Schrodinger pair, both gathered) at grid order M and window margin
    `margin` over `samples` samples when their residual's working set
    exceeds :func:`_physical_memory`.  With w = M - 2
    margin and r_tot = w^6 window points, the Schrodinger row holds the
    draw and its images, 128 bytes a sample and window point, the
    nonzeros of L, 32 bytes for each of at most w^2 a window point, and
    the F_q table, 48 M^3 bytes; the classical row holds Q - 1 on leg 1
    and on the window's k values of leg 2, 64 bytes a sample and entry of
    M^3 w.  As in :func:`check_memory`, only the residual is counted.

    The tracemalloc peaks of the residual, 32 samples, against the count:
    0.31-0.79 for the Schrodinger row and 0.50-0.85 for the classical one
    (M = 4-40, widths 2-8), past about 1 MB that numpy allocates once, on
    a process's first residual."""
    w = M - 2 * margin
    r_tot = w ** 6
    need = max(128 * samples * r_tot + 32 * r_tot * w * w + 48 * M ** 3, 64 * samples * M ** 3 * w)
    refuse_beyond_memory(need, f"corep on {M * M} grid points", f"gathered residual samples (window width {w})")


@dataclass(frozen=True)
class Representation:
    """A unitary U on H (x) H_grid, flat index h * M^2 + g (H-major).

    A built representation holds U = W V through the eigenvalues of its
    factors' blocks on the eigenbases V_b of bt and V_a of at, n = M^2:
    `fq_values` w (n, d) of the block-diagonal W, W_g = F_q(gamma_g * bt)
    = V_b diag(w_g) V_b* per grid position g, and `chi_values` z (n, d) of
    V = (I (x) F) Z (I (x) F*), Z_a = chi(at, gamma_a) = V_a diag(z_a) V_a*
    per Fourier slot a, and the `unitarity_defect` certified from them.
    The blocks and the dense `U` are formed only when `U` is first read
    (refused with ParameterError when DENSE_U_COPIES arrays of its
    16 (d M^2)^2 bytes exceed physical memory); a loaded representation
    holds only its dense U and its measured defect.
    """

    grid: GammaGrid
    h_dim: int
    pair: Q2Pair | None = None
    unitarity_defect: float = 0.0
    fq_values: np.ndarray | None = None
    chi_values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.h_dim * self.grid.size

    @cached_property
    def U(self) -> np.ndarray:
        refuse_dense_u(self.dim, f"a representation of dimension {self.dim}")
        d, n = self.h_dim, self.grid.size
        # the (n, d, d) stacks W_g = V_b diag(w_g) V_b* and Z_a = V_a diag(z_a) V_a*
        W, B = eigen_stack(self.pair.Y.basis, self.fq_values), eigen_stack(self.pair.X.basis, self.chi_values)
        V = _conjugate_by_fourier(B, self.grid).reshape(d, n, d * n).transpose(1, 0, 2)
        U = (W @ V).transpose(1, 0, 2).reshape(d * n, d * n)
        U.setflags(write=False)
        return U


def grid_operators(g: GammaGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid-leg pair (b, a): b = diag(grid values), a = F b F*."""
    b = np.diag(g.values)
    F = g.fourier
    return b, F @ b @ F.conj().T


def _conjugate_by_fourier(B: np.ndarray, g: GammaGrid) -> np.ndarray:
    """(I (x) F) blockdiag(B) (I (x) F*) as a dense matrix on H (x) H_grid,
    for blocks B (n, d, d) indexed by the Fourier slot; one contraction."""
    F = g.fourier
    n, d, _ = B.shape
    return np.einsum("ga,ahk,ba->hgkb", F, B, F.conj(), optimize=True).reshape(d * n, d * n)


def chi_kron(a_t: NormalMatrix, g: GammaGrid) -> np.ndarray:
    """chi(at (x) I, I (x) a) as a dense unitary on H (x) H_grid.

    Expanded over the eigenprojections of the grid operator a = F b F*:
    the blocks chi(at, gamma_g), one per grid position g, conjugated by
    I (x) F in one contraction.
    """
    return _conjugate_by_fourier(lattice_calculus(a_t, chi_values(*g.lattice), g.q, M=g.M), g)


def _max_norm(stack: np.ndarray) -> float:
    """The largest 2-norm over a stack of matrices."""
    return float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1))))


def _basis_defect(V: np.ndarray) -> float:
    """||V* V - 1||_F of a square basis V from one product (exactly 0.0 for
    an exact identity); it bounds ||V* V - 1||_2 = ||V V* - 1||_2."""
    return float(np.linalg.norm(V.conj().T @ V - np.eye(len(V))))


def _factor_defect(V: np.ndarray, vals: np.ndarray) -> float:
    """A bound on max ||A* A - 1||_2 over the blocks A = V diag(v) V*, v a
    row of `vals`: with e = ||V* V - 1|| and h = max | |v|^2 - 1 |,
    A* A - 1 = (V V* - 1) + V (|v|^2 - 1) V* + V v-bar (V* V - 1) v V*,
    at most e + (1 + e) h + (1 + e)(1 + h) e, as ||V||^2 <= 1 + e."""
    e = _basis_defect(V)
    h = float(np.max(np.abs(np.abs(vals) ** 2 - 1.0)))
    return e + (1.0 + e) * h + (1.0 + e) * (1.0 + h) * e


def build_rep(pair, g: GammaGrid) -> Representation:
    """Factor U = F_q(bt (x) b) chi(at (x) I, I (x) a) for a pair on H.

    F_q(bt (x) b) is block diagonal over the grid-leg position basis, with
    block g equal to F_q(gamma_g * bt); chi is the blocks chi(at, gamma_a)
    conjugated by I (x) F.  The blocks' eigenvalues, computed once on the
    lattice data of bt and at, are kept on the representation, and no
    block is formed.  The unitarity defect is certified from the factors:
    W and Z by :func:`_factor_defect` on (V_b, w) and (V_a, z), I (x) F
    and I (x) F* by ||F* F - 1||_F of the dense F the residual multiplies
    by; if A* A - 1 and B* B - 1 have norms a and b, then (AB)* AB - 1
    has norm at most (1 + a)(1 + b) - 1, applied to W, I (x) F, Z and
    I (x) F* in turn.
    """
    p = as_pair_on_h(pair)
    w = lattice_values(p.Y, fq_grid(g, QExpParams(g.q)), g.q, M=g.M)
    z = lattice_values(p.X, chi_values(*g.lattice), g.q, M=g.M)
    defect_f = _basis_defect(g.fourier)
    defect = 0.0
    for delta in (_factor_defect(p.Y.basis, w), defect_f, defect_f, _factor_defect(p.X.basis, z)):
        defect += delta + defect * delta
    for vals in (w, z):
        vals.setflags(write=False)
    return Representation(grid=g, h_dim=p.dim, pair=p, unitarity_defect=defect,
                          fq_values=w, chi_values=z)


def _generating_pair(rep: Representation) -> Q2Pair:
    """The pair a representation was built from; a loaded one has none."""
    if rep.pair is None:
        raise ExtractionError("corep residual needs the generating pair; extract it first")
    return rep.pair


def _on_h(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A matrix A on the H leg of a (d, ...) tensor."""
    return (A @ v.reshape(A.shape[1], -1)).reshape(A.shape[:1] + v.shape[1:])


class _LegOps:
    """Actions on H (x) grid (x) grid tensors (d, n, m) in eigen-coordinates.

    With Z_a = V_a diag(z_a) V_a* and W_g = V_b diag(w_g) V_b*, every leg
    of U = W V, V = (I (x) F) Z (I (x) F*), is a chain of two kinds of
    steps: a matrix product on one axis (F or F* on a grid leg, a change
    between the standard basis and the eigenbases V_a, V_b on H) and an
    elementwise multiply by the values z, z-bar or w on H and one grid
    leg.  F commutes with every change of basis on H, so a leg changes
    basis only where the next multiply needs it.  It holds V_a, V_b, V_a*
    and the changes V_b* V_a and V_a* V_b between them, and the pair's bt
    `Y`, which it applies and never reads as a matrix.

    `q_factored` takes Q on a tensor held in thin coordinates on every
    leg (a basis P on H, G (n x m) on grid leg 2, and leg 1 entered
    through F*), reads H and leg 2 by projections, and returns leg 1
    first; the literal legs are the oracle it is tested against.
    """

    def __init__(self, rep: Representation):
        _generating_pair(rep)
        self.g = rep.grid
        self.d = rep.h_dim
        self.n = self.g.size
        self.F = self.g.fourier
        self.Fh = self.F.conj()   # F* (F is symmetric)
        self.Y = rep.pair.Y
        self.Va, self.Vb = rep.pair.X.basis, self.Y.basis
        self.Vah = self.Va.conj().T
        # changes of coordinates on H between the eigenbases of at (a) and of bt (b)
        self.a_b, self.b_a = self.Vb.conj().T @ self.Va, self.Vah @ self.Vb
        self.chi, self.fq = rep.chi_values.T, rep.fq_values.T   # (d, n)
        # the values on H and grid leg 1 or 2 of a (d, n, n) tensor
        z = self.chi
        self.z = {1: z[:, :, None], 2: z[:, None, :]}
        self.zc = {1: z.conj()[:, :, None], 2: z.conj()[:, None, :]}
        self.w = {1: self.fq[:, :, None], 2: self.fq[:, None, :]}
        self.bvals = self.g.values

    def _on_grid(self, F: np.ndarray, v: np.ndarray, leg: int) -> np.ndarray:
        """F on grid leg `leg` (1 or 2) of a tensor (F symmetric on leg 2);
        a new array."""
        if leg == 1:
            return np.matmul(F, v)
        return (v.reshape(-1, self.n) @ F).reshape(v.shape)

    def _literal_leg(self, v: np.ndarray, leg: int, u: bool) -> np.ndarray:
        """The literal leg W F Z F* (U, when `u`) or F Z* F* (V*) on H and
        grid leg `leg`."""
        x = _on_h(self.Vah, self._on_grid(self.Fh, v, leg))
        if not u:
            x *= self.zc[leg]
            return self._on_grid(self.F, _on_h(self.Va, x), leg)
        x *= self.z[leg]
        x = _on_h(self.a_b, self._on_grid(self.F, x, leg))
        x *= self.w[leg]
        return _on_h(self.Vb, x)

    def u12(self, v: np.ndarray) -> np.ndarray:
        return self._literal_leg(v, 1, True)

    def u13(self, v: np.ndarray) -> np.ndarray:
        return self._literal_leg(v, 2, True)

    def vh12(self, v: np.ndarray) -> np.ndarray:
        return self._literal_leg(v, 1, False)

    def vh13(self, v: np.ndarray) -> np.ndarray:
        return self._literal_leg(v, 2, False)

    def fold(self, G: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
        """W_2 from leg-2 coordinates in G (n x m) to leg 2 read by P*
        (P: n x p, None for the n positions): K_h = G^T diag(w_h) P-bar,
        (d, m, p), one per index h of the eigenbasis V_b."""
        K = G.T[None] * self.fq[:, None, :]
        return K if P is None else K @ P.conj()

    def entry(self, P: np.ndarray) -> np.ndarray:
        """The input factors R[g] = V_b* V_a diag(z-bar_g) V_a* P (n, d, p)
        on H, one per grid position g of leg 1 after F_1*: Z_1* and the
        change to the V_b coordinates of W_2 on the thin basis P (d x p)."""
        R = self.chi.conj().T[:, :, None] * _on_h(self.Vah, P)
        return np.matmul(self.a_b, R)

    def exit(self, H: np.ndarray) -> np.ndarray:
        """The output factors T[g] = H diag(w_g) V_b* V_a (n, d', d) on H,
        one per grid position g of leg 1: the change to V_b coordinates,
        W_1 and the read H (d' x d, from V_b coordinates)."""
        return (H * self.fq.T[:, None, :]) @ self.a_b

    def q_factored(self, y: np.ndarray, R: np.ndarray, K: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Q = U_12 U_13 (V_12 V_13)* on P (x) B (x) G c, read by H_out on H
        and by P_2* on leg 2, as an (n, d', p) tensor over the positions of
        leg 1, from the coordinates c (p_h, m_1, m): y = (F* B) c (n, p_h,
        m) is leg 1 entered through F_1*, R = entry(P), K = fold(G, P_2)
        and T = exit(H_out).

        Evaluated as W_1 F_1 Z_1 . W_2 . Z_1* F_1*: the literal chain u12
        u13 vh13 vh12 less its two adjacent F* F products (F_1 commutes
        with everything acting on H (x) leg 2) and less F_2 Z_2 Z_2* F_2*,
        which is V_13 V_13* = 1 (the F and Z terms of the unitarity
        certificate bound its distance from 1).  Z_1* and the change to
        V_b coordinates reach the sample per position through R, and the
        change back from V_a coordinates, W_1 and the read of H leave it
        through T.  No factor after W_2 acts on leg 2, so W_2 and the read
        of leg 2 are the one batched product K.  The products of full
        width left are the change from V_b to V_a coordinates on H and F_1.
        """
        x = np.matmul(np.matmul(R, y).transpose(1, 0, 2), K)   # W_2 . Z_1* F_1*, (d, n, p)
        x = _on_h(self.b_a, x)
        x *= self.z[1]                                          # Z_1
        x = self.F @ x.transpose(1, 0, 2).reshape(self.n, -1)   # F_1, leg 1 first
        return np.matmul(T, x.reshape(self.n, self.d, -1))      # W_1, and the read of H


class _CommutatorReads:
    """The window reads of Q S' and S' Q on the samples Bh (x) Bg (x) Bg c
    of a corep residual, from their window coordinates c (r_h, r, r).

    A sample enters Q through :meth:`_LegOps.q_factored`: leg 1 through
    F* Bg for v and F* a Bg, F* b Bg for the two terms of S'v (F* a =
    b F*), one (3n x r) product per sample, and H through the input
    factors of P = Bh for v and P = bt Bh for S'v (bt Bh and bt* Bh are
    the pair's `apply` and `apply_adjoint` of Bh); leg 2 stays in
    coordinates Bg for v and [b Bg | Bg] for S'v.  Q(S'v) is read on leg
    2 by Bg* and on H by Bh*, Qv on leg 2 by [b-bar Bg | Bg]* and on H by
    Bh* bt, the projections of the two terms of S'(Qv), and both on leg 1
    by the window (Bg* for Q(S'v), [Bg* a | Bg* b] for Qv).  The scale
    ||S'x|| is that of (Rh (x) (R1a (x) R2a + R1b (x) R2b)) c, with the
    triangular factors Rh of bt Bh, [R1a | R1b] of [a Bg | b Bg] and
    [R2a | R2b] of [b Bg | Bg], so S'x is never formed (`s_norms`).

    `norms` takes the samples one at a time through `terms`; the chain is
    the only route of the seeded, conjugated, `swapped` and `xx` pairs,
    and the oracle of the gathered rows of :class:`_GatheredWindow`.
    """

    def __init__(self, ops: _LegOps, Bh: np.ndarray, Bg: np.ndarray):
        self.ops, self.n, self.r = ops, ops.n, Bg.shape[1]
        b = ops.bvals[:, None]
        FBg = ops.Fh @ Bg
        self.E = np.vstack([FBg, b * FBg, ops.Fh @ (b * Bg)])   # F* [Bg; a Bg; b Bg]
        btBh = ops.Y.apply(Bh)
        Gs = np.hstack([b * Bg, Bg])                            # leg 2 of S'v
        self.Rv, self.Rs = ops.entry(Bh), ops.entry(btBh)
        self.Kv = ops.fold(Bg, np.hstack([b.conj() * Bg, Bg]))  # Qv, read by both terms of S'
        self.Ks = ops.fold(Gs, Bg)                              # Q(S'v), read on the window
        self.Tv = ops.exit(ops.Y.apply_adjoint(Bh).conj().T @ ops.Vb)   # Bh* bt V_b
        self.Ts = ops.exit(Bh.conj().T @ ops.Vb)                        # Bh* V_b
        self.Bgh = Bg.conj().T
        self.leg1 = np.hstack([(FBg.conj().T * ops.bvals) @ ops.Fh, self.Bgh * ops.bvals])   # [Bg* a | Bg* b]
        self.Rh = np.linalg.qr(btBh, mode="r")
        self.R1 = np.hsplit(np.linalg.qr(np.hstack([ops.F @ (b * FBg), b * Bg]), mode="r"), 2)
        self.R2 = np.hsplit(np.linalg.qr(Gs, mode="r"), 2)

    def entries(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leg 1 of v and of S'v entered through F*: the `y` of
        :meth:`_LegOps.q_factored`, (n, r_h, r) and (n, r_h, 2r)."""
        n, r = self.n, self.r
        y = (self.E @ c.transpose(1, 0, 2).reshape(r, -1)).reshape(3, n, c.shape[0], r)
        return y[0], np.concatenate(y[1:], axis=2)

    def terms(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The window reads of Q(S'v) and S'(Qv), (r, r_h r) each: leg 1,
        then H and leg 2 as in c."""
        n, r, ops = self.n, self.r, self.ops
        y, ys = self.entries(c)
        qsv = self.Bgh @ ops.q_factored(ys, self.Rs, self.Ks, self.Ts).reshape(n, -1)
        qv = ops.q_factored(y, self.Rv, self.Kv, self.Tv)
        return qsv, self.leg1 @ np.concatenate([qv[..., :r], qv[..., r:]]).reshape(2 * n, -1)

    def s_norms(self, X: np.ndarray) -> np.ndarray:
        """||S'x|| for the samples x of coordinates X (k, r_h, r, r), the
        norm of R1a t R2a^T + R1b t R2b^T (t = Rh x) per sample."""
        (R1a, R1b), (R2a, R2b) = self.R1, self.R2
        T = np.matmul(self.Rh, X.reshape(len(X), X.shape[1], -1)).reshape(len(X), -1, self.r, self.r)
        return np.linalg.norm((R1a @ T @ R2a.T + R1b @ T @ R2b.T).reshape(len(T), -1), axis=1)

    def norms(self, C: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """||B*[Q, S']Bc|| and ||S'Bc|| for the samples c = C[i], i in
        `kept`, per sample by `terms`, each sample a view of C."""
        return (np.array([np.linalg.norm(np.subtract(*self.terms(C[i]))) for i in kept]),
                np.array([self.s_norms(C[i:i + 1])[0] for i in kept]))


class _GatheredWindow:
    """The commutation witness of the grid Schrodinger pair, gathered on
    its window in the mixed basis (K, L, k1, l1, k2, l2) = e_K (x) phi_L on
    H (bt = Y, at = X) and e_k (x) phi_l on each grid leg (see
    :class:`~qazb.q2pair.InteriorWindow`), where every factor of Q and of
    S' is an index map or an orbit circulant (indices mod M):

        a = F b F*                   (k, l) -> (k - 1, l)     x_{-l}
        V = chi(at (x) 1, 1 (x) a)   (K, L, k, l) -> (K, L - c(-l), k - c(K), l)
        W = F_q(bt (x) b)            circulant on the orbits of (K, l), the
                                     table of :func:`~qazb.q2pair._fq_orbit_table`
        bt (x) a (x) b               p -> x_L x_{-l1} x_{k2} (p + s_1)
        bt (x) b (x) 1               p -> x_L x_{k1} (p + s_2)

    with s_1 = (1, 0, -1, 0, 0, -1) and s_2 = (1, 0, 0, -1, 0, 0) (the
    `SHIFTS`).  So Q = W_12 V_12 W_13 V_12* and S' keep
    L, k2, K + l1 + l2 and k1 - l2 (a class), and between points of one
    class, with L' = L + c(-l1_b),

        <a, Q b> = table[L', k2, l2_a - l2_b] table[L, k1_a, l1_a - l1_b].

    A window row rho meets only the window columns sigma of its class, one
    for each slot (K, l2) of sigma in the window's K and l values, and its
    entry of L = B* [Q, S'] B,

        sum_j c_j(sigma) <rho, Q (sigma + s_j)> - c_j(rho) <rho - s_j, Q sigma>,

    is six entries of the table.  L is kept as its nonzeros, slot by slot:
    `slots` holds (rows, cols, vals) per slot, each row at most once in a
    slot, rows and columns in the layout (H, leg 1, leg 2) of the
    coordinates c.  Nothing is read from a dense basis or an n-row array.
    """

    SHIFTS = (np.array([1, 0, -1, 0, 0, -1]), np.array([1, 0, 0, -1, 0, 0]))

    def __init__(self, table: np.ndarray, wh: InteriorWindow, wg: InteriorWindow):
        M = self.M = wg.grid.M
        self.c, self.x, self.r = np.asarray(wg.grid.c), wg.x, wg.r
        self.pos_h = np.full((M, M), -1)
        self.pos_h[wh.k, wh.l] = np.arange(wh.r)
        self.pos_g = np.full((M, M), -1)
        self.pos_g[wg.k, wg.l] = np.arange(wg.r)
        jh, j1, j2 = (a.ravel() for a in np.meshgrid(np.arange(wh.r), np.arange(wg.r), np.arange(wg.r),
                                                       indexing="ij"))
        self.points = (wh.k[jh], wh.l[jh], wg.k[j1], wg.l[j1], wg.k[j2], wg.l[j2])
        self.slots = [self._slot(table, u, v) for u in wh.inner for v in wg.inner]

    def index(self, K, L, k1, l1, k2, l2) -> np.ndarray:
        """The window index of each point (layout of c), -1 off the window."""
        M = self.M
        h, p1, p2 = self.pos_h[K % M, L % M], self.pos_g[k1 % M, l1 % M], self.pos_g[k2 % M, l2 % M]
        return np.where((h >= 0) & (p1 >= 0) & (p2 >= 0), (h * self.r + p1) * self.r + p2, -1)

    def _slot(self, table: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of L in the columns sigma of slot (K, l2) =
        (u, v): per row rho, the sigma of its class there, if in the window."""
        M, c, x = self.M, self.c, self.x
        K, L, k1, l1, k2, l2 = self.points
        col = self.index(u, L, k1 - l2 + v, K + l1 + l2 - u - v, k2, v)
        rows = np.flatnonzero(col >= 0)
        K, L, k1, l1, k2, l2 = (a[rows] for a in self.points)
        s_k1, s_l1 = (k1 - l2 + v) % M, (K + l1 + l2 - u - v) % M
        dl1, dl2 = (l1 - s_l1) % M, (l2 - v) % M
        Lb, Lb1 = (L + c[-s_l1 % M]) % M, (L + c[(1 - s_l1) % M]) % M   # L' of sigma + s_1 and of sigma + s_2
        vals = x[L] * (x[k2] * table[Lb, k2, (dl2 + 1) % M]
                       * (x[-s_l1 % M] * table[L, k1, dl1] - x[-l1 % M] * table[L, (k1 + 1) % M, dl1])
                       + table[L, k1, (dl1 + 1) % M] * (x[s_k1] * table[Lb1, k2, dl2] - x[k1] * table[Lb, k2, dl2]))
        return rows, col[rows], vals

    def apply(self, X: np.ndarray) -> np.ndarray:
        """L X for X (r_tot, samples): one pass over the slots, each on
        every sample."""
        LX = np.zeros_like(X)
        for rows, cols, vals in self.slots:
            LX[rows] += vals[:, None] * X[cols]
        return LX

    def s_norms(self, X: np.ndarray) -> np.ndarray:
        """||S'x|| for the samples x of coordinates X (r_tot, samples): the
        two terms of S' send a window point to distinct points, and sigma +
        s_1 is sigma' + s_2 exactly for sigma' = sigma + s_1 - s_2, so the
        image of x is the two terms summed on those coinciding points."""
        K, L, k1, l1, k2, l2 = p = self.points
        x, M = self.x, self.M
        c1, c2 = (x[L] * x[-l1 % M] * x[k2])[:, None], (x[L] * x[k1])[:, None]
        d = self.SHIFTS[0] - self.SHIFTS[1]
        partner = self.index(*(a + s for a, s in zip(p, d)))   # sigma'
        lone = self.index(*(a - s for a, s in zip(p, d))) < 0   # the sigma' of no sigma
        image = c1 * X + np.where(partner[:, None] >= 0, c2[partner] * X[partner], 0.0)
        return np.sqrt(np.sum(np.abs(image) ** 2, axis=0) + np.sum(np.abs(c2[lone] * X[lone]) ** 2, axis=0))


def _classical_kernel(rep: Representation, wg: InteriorWindow, C: np.ndarray,
                      kept: np.ndarray, nv: np.ndarray) -> float:
    """max ||(Q - 1)w|| / ||w|| over the samples w = 1 (x) Bg (x) Bg c, c =
    C[i, 0], i in `kept` (of norms nv), for a pair on H = C with bt = 0,
    read on the whole of both grid legs, from the computed values w_g =
    F_q(0) (`fq_values`) and z_g (`chi_values`), never their moduli.

    On H = C, Q = W_1 F_1 Z_1 W_2 Z_1* F_1* is (W F D F*) (x) W, W =
    diag(w) and D = diag(z z-bar) in the position basis.  In the mixed
    basis a diagonal diag(u) is circulant along the phase axis, (k, l) ->
    (k, l') with u-hat_k[l' - l], u-hat_k the M-point inverse transform of
    u along j; and F is (k, l) -> (l, -k).  So W F D F* sends (k1, l1) to
    (m, l1') with d-hat_{-l1}[m - k1] w-hat_m[l1' - l1], and W keeps k2.
    Q - 1 on the window is taken for all samples in two products, on rows
    (m, l1') of leg 1 and (k2, l2') of leg 2, k2 in the window's k values
    (Q - 1 is 0 on the others).  The window basis on H, a unit scalar,
    leaves the ratio unchanged."""
    if not len(kept):
        return 0.0
    M, k, l, inner = wg.grid.M, wg.k, wg.l, wg.inner
    w_hat = np.fft.ifft(rep.fq_values[:, 0].reshape(M, M), axis=1)
    z = rep.chi_values[:, 0].reshape(M, M)
    d_hat = np.fft.ifft((z * z.conj()).real, axis=1)
    m, lp = np.arange(M)[:, None, None], np.arange(M)[:, None]
    leg1 = d_hat[-l % M, (m - k) % M] * w_hat[m, (lp - l) % M]    # (m, l1', column)
    leg2 = (inner[:, None, None] == k) * w_hat[k, (lp - l) % M]    # (k2 of the window, l2', column)
    X = C[kept, 0]
    Y = leg1.reshape(M * M, -1) @ (X @ leg2.reshape(-1, wg.r).T)         # (samples, (m, l1'), (k2, l2'))
    rows1 = k * M + l
    rows2 = np.searchsorted(inner, k) * M + l
    Y[:, rows1[:, None], rows2] -= X
    return float(np.max(np.linalg.norm(Y.reshape(len(X), -1), axis=1) / nv[kept]))


@dataclass(frozen=True)
class CorepReport:
    """Sampled witness of (id (x) Delta) U = U_12 U_13."""

    residual: float             # max of the two components below
    commutation: float          # windowed [Q, S'] residual off ker(bt)
    kernel_identity: float      # ||(Q - 1)v|| on ker(bt) (x) window
    samples: int


def corep_residual(
    rep: Representation,
    samples: int = 32,
    seed: int = 1,
    margin: int | None = None,
) -> CorepReport:
    """Matrix-free corepresentation residual over seeded window vectors.

    Q = U_12 U_13 (V_12 V_13)* must be F_q of the closure of S'
    (= bt (x) Delta b re-expressed legwise), which is witnessed by the
    commutator [Q, S'] on interior vectors, plus Q = 1 on ker(bt) legs.
    The window is the pair's basis Bh on H times the grid window basis Bg
    (at `corep_margin(M)` unless `margin` is given) on both grid legs.
    A margin that leaves Bg no columns is refused with ParameterError: every
    sample would be 0, and a residual of 0 would check nothing.

    The samples are drawn in window coordinates: one seeded array C of
    (samples, r_h, r, r) standard complex Gaussians, r_h and r the columns
    of Bh and Bg.  As Bh and Bg are orthonormal, Bh (x) Bg (x) Bg c has the
    distribution of a standard complex Gaussian on H (x) grid (x) grid
    projected onto the window, and no full (d, n, n) tensor is drawn.  The
    windows are built once (:func:`_residual_windows`), and the residual
    over C on them is :func:`_window_residual`.
    """
    Bh, Bg = windows = _residual_windows(rep, margin)
    r_h, r = (w.r if isinstance(w, InteriorWindow) else w.shape[1] for w in windows)
    shape = (samples, r_h, r, r)
    rng = np.random.default_rng(seed)
    C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return _window_residual(rep, C, margin, windows)


def _grid_margin(rep: Representation, margin: int | None) -> int:
    """The window margin of a grid leg: `corep_margin(M)` unless given, an
    empty window refused."""
    M = rep.grid.M
    return check_margin(M, corep_margin(M) if margin is None else margin)


def _window_bases(rep: Representation, margin: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The dense window bases Bh on H and Bg on a grid leg of a corep
    residual, as the window-column route takes them."""
    return _generating_pair(rep).window_or_identity(), interior_window(rep.grid, _grid_margin(rep, margin))


def _residual_windows(rep: Representation, margin: int | None) -> tuple:
    """The windows (on H, on a grid leg) of a corep residual, built once.
    The residual is gathered in the mixed basis, with the grid window as
    its index set (:class:`InteriorWindow`), for the grid Schrodinger pair
    (the pair of `_model_window` with bt the Fourier member, built on the
    pair's own grid; its window on H is an index set too) and for a pair
    on H = C with bt = 0 (the classical pair; its 1 x 1 basis on H).  Every
    other pair takes the dense bases of :func:`_window_bases`."""
    pair = _generating_pair(rep)
    wg = InteriorWindow(rep.grid, _grid_margin(rep, margin))
    if _model_window(pair) is not None and not pair.Y.is_zero and rep.grid is pair.grid:
        return pair.window, wg
    Bh = pair.window_or_identity()
    if pair.dim == 1 and pair.Y.lattice(rep.grid.q)[2].all():
        return Bh, wg
    return Bh, wg.basis


def _window_residual(rep: Representation, C: np.ndarray, margin: int | None = None,
                     windows: tuple | None = None) -> CorepReport:
    """The corep residual over the samples Bh (x) Bg (x) Bg c, c in C
    (samples, r_h, r, r) window coordinates, on the `windows` of
    :func:`_residual_windows` (built from `margin` when not given); see
    :func:`corep_residual`.

    ||c|| is taken once per sample, and the samples with ||c|| < 1e-12 are
    skipped on every branch.  The witness is max ||B*[Q, S']Bc|| / ||c||
    over max ||S'Bc|| / ||c||, plus the kernel branch on ker(bt).  A grid
    window given as its index set is gathered (:func:`_gathered_residual`);
    dense bases take the window columns (:func:`_column_residual`)."""
    Bh, Bg = _residual_windows(rep, margin) if windows is None else windows
    if isinstance(Bg, InteriorWindow):
        return _gathered_residual(rep, C, Bh, Bg)
    return _column_residual(rep, C, Bh, Bg)


def _sample_norms(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||c|| of each sample of C and the indices of those kept (>= 1e-12)."""
    nv = np.linalg.norm(C.reshape(len(C), -1), axis=1)
    return nv, np.flatnonzero(nv >= 1e-12)


def _commutation(comms: np.ndarray, scales: np.ndarray, nv: np.ndarray) -> float:
    """max ||B*[Q, S']Bc|| / ||c|| over max ||S'Bc|| / ||c||, 0 when S'
    vanishes on the samples."""
    sscale = float(np.max(scales / nv))
    return float(np.max(comms / nv)) / sscale if sscale > 1e-300 else 0.0


def _gathered_residual(rep: Representation, C: np.ndarray, Bh, wg: InteriorWindow) -> CorepReport:
    """The residual of :func:`_window_residual` gathered in the mixed
    basis: for the Schrodinger pair (Bh its index set) the commutation
    branch by the band of :class:`_GatheredWindow` on the whole draw, with
    no n-row array; for the classical pair (bt = 0, so S' = 0) the kernel
    branch by :func:`_classical_kernel`."""
    nv, kept = _sample_norms(C)
    if not isinstance(Bh, InteriorWindow):
        kern = _classical_kernel(rep, wg, C, kept, nv)
        return CorepReport(residual=kern, commutation=0.0, kernel_identity=kern, samples=len(C))
    comm = 0.0
    if len(kept):
        gathered = _GatheredWindow(_fq_orbit_table(rep.fq_values, rep.grid.M), Bh, wg)
        X = C.reshape(len(C), -1).T.copy()   # (r_tot, samples), contiguous
        comms = np.linalg.norm(gathered.apply(X), axis=0)[kept]
        comm = _commutation(comms, gathered.s_norms(X)[kept], nv[kept])
    return CorepReport(residual=comm, commutation=comm, kernel_identity=0.0, samples=len(C))


def _column_residual(rep: Representation, C: np.ndarray, Bh: np.ndarray, Bg: np.ndarray) -> CorepReport:
    """The residual of :func:`_window_residual` on the dense window bases
    Bh and Bg, for any pair; C is not copied.  The working set is checked
    by :func:`check_memory`, and the commutation branch is read on the
    window by the per-sample chain of :meth:`_CommutatorReads.norms`, which
    makes no array wider than d n 2r a sample (r the columns of Bg).  When
    bt is 0 on every eigenvector, S' = 0 and the commutation branch, which
    would read 0, is not run; the kernel branch is :func:`_kernel_identity`."""
    ops = _LegOps(rep)
    nv, kept = _sample_norms(C)
    zero = rep.pair.Y.lattice(ops.g.q)[2]   # ker(bt): the zero mask in V_b coordinates
    comm = 0.0
    if not zero.all() and len(kept):   # else S' = 0, or no sample
        check_memory(ops.d, ops.n, Bg.shape[1], len(C), Bh.shape[1])
        comms, scales = _CommutatorReads(ops, Bh, Bg).norms(C, kept)
        comm = _commutation(comms, scales, nv[kept])
    kern = _kernel_identity(ops, Bh, Bg, zero, C, kept, nv) if zero.any() else 0.0
    return CorepReport(residual=max(comm, kern), commutation=comm, kernel_identity=kern, samples=len(C))


def _kernel_identity(ops: _LegOps, Bh: np.ndarray, Bg: np.ndarray, zero: np.ndarray,
                     C: np.ndarray, kept: np.ndarray, nv: np.ndarray) -> float:
    """max ||(Q - 1)w|| / ||w|| over the samples c = C[i], i in `kept` (of
    norms nv), projected onto ker(bt) by its mask `zero` in V_b
    coordinates: w = P (x) Bg (x) Bg c, P = V_b diag(zero) V_b* Bh, and Qw
    through :meth:`_LegOps.q_factored`, leg 2 read on its n positions and
    H in the standard basis; a w below 1e-12 ||c|| is skipped."""
    n, r, Vb = ops.n, Bg.shape[1], ops.Vb
    P = Vb @ (zero[:, None] * (Vb.conj().T @ Bh))
    FBg, Rk, Kk, Tk = ops.Fh @ Bg, ops.entry(P), ops.fold(Bg), ops.exit(Vb)
    kern = 0.0
    for i in kept:
        c = C[i]
        wc = _on_h(P, c)   # w with H in the standard basis, both grid legs in coordinates Bg
        nw = float(np.linalg.norm(wc))
        if nw > 1e-12 * nv[i]:
            y = (FBg @ c.transpose(1, 0, 2).reshape(r, -1)).reshape(n, -1, r)
            w = (Bg @ wc.transpose(1, 0, 2).reshape(r, -1)).reshape(n, ops.d, r) @ Bg.T   # leg 1 first
            kern = max(kern, float(np.linalg.norm(ops.q_factored(y, Rk, Kk, Tk) - w)) / nw)
    return kern


def g_family(rep: Representation) -> np.ndarray:
    """Row sums G(g) = sum_{g'} U_{g,g'} of the H-valued matrix elements
    as an (n, d, d) stack over g, from one reshape of U and one sum.  For a
    built representation G(g) = F_q(bt * gamma_g): commuting unitaries."""
    d, n = rep.h_dim, rep.grid.size
    return rep.U.reshape(d, n, d, n).sum(axis=3).transpose(1, 0, 2)


DEGENERACY_TOL = 1e-7   # relative off-diagonal mass flagging a degenerate family


@dataclass(frozen=True)
class ExtractionReport:
    """Diagnostics of the decomposition algorithm."""

    g_unitarity: float          # worst ||G G* - 1||
    g_commutation: float        # worst sampled ||[G_i, G_j]||
    inversion_residual: float   # worst per-eigenvector inversion objective
    completeness: float         # ||sum_d E(d) - 1||
    degenerate: bool            # joint diagonalisation hit a degeneracy


def extract_pair(rep: Representation, seed: int = 0) -> tuple[Q2Pair, ExtractionReport]:
    """Recover the generating pair from a representation.

    (1) row-sum the position matrix elements into the stack G(g);
    (2) jointly diagonalise {G(g)} via a seed-derived random combination;
    (3) invert the d data rows v_i* G(g) v_i of the joint eigenvectors, one
        contraction, as a stack of F_q families against one table;
    (4) average G(g)* U_{g, g+s}, one gather over all shifts s and grid
        points g and one batched product, into the spectral family of at;
    (5) reassemble bt and at.
    The diagnostics are batched; every sum over g or s runs in grid order.
    """
    g = rep.grid
    d, n, M = rep.h_dim, g.size, g.M
    G = g_family(rep)
    Gh = G.conj().swapaxes(1, 2)

    eye = np.eye(d)
    gu = _max_norm(G @ Gh - eye)
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, size=(8, 2)).T
    gc = _max_norm(G[i] @ G[j] - G[j] @ G[i])

    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Vhat, _ = NormalMatrix(np.add.reduce(coeff[:, None, None] * G)).eig()

    # off-diagonal mass of the conjugated family detects degeneracies
    C = Vhat.conj().T @ G[::max(1, n // 8)] @ Vhat
    degenerate = _max_norm(C - eye * C) > DEGENERACY_TOL * max(gu, 1.0)

    # data rows v_i* G(g) v_i (d, n) by matrix-vector and vector products, bit-equal to one row at a time
    vecs = np.ascontiguousarray(Vhat.T)[:, None, :, None]
    data = (vecs.conj().swapaxes(2, 3) @ (G @ vecs))[..., 0, 0]
    data = data / np.maximum(np.abs(data), 1e-15)   # guard roundoff drift
    result = invert_fq_family(data, g, QExpParams(g.q))
    bvals = np.array([b.value(g.q) for b in result.beta])
    b_t = (Vhat * bvals) @ Vhat.conj().T

    # spectral family of at from translated matrix elements: U_{g, g+s},
    # (n shifts, n positions, d, d), with g + s added per axis mod M
    k, l = np.divmod(np.arange(n), M)
    tgt = ((k[:, None] + k) % M) * M + (l[:, None] + l) % M
    E = np.add.reduce(Gh @ rep.U.reshape(d, n, d, n)[:, np.arange(n), :, tgt], axis=1) / n
    a_t = np.add.reduce(g.values[:, None, None] * E)
    completeness = operator_norm(np.add.reduce(E) - eye)

    report = ExtractionReport(g_unitarity=gu, g_commutation=gc, inversion_residual=float(np.max(result.residual)),
                              completeness=completeness, degenerate=degenerate)
    pair = Q2Pair(Y=NormalMatrix(b_t), X=NormalMatrix(a_t), grid=g, provenance=(("extracted", seed),))
    return pair, report


FORMAT_VERSION = 1
LOAD_UNITARITY_TOL = 1e-10   # largest ||U* U - 1||_2 a loaded representation may have


def save_representation(rep: Representation, path: str) -> None:
    """Portable single-file format: JSON header plus a base64 block of the
    row-major complex128 entries (interleaved re/im), bit-exact on reload."""
    payload = {
        "format_version": FORMAT_VERSION,
        "q": rep.grid.q,
        "M": rep.grid.M,
        "d": rep.h_dim,
        "u_shape": list(rep.U.shape),
        "u_data_b64": base64.b64encode(np.ascontiguousarray(rep.U, dtype=complex).tobytes()).decode("ascii"),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_representation(path: str) -> Representation:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != FORMAT_VERSION:
        raise ParameterError(f"unsupported format version {payload.get('format_version')}")
    g = GammaGrid(payload["q"], payload["M"])
    d = payload["d"]
    if type(d) is not int or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    dim = d * g.size
    if payload["u_shape"] != [dim, dim]:
        raise DimensionError(f"u_shape {payload['u_shape']} is not [d*M^2, d*M^2] = [{dim}, {dim}]")
    raw = base64.b64decode(payload["u_data_b64"])
    if len(raw) != 16 * dim * dim:
        raise DimensionError(f"expected {dim * dim} complex entries, got {len(raw) / 16:g}")
    U = np.frombuffer(raw, dtype=complex).reshape(dim, dim).copy()
    if not np.all(np.isfinite(U.view(float))):
        raise DomainError("representation entries must be finite")
    defect = operator_norm(U.conj().T @ U - np.eye(dim))
    if defect > LOAD_UNITARITY_TOL:
        raise DomainError(f"unitarity defect {defect:.3e} exceeds {LOAD_UNITARITY_TOL:g}")
    U.setflags(write=False)
    rep = Representation(grid=g, h_dim=d, unitarity_defect=defect)
    vars(rep)["U"] = U   # the cached dense U is all a loaded representation has
    return rep
