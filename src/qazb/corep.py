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
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    ExtractionError,
    KernelConditionError,
    ParameterError,
)
from .gamma import GammaGrid, GammaPoint, snap_spectrum
from .opalg import NormalMatrix, closure_sum, operator_norm
from .q2pair import Q2Pair, interior_window
from .qexp import QExpParams, fq_lattice, invert_fq_family

__all__ = [
    "Representation",
    "CorepReport",
    "ExtractionReport",
    "grid_operators",
    "coproduct",
    "build_rep",
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


@dataclass(frozen=True)
class Representation:
    """A unitary on H (x) H_grid, flat index h * M^2 + g (H-major)."""

    U: np.ndarray
    grid: GammaGrid
    h_dim: int
    pair: Q2Pair | None = None
    unitarity_defect: float = 0.0

    @property
    def dim(self) -> int:
        return self.U.shape[0]


def grid_operators(g: GammaGrid) -> tuple[np.ndarray, np.ndarray]:
    """The grid-leg pair (b, a): b = diag(grid values), a = F b F*."""
    b = np.diag(g.values)
    F = g.fourier
    return b, F @ b @ F.conj().T


def coproduct(g: GammaGrid) -> tuple[np.ndarray, NormalMatrix]:
    """Comultiplication on the generators: (a (x) a, a (x) b + b (x) I).

    Dense on H_grid (x) H_grid; guarded to M <= 8 (the second leg is an
    M^4-dimensional matrix).  The first component is exactly normal (a
    Kronecker product of normals); the second is a closure_sum with the
    usual defect report.
    """
    if g.M > 8:
        raise ParameterError(f"dense coproduct is limited to M <= 8, got M={g.M}")
    b, a = grid_operators(g)
    delta_a = np.kron(a, a)
    eye = np.eye(g.size, dtype=complex)
    delta_b = closure_sum(np.kron(a, b), np.kron(b, eye))
    return delta_a, delta_b


def chi_kron(a_t: NormalMatrix, g: GammaGrid) -> np.ndarray:
    """chi(at (x) I, I (x) a) as a dense unitary on H (x) H_grid.

    Expanded over the eigenprojections of the grid operator a = F b F*:
    conjugating the block diagonal of chi(at, gamma_g) by I (x) F.
    """
    Va, lam = a_t.eig()
    n_a, theta_a, zero, _ = snap_spectrum(lam, g.q, scale=a_t.norm2, M=g.M)
    if np.any(zero):
        raise KernelConditionError("spectrum touches 0 where injectivity is required")
    gk, gtheta = g.lattice
    vals = np.exp(1j * (np.outer(gk, theta_a) + np.outer(gtheta, n_a)))
    d, n = a_t.dim, g.size
    Z = np.zeros((d * n, d * n), dtype=complex)
    for gi in range(n):
        Z[gi::n, gi::n] = (Va * vals[gi]) @ Va.conj().T
    IF = np.kron(np.eye(d), g.fourier)
    return IF @ Z @ IF.conj().T


def _fq_block_diag(b_t: NormalMatrix, g: GammaGrid, params: QExpParams) -> np.ndarray:
    """F_q(bt (x) b) as a dense matrix: block diagonal over the grid-leg
    position basis, block g equal to F_q(gamma_g * bt)."""
    Vb, lam = b_t.eig()
    n_b, theta_b, zero, _ = snap_spectrum(lam, g.q, scale=b_t.norm2, M=g.M)
    k, theta = g.times(n_b, theta_b)
    zero = np.broadcast_to(zero, k.shape)
    vals = fq_lattice(k.ravel(), theta.ravel(), params, zero=zero.ravel()).reshape(k.shape)
    d, n = b_t.dim, g.size
    W = np.zeros((d * n, d * n), dtype=complex)
    for gi in range(n):
        W[gi::n, gi::n] = (Vb * vals[gi]) @ Vb.conj().T
    return W


def build_rep(pair, g: GammaGrid, params: QExpParams | None = None) -> Representation:
    """Assemble U = F_q(bt (x) b) chi(at (x) I, I (x) a) for a pair on H."""
    p = as_pair_on_h(pair)
    if params is None:
        params = QExpParams(g.q)
    W = _fq_block_diag(p.Y, g, params)
    V = chi_kron(p.X, g)
    U = W @ V
    defect = operator_norm(U.conj().T @ U - np.eye(U.shape[0]))
    U.setflags(write=False)
    return Representation(U=U, grid=g, h_dim=p.dim, pair=p, unitarity_defect=defect)


class _LegOps:
    """Matrix-free actions on H (x) grid (x) grid tensors (d, n, n)."""

    def __init__(self, rep: Representation):
        if rep.pair is None:
            raise ExtractionError("corep residual needs the generating pair; extract it first")
        self.rep = rep
        self.g = rep.grid
        self.d = rep.h_dim
        self.n = self.g.size
        self.b, self.a = grid_operators(self.g)
        self.V = chi_kron(rep.pair.X, self.g)
        self.bt = rep.pair.Y.entries

    def _on_leg12(self, A: np.ndarray, v: np.ndarray, adjoint=False) -> np.ndarray:
        d, n = self.d, self.n
        m = A.conj().T if adjoint else A
        return (m @ v.reshape(d * n, n)).reshape(d, n, n)

    def _on_leg13(self, A: np.ndarray, v: np.ndarray, adjoint=False) -> np.ndarray:
        w = v.transpose(0, 2, 1).copy()
        w = self._on_leg12(A, w, adjoint)
        return w.transpose(0, 2, 1)

    def q_apply(self, v: np.ndarray) -> np.ndarray:
        """Q = U_12 U_13 (V_12 V_13)* applied to a (d, n, n) tensor."""
        w = self._on_leg12(self.V, v, adjoint=True)
        w = self._on_leg13(self.V, w, adjoint=True)
        w = self._on_leg13(self.rep.U, w)
        return self._on_leg12(self.rep.U, w)

    def s_apply(self, v: np.ndarray) -> np.ndarray:
        """S' = bt (x) a (x) b + bt (x) b (x) I applied to a tensor."""
        w1 = np.einsum("ij,jkl->ikl", self.bt, v)
        x = np.einsum("kp,ipl->ikl", self.a, w1)
        x = x * np.diag(self.b)[None, None, :]
        y = np.einsum("kp,ipl->ikl", self.b, w1)
        return x + y


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
    params: QExpParams | None = None,
    margin: int | None = None,
) -> CorepReport:
    """Matrix-free corepresentation residual over seeded window vectors.

    Q = U_12 U_13 (V_12 V_13)* must be F_q of the closure of S'
    (= bt (x) Delta b re-expressed legwise), which is witnessed by the
    commutator [Q, S'] on interior vectors, plus Q = 1 on ker(bt) legs.
    Never materialises d * M^4 matrices.
    """
    ops = _LegOps(rep)
    g, d, n = ops.g, ops.d, ops.n
    if margin is None:
        margin = -(-g.M // 4)
    Pg = interior_window(g, margin)
    Ph = rep.pair.window_or_identity()

    def project(v):
        w = np.einsum("ij,jkl->ikl", Ph, v)
        w = np.einsum("kp,ipl->ikl", Pg, w)
        return np.einsum("lp,ikp->ikl", Pg, w)

    # kernel projector of bt on the H leg
    Vb, lam = rep.pair.Y.eig()
    _, _, kermask, _ = snap_spectrum(lam, g.q, scale=rep.pair.Y.norm2)
    Pker = (Vb[:, kermask] @ Vb[:, kermask].conj().T) if np.any(kermask) else None

    rng = np.random.default_rng(seed)
    comm = 0.0
    kern = 0.0
    sscale = 0.0
    comms = []
    for _ in range(samples):
        v = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
        v = project(v)
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v /= nv
        sv = ops.s_apply(v)
        qv = ops.q_apply(v)
        c = project(ops.q_apply(sv) - ops.s_apply(qv))
        comms.append(float(np.linalg.norm(c)))
        sscale = max(sscale, float(np.linalg.norm(sv)))
        if Pker is not None:
            w = np.einsum("ij,jkl->ikl", Pker, v)
            nw = np.linalg.norm(w)
            if nw > 1e-12:
                w /= nw
                kern = max(kern, float(np.linalg.norm(ops.q_apply(w) - w)))
    if comms and sscale > 1e-300:
        comm = max(comms) / sscale
    residual = max(comm, kern)
    return CorepReport(residual=residual, commutation=comm, kernel_identity=kern, samples=samples)


def g_family(rep: Representation) -> list[np.ndarray]:
    """Row sums G(g) = sum_{g'} U_{g,g'} of the H-valued matrix elements.

    For a built representation this equals F_q(bt * gamma_g): a commuting
    family of unitaries on H.
    """
    d, n = rep.h_dim, rep.grid.size
    Ut = rep.U.reshape(d, n, d, n)
    return [Ut[:, gi, :, :].sum(axis=2) for gi in range(n)]


@dataclass(frozen=True)
class ExtractionReport:
    """Diagnostics of the decomposition algorithm."""

    g_unitarity: float          # worst ||G G* - 1||
    g_commutation: float        # worst sampled ||[G_i, G_j]||
    inversion_residual: float   # worst per-eigenvector inversion objective
    completeness: float         # ||sum_d E(d) - 1||
    degenerate: bool            # joint diagonalisation hit a degeneracy


def extract_pair(
    rep: Representation,
    params: QExpParams | None = None,
    seed: int = 0,
    degeneracy_tol: float = 1e-7,
) -> tuple[Q2Pair, ExtractionReport]:
    """Recover the generating pair from a representation.

    (1) row-sum the position matrix elements into the family G(g);
    (2) jointly diagonalise {G(g)} via a seed-derived random combination;
    (3) per joint eigenvector, identify the bt eigenvalue by inverting the
        F_q family over grid-plus-zero candidates;
    (4) average G(g)* U_{g, g+d} into the spectral projections of at;
    (5) reassemble bt and at.
    """
    g = rep.grid
    if params is None:
        params = QExpParams(g.q)
    d, n = rep.h_dim, g.size
    M = g.M
    Ut = rep.U.reshape(d, n, d, n)
    G = g_family(rep)

    eye = np.eye(d)
    gu = max(operator_norm(Gi @ Gi.conj().T - eye) for Gi in G)
    rng = np.random.default_rng(seed)
    pairs_idx = rng.integers(0, n, size=(8, 2))
    gc = max(
        operator_norm(G[i] @ G[j] - G[j] @ G[i]) for i, j in pairs_idx
    )

    coeff = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = sum(c * Gi for c, Gi in zip(coeff, G))
    Vhat, _ = NormalMatrix(T).eig()

    # off-diagonal mass of the conjugated family detects degeneracies
    off = 0.0
    for gi in range(0, n, max(1, n // 8)):
        C = Vhat.conj().T @ G[gi] @ Vhat
        off = max(off, operator_norm(C - np.diag(np.diag(C))))
    degenerate = off > degeneracy_tol * max(gu, 1.0)

    betas: list[GammaPoint] = []
    inv_res = 0.0
    for i in range(d):
        v = Vhat[:, i]
        data = np.array([v.conj() @ (Gi @ v) for Gi in G])
        data = data / np.maximum(np.abs(data), 1e-15)   # guard roundoff drift
        result = invert_fq_family(data, g, params)
        betas.append(result.beta)
        inv_res = max(inv_res, result.residual)
    bvals = np.array([b.value(g.q) for b in betas])
    b_t = (Vhat * bvals) @ Vhat.conj().T

    # spectral family of at from translated matrix elements
    Esum = np.zeros((d, d), dtype=complex)
    a_t = np.zeros((d, d), dtype=complex)
    karr = np.arange(n) // M
    jarr = np.arange(n) % M
    for di in range(n):
        dk, dj = di // M, di % M
        tgt = ((karr + dk) % M) * M + (jarr + dj) % M
        E = np.zeros((d, d), dtype=complex)
        for gi in range(n):
            E += G[gi].conj().T @ Ut[:, gi, :, tgt[gi]]
        E /= n
        Esum += E
        a_t += g.points[di].value(g.q) * E
    completeness = operator_norm(Esum - eye)

    report = ExtractionReport(
        g_unitarity=gu,
        g_commutation=gc,
        inversion_residual=inv_res,
        completeness=completeness,
        degenerate=degenerate,
    )
    pair = Q2Pair(
        Y=NormalMatrix(b_t),
        X=NormalMatrix(a_t),
        grid=g,
        margin=-(-M // 4),
        provenance=(("extracted", seed),),
    )
    return pair, report


FORMAT_VERSION = 1


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
    shape = tuple(payload["u_shape"])
    U = np.frombuffer(base64.b64decode(payload["u_data_b64"]), dtype=complex).reshape(shape).copy()
    defect = operator_norm(U.conj().T @ U - np.eye(shape[0]))
    U.setflags(write=False)
    return Representation(U=U, grid=g, h_dim=payload["d"], pair=None, unitarity_defect=defect)
