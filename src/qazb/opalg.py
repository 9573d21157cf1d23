"""Functional calculus for finite normal and near-normal matrices.

The finite models in this package truncate operators whose continuum
versions are exactly normal, so every matrix carries a normality defect
||T T* - T* T||_2.  Functional calculus goes through the complex Schur
form: the unitary Schur factor is accepted as an eigenvector basis and
the strictly upper-triangular part is discarded.  For defects below the
threshold (1e-6 * ||T||^2 by default, the commutator scale) this agrees
with the spectral theorem to roundoff; above it the computation still
completes but the matrix is flagged degraded, and callers treat the flag
as a failed check.

Eigenvalue moduli are snapped to the lattice q^Z for function evaluation
by :func:`qazb.gamma.snap_spectrum` (the lattice circles are full, so
phases are not snapped here); diagnostics such as :func:`gamma_distance`
always report the unsnapped values.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, KernelConditionError
from .gamma import GammaPoint, snap_spectrum

__all__ = [
    "NormalMatrix",
    "eig_normal",
    "apply_fn",
    "chi_op",
    "closure_sum",
    "gamma_distance",
    "snap_spectrum",
]

DEFAULT_DEFECT_RTOL = 1e-6   # defect threshold = rtol * ||T||^2


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (exact dense 2-norm)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


class NormalMatrix:
    """A dense complex matrix with cached eigensystem and normality defect.

    Immutable: the wrapped array is copied and write-protected.  The
    eigensystem is computed lazily at most once (single-flight under a
    lock), so concurrent readers are safe.
    """

    def __init__(self, entries, defect_rtol: float = DEFAULT_DEFECT_RTOL):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise DomainError("matrix entries must be finite")
        m.setflags(write=False)
        self._m = m
        self._defect_rtol = float(defect_rtol)
        self._lock = threading.Lock()
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._schur_offdiag: float | None = None

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._m

    @property
    def norm2(self) -> float:
        if not hasattr(self, "_norm2"):
            self._norm2 = operator_norm(self._m)
        return self._norm2

    @property
    def normality_defect(self) -> float:
        """||T T* - T* T||_2 (absolute)."""
        if not hasattr(self, "_defect"):
            t = self._m
            self._defect = operator_norm(t @ t.conj().T - t.conj().T @ t)
        return self._defect

    @property
    def relative_defect(self) -> float:
        """Defect normalised by ||T||^2, the commutator's natural scale."""
        s = self.norm2
        return 0.0 if s == 0.0 else self.normality_defect / (s * s)

    @property
    def defect_threshold(self) -> float:
        return self._defect_rtol * self.norm2 ** 2

    @property
    def degraded(self) -> bool:
        """True when functional calculus on this matrix is untrustworthy."""
        return self.normality_defect > self.defect_threshold

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Schur-based eigensystem (V, lam); V unitary, lam the Schur diagonal."""
        if self._eig is None:
            with self._lock:
                if self._eig is None:
                    if self.dim == 0:
                        self._eig = (np.zeros((0, 0), complex), np.zeros(0, complex))
                        self._schur_offdiag = 0.0
                    else:
                        S, V = scipy.linalg.schur(self._m, output="complex")
                        lam = np.diag(S).copy()
                        off = S - np.diag(lam)
                        self._schur_offdiag = operator_norm(off)
                        lam.setflags(write=False)
                        V = np.ascontiguousarray(V)
                        V.setflags(write=False)
                        self._eig = (V, lam)
        return self._eig

    @property
    def schur_offdiag(self) -> float:
        """Norm of the discarded strictly-off-diagonal Schur block."""
        self.eig()
        return self._schur_offdiag

    def __repr__(self) -> str:
        return f"NormalMatrix(dim={self.dim}, defect={self.normality_defect:.3e})"


def _as_normal(T) -> NormalMatrix:
    return T if isinstance(T, NormalMatrix) else NormalMatrix(T)


def eig_normal(T) -> tuple[np.ndarray, np.ndarray, float]:
    """Unitary triangularisation of a square matrix.

    Returns (V, lam, defect): the Schur factor, the Schur diagonal taken as
    eigenvalues, and the defect reported as the larger of the commutator
    norm and the discarded off-diagonal norm.
    """
    nm = _as_normal(T)
    V, lam = nm.eig()
    return V, lam, max(nm.normality_defect, nm.schur_offdiag)


def apply_fn(T, f, q: float | None = None, snap_rtol: float | None = None) -> np.ndarray:
    """Spectral functional calculus V f(lam) V* for a scalar function f.

    `f` receives the eigenvalue array (complex).  When `q` is given the
    eigenvalue moduli are snapped to the lattice first; `snap_rtol` then
    bounds the admissible relative distance (SpectrumError beyond it).
    """
    nm = _as_normal(T)
    V, lam = nm.eig()
    if q is not None:
        n, theta, zero, _ = snap_spectrum(lam, q, rtol=snap_rtol, scale=nm.norm2)
        lam = np.where(zero, 0.0, q ** n.astype(float) * np.exp(1j * theta))
    vals = np.asarray(f(lam), dtype=complex)
    if vals.shape != lam.shape:
        raise DimensionError("f must map the eigenvalue array elementwise")
    return (V * vals) @ V.conj().T


def chi_op(X, point: GammaPoint, q: float, snap_rtol: float | None = None) -> np.ndarray:
    """Operator bicharacter chi(X, gamma'): functional calculus of
    x -> e^{i (l' arg x + log_q|x| * theta')}.

    Requires ker X = {0}; the modulus indices log_q|x| are integers after
    snapping, which makes the result exactly multiplicative in gamma'.
    chi(X, q) is the unitary phase (polar) factor of X.
    """
    if point.zero:
        raise DomainError("chi_op is defined for nonzero lattice points only")
    nm = _as_normal(X)
    V, lam = nm.eig()
    n, theta, zero, _ = snap_spectrum(lam, q, rtol=snap_rtol, scale=nm.norm2)
    if np.any(zero):
        raise KernelConditionError(
            "chi(X, gamma) requires ker X = {0}; spectrum touches 0"
        )
    ang = point.k * theta + n * point.theta
    vals = np.exp(1j * ang)
    return (V * vals) @ V.conj().T


def closure_sum(X, Y) -> NormalMatrix:
    """The operator sum X + Y wrapped with normality diagnostics.

    In the finite model this is the plain matrix sum standing in for the
    closure of the densely defined sum; no exact normality is claimed,
    the defect and lattice-distance reports quantify the truncation.
    """
    Xm, Ym = _as_normal(X), _as_normal(Y)
    if Xm.dim != Ym.dim:
        raise DimensionError(f"dimension mismatch: {Xm.dim} vs {Ym.dim}")
    return NormalMatrix(Xm.entries + Ym.entries)


def gamma_distance(T, q: float) -> float:
    """Mean relative distance of the spectrum to the modulus lattice.

    For each eigenvalue the nearest modulus q^n minimises
    ||lambda| - q^n| / q^n; the phase is free.  Zero eigenvalues lie in
    Gamma-bar and contribute 0.
    """
    nm = _as_normal(T)
    _, lam = nm.eig()
    if lam.size == 0:
        return 0.0
    _, _, zero, rel = snap_spectrum(lam, q, scale=nm.norm2)
    return float(np.mean(np.where(zero, 0.0, rel)))
