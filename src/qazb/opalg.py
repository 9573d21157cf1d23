"""Functional calculus for finite normal and near-normal matrices.

The finite models in this package truncate operators whose continuum
versions are exactly normal, so every matrix carries a normality defect
||T T* - T* T||_2.  A matrix gets its eigensystem in one of two ways:

* supplied: a construction that knows the spectrum in closed form (the
  grid Schrodinger pair, its blocks and unitary conjugates) passes an
  :class:`Eigensystem` -- a unitary V, the eigenvalues lam and their exact
  lattice data (modulus index n, phase theta as a grid angle, zero mask).
  It is certified, not trusted: on first read the matrix computes
  ||T V - V diag(lam)||_F / max|lam| and ||V* V - 1||_F (one matmul each,
  Frobenius norms bounding the 2-norms) and raises DomainError when
  either exceeds SPECTRUM_RTOL.  No Schur form, snap or SVD is taken.
  The certificate is a backward error: (V, lam) is the exact eigensystem
  of a matrix within r ||T||_2 of T.  It is relative to the norm, not to
  each eigenvalue: an eigenpair is resolved only to SPECTRUM_RTOL ||T||,
  so eigenpairs with |lam| below that are not certified at all and errors
  in small ones can pass (on the q = 1/2 grid, a swap of the two basis
  vectors of smallest modulus and adjacent phases passes from M = 30 on).
* computed: the complex Schur form, whose unitary factor is accepted as
  an eigenvector basis and whose strictly upper-triangular part is
  discarded.  For defects below the threshold 1e-6 * ||T||^2 (the
  commutator scale) this agrees with the spectral theorem to roundoff;
  above it the computation still completes but the matrix is flagged
  degraded, and callers treat the flag as a failed check.

Every function of a normal matrix on the lattice goes through one
routine, :func:`lattice_calculus`: basis V, lattice data (n, theta, zero)
from :meth:`NormalMatrix.lattice` (the supplied data, or the eigenvalues
snapped by :func:`qazb.gamma.snap_spectrum`), values f(n, theta, zero),
and V diag(f) V*.  A leading axis of f gives a stack of such matrices in
one batched product.  Diagnostics such as :func:`gamma_distance` always
report the unsnapped values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DomainError, KernelConditionError, SpectrumError
from .gamma import GammaPoint, snap_spectrum

__all__ = [
    "Eigensystem",
    "NormalMatrix",
    "eig_normal",
    "apply_fn",
    "chi_op",
    "chi_values",
    "closure_sum",
    "gamma_distance",
    "lattice_calculus",
    "snap_spectrum",
]

DEFAULT_DEFECT_RTOL = 1e-6   # defect threshold = rtol * ||T||^2
SPECTRUM_RTOL = 1e-9   # largest relative lattice distance or eigen-residual of a spectrum


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (exact dense 2-norm)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _frozen(a, dtype) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """T = V diag(lam) V* with the exact lattice data of lam: modulus
    indices n and phases theta (lam = q^n e^{i theta}) off the zero mask,
    lam = 0 on it.  The arrays are copied read-only."""

    V: np.ndarray
    lam: np.ndarray
    n: np.ndarray
    theta: np.ndarray
    zero: np.ndarray | None = None

    def __post_init__(self):
        d = len(self.lam)
        zero = np.zeros(d, bool) if self.zero is None else self.zero
        for name, value, dtype in (("V", self.V, complex), ("lam", self.lam, complex),
                                   ("n", self.n, int), ("theta", self.theta, float),
                                   ("zero", zero, bool)):
            object.__setattr__(self, name, _frozen(value, dtype))
        if self.V.shape != (d, d) or not all(a.shape == (d,) for a in (self.n, self.theta, self.zero)):
            raise DimensionError(f"eigensystem of {d} eigenvalues needs a {d} x {d} basis and "
                                 f"{d} lattice entries, got V {self.V.shape}")

    @classmethod
    def zero_operator(cls, dim: int) -> "Eigensystem":
        """The eigensystem of the zero matrix: V = 1, every eigenvalue 0."""
        return cls(np.eye(dim), np.zeros(dim), np.zeros(dim), np.zeros(dim), np.ones(dim, bool))

    def conjugated(self, U: np.ndarray) -> "Eigensystem":
        """The eigensystem of U T U*: the basis becomes U V."""
        return Eigensystem(U @ self.V, self.lam, self.n, self.theta, self.zero)

    @staticmethod
    def direct_sum(systems) -> "Eigensystem":
        """The eigensystem of the block-diagonal sum, blocks in order."""
        return Eigensystem(
            scipy.linalg.block_diag(*(s.V for s in systems)),
            *(np.concatenate([getattr(s, f) for s in systems]) for f in ("lam", "n", "theta", "zero")),
        )


class NormalMatrix:
    """A dense complex matrix with cached eigensystem and normality defect.

    Immutable: the wrapped array is copied and write-protected.  The
    eigensystem is the supplied `eigensystem`, certified on first read, or
    the Schur form, computed on first read.
    """

    def __init__(self, entries, eigensystem: Eigensystem | None = None):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise DomainError("matrix entries must be finite")
        m.setflags(write=False)
        self._m = m
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._supplied = eigensystem
        self._certificate: float | None = None
        self._schur_offdiag: float | None = None
        if eigensystem is not None:
            if len(eigensystem.lam) != self.dim:
                raise DimensionError(f"eigensystem of {len(eigensystem.lam)} eigenvalues "
                                     f"for a matrix of dimension {self.dim}")
            self._eig = (eigensystem.V, eigensystem.lam)

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._m

    @property
    def eigensystem(self) -> Eigensystem | None:
        """The supplied eigensystem (certified), or None for a Schur form."""
        if self._supplied is not None:
            self.eig()
        return self._supplied

    @property
    def norm2(self) -> float:
        """||T||_2: max|lam| of a supplied eigensystem (equal to within its
        certificate, which this does not trigger), else the largest singular
        value."""
        if not hasattr(self, "_norm2"):
            if self._supplied is not None:
                self._norm2 = float(np.max(np.abs(self._supplied.lam), initial=0.0))
            else:
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
        return DEFAULT_DEFECT_RTOL * self.norm2 ** 2

    @property
    def degraded(self) -> bool:
        """True when functional calculus on this matrix is untrustworthy."""
        return self.normality_defect > self.defect_threshold

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigensystem (V, lam), V unitary: the supplied one, certified on
        first read, or the Schur factor and the Schur diagonal."""
        if self._eig is None:
            if self.dim == 0:
                self._eig = (np.zeros((0, 0), complex), np.zeros(0, complex))
            else:
                S, V = scipy.linalg.schur(self._m, output="complex")
                self._eig = (_frozen(V, complex), _frozen(np.diag(S), complex))
        elif self._supplied is not None and self._certificate is None:
            self._certificate = self._certify()
        return self._eig

    def _certify(self) -> float:
        V, lam = self._eig
        scale = float(np.max(np.abs(lam), initial=0.0))
        res = float(np.linalg.norm(self._m @ V - V * lam))
        r = res / scale if scale > 0.0 else (0.0 if res == 0.0 else np.inf)
        ortho = float(np.linalg.norm(V.conj().T @ V - np.eye(self.dim)))
        if r > SPECTRUM_RTOL or ortho > SPECTRUM_RTOL:
            raise DomainError(
                f"supplied eigensystem does not describe the matrix: relative residual "
                f"||T V - V diag(lam)||_F = {r:.3e}, ||V* V - 1||_F = {ortho:.3e} "
                f"(limit {SPECTRUM_RTOL:g})"
            )
        return r

    @property
    def eig_certificate(self) -> float | None:
        """||T V - V diag(lam)||_F / max|lam| of a supplied eigensystem (at
        most SPECTRUM_RTOL once read; relative to the norm, so it does not
        resolve eigenpairs with |lam| < SPECTRUM_RTOL max|lam|); None for a
        Schur form, whose discarded part is :attr:`schur_offdiag`."""
        self.eig()
        return self._certificate

    def lattice(self, q: float, M: int | None = None, rtol: float | None = None):
        """Lattice data (n, theta, zero, rel) of the eigenvalues.

        A supplied eigensystem gives its exact data, with rel the relative
        distance |lam - q^n e^{i theta}| / q^n (|lam| / ||T|| on the zero
        mask); beyond SPECTRUM_RTOL the data do not describe lam at this q
        and DomainError is raised.  Otherwise the Schur eigenvalues are
        snapped by :func:`snap_spectrum` (scale ||T||, grid order `M`).
        With `rtol` set, any relative distance beyond it raises
        SpectrumError.
        """
        lam = self.eig()[1]
        es = self._supplied
        if es is None:
            return snap_spectrum(lam, q, rtol=rtol, scale=self.norm2, M=M)
        scale = self.norm2
        mod = q ** np.where(es.zero, 0, es.n).astype(float)
        rel = np.where(es.zero, np.abs(lam) / (scale if scale > 0.0 else 1.0),
                       np.abs(lam - mod * np.exp(1j * es.theta)) / mod)
        worst = float(np.max(rel, initial=0.0))
        if worst > SPECTRUM_RTOL:
            raise DomainError(f"supplied lattice data are {worst:.3e} away from the eigenvalues at q={q}")
        if rtol is not None and worst > rtol:
            raise SpectrumError(f"spectrum lies off the modulus lattice: max relative distance "
                                f"{worst:.3e} > rtol={rtol}")
        return es.n, es.theta, es.zero, rel

    @property
    def schur_offdiag(self) -> float:
        """Norm of the discarded strictly-off-diagonal Schur block, computed
        on first read as ||T V - V diag(lam)||_2 (equal, V being unitary)."""
        if self._schur_offdiag is None:
            V, lam = self.eig()
            self._schur_offdiag = operator_norm(self._m @ V - V * lam)
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


def lattice_calculus(T, f, q: float, M: int | None = None, rtol: float | None = None) -> np.ndarray:
    """V f(n, theta, zero) V* for a normal matrix T = V diag(lam) V*.

    The lattice data (modulus indices n, phases theta, zero mask) are
    :meth:`NormalMatrix.lattice` (grid order `M`, admissible relative
    distance `rtol`): exact when supplied, snapped otherwise.  `f` maps
    these arrays to values of shape (..., dim); leading axes give a stack
    of matrices.
    """
    nm = _as_normal(T)
    V, lam = nm.eig()
    n, theta, zero, _ = nm.lattice(q, M=M, rtol=rtol)
    vals = np.asarray(f(n, theta, zero), dtype=complex)
    if vals.shape[-1:] != lam.shape:
        raise DimensionError("f must map the lattice data to values on its last axis")
    return (V * vals[..., None, :]) @ V.conj().T


def apply_fn(T, f, q: float | None = None, snap_rtol: float | None = None) -> np.ndarray:
    """Spectral functional calculus V f(lam) V* for a scalar function f.

    `f` receives the eigenvalue array (complex).  When `q` is given the
    eigenvalues are taken from their lattice data by
    :func:`lattice_calculus`; `snap_rtol` then bounds the admissible
    relative distance (SpectrumError beyond it).
    """
    def values(lam):
        vals = np.asarray(f(lam), dtype=complex)
        if vals.shape != lam.shape:
            raise DimensionError("f must map the eigenvalue array elementwise")
        return vals

    if q is None:
        V, lam = _as_normal(T).eig()
        return (V * values(lam)) @ V.conj().T
    return lattice_calculus(T, lambda n, theta, zero: values(
        np.where(zero, 0.0, q ** n.astype(float) * np.exp(1j * theta))), q, rtol=snap_rtol)


def chi_values(k, theta):
    """The :func:`lattice_calculus` map of chi(., gamma'), gamma' = q^k
    e^{i theta}: x -> e^{i (k arg x + log_q|x| theta)}, with x != 0.
    Arrays (k, theta) give a leading axis."""
    k = np.asarray(k)[..., None]
    theta = np.asarray(theta, dtype=float)[..., None]

    def f(n, th, zero):
        if np.any(zero):
            raise KernelConditionError("chi(X, gamma) requires ker X = {0}; spectrum touches 0")
        return np.exp(1j * (k * th + n * theta))

    return f


def chi_op(X, point: GammaPoint, q: float) -> np.ndarray:
    """Operator bicharacter chi(X, gamma'): functional calculus of
    x -> e^{i (l' arg x + log_q|x| * theta')}.

    Requires ker X = {0}; the modulus indices log_q|x| are integers after
    snapping, which makes the result exactly multiplicative in gamma'.
    chi(X, q) is the unitary phase (polar) factor of X.
    """
    if point.zero:
        raise DomainError("chi_op is defined for nonzero lattice points only")
    return lattice_calculus(X, chi_values(point.k, point.theta), q)


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
