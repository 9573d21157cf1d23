"""Functional calculus for finite normal and near-normal matrices.

The finite models in this package truncate operators whose continuum
versions are exactly normal, so every matrix carries a normality defect
||T T* - T* T||_2.  A matrix gets its eigensystem in one of two ways:

* supplied: a construction that knows the spectrum in closed form (the
  grid Schrodinger pair, its blocks and unitary conjugates) passes an
  :class:`Eigensystem` -- a unitary V, the eigenvalues lam and their exact
  lattice data (modulus index n, phase theta as a grid angle, zero mask).
  It is certified, not trusted: on first read the matrix computes
  r = ||T V - V diag(lam)||_F / max|lam| and eps = ||V* V - 1||_F (one
  matmul each; Frobenius norms bounding the 2-norms) and raises
  DomainError when either exceeds SPECTRUM_RTOL.  No Schur form, snap or
  SVD is taken.  The certificate is a backward error: (V, lam) is the
  exact eigensystem of a matrix within r ||T||_2 of T.  It is relative to
  the norm, not to each eigenvalue: an eigenpair is resolved only to
  SPECTRUM_RTOL ||T||, so eigenpairs with |lam| below that are not
  certified at all and errors in small ones can pass (on the q = 1/2
  grid, a swap of the two basis vectors of smallest modulus and adjacent
  phases passes from M = 30 on).
  The certificate also bounds the normality defect, which is then
  reported without a commutator or an SVD.  With s = max|lam| and
  u = (2 eps + r) / sqrt(1 - eps):

      ||T T* - T* T||_2 <= s^2 (4 u + u^2).

  Take the polar factorisation V = W H (W unitary, ||H - 1|| <= eps) and
  the exactly normal N = W diag(lam) W*.  Then (T - N) V = R +
  W (H L - L H), L = diag(lam), R = T V - V L, and ||V^-1|| <=
  1 / sqrt(1 - eps), so E = T - N has ||E|| <= s u.  Expanding
  T T* - T* T with N N* = N* N leaves 4 ||N|| ||E|| + ||E||^2.
  A supplied eigensystem that fails its certificate keeps the dense
  commutator norm as its defect.
* computed: the complex Schur form (scipy's, with scipy.linalg imported
  on the first Schur form taken, so that a run whose every matrix has a
  supplied eigensystem never loads scipy), whose unitary factor is
  accepted as an eigenvector basis and whose strictly upper-triangular
  part is discarded.  For defects below the threshold 1e-6 * ||T||^2 (the
  commutator scale) this agrees with the spectral theorem to roundoff;
  above it the computation still completes but the matrix is flagged
  degraded, and callers treat the flag as a failed check.

Every function of a normal matrix on the lattice goes through one
lattice-data step: basis V, lattice data (n, theta, zero) from
:meth:`NormalMatrix.lattice` (the supplied data, or the eigenvalues
snapped by :func:`qazb.gamma.snap_spectrum`) and values f(n, theta,
zero).  :func:`lattice_values` returns the values f;
:func:`lattice_calculus` forms V diag(f) V* (a leading axis of f gives a
stack of such matrices in one batched product); an operator's
`spectral_apply` applies values to the columns of an n x r block B as
V (f * (V* B)), without forming the n x n matrix, so values computed
once serve any number of applications.  The eigenbasis V is always a
matrix, the identity included (:attr:`NormalOperator.basis`), and
multiplying by an exact identity is exact.  Diagnostics such as
:func:`gamma_distance` always report the unsnapped values.

The operators of the grid model whose structure is known in closed form
are held by that structure: a :class:`GridOperator` is the grid values on
the standard basis (X), on the Fourier basis F* (Y = F* X F), or zero.
It applies itself, and functions of itself, to an n x c block by value
multiplies and the M-point FFTs of
:meth:`~qazb.gamma.GammaGrid.fourier_columns`, in O(n c log M), and its
certificate is structural: T is V diag(lam) V* by construction, with the
exact grid lattice data, so only the unitarity of V is measured (on the
M-point transform, :attr:`~qazb.gamma.GammaGrid.fourier_defect`), and
r <= eps sqrt(1 + eps) follows from T V - V L = V L (V* V - 1).  Its
dense entries and eigensystem are built only when read.  Both kinds of
operator share :class:`NormalOperator`: `apply`, `apply_adjoint`,
`spectral_apply` (V (vals * (V* B))), `lattice`, `eigenvalues`, `norm2`
and `normality_defect`, and the dense views `entries`, `eig`,
`eigensystem` and `basis`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, KernelConditionError, ParameterError
from .gamma import GammaGrid, GammaPoint, snap_spectrum

__all__ = [
    "Eigensystem",
    "GridOperator",
    "NormalMatrix",
    "NormalOperator",
    "chi_op",
    "chi_values",
    "eigen_stack",
    "gamma_distance",
    "lattice_calculus",
    "lattice_values",
    "snap_spectrum",
]

DEFAULT_DEFECT_RTOL = 1e-6   # defect threshold = rtol * ||T||^2
SPECTRUM_RTOL = 1e-9   # largest relative lattice distance or eigen-residual of a spectrum


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value (exact dense 2-norm); 0.0 without an SVD
    when every entry is 0 (or there is none)."""
    if not a.any():
        return 0.0
    return float(np.linalg.norm(a, 2))


def block_diag(*blocks) -> np.ndarray:
    """The block-diagonal matrix of one or more blocks, in order, zero off
    them and in their common dtype; a block may be a scalar, a row or
    empty, such as the (4, 0) window of a 2-point sub-grid.  The semantics
    are those of scipy.linalg.block_diag for matrix blocks."""
    mats = [np.atleast_2d(np.asarray(b)) for b in blocks]
    rows, cols = np.sum([m.shape for m in mats], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


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
            block_diag(*(s.V for s in systems)),
            *(np.concatenate([getattr(s, f) for s in systems]) for f in ("lam", "n", "theta", "zero")),
        )


def _certified_defect(s: float, eps: float, r: float) -> float:
    """The normality-defect bound s^2 (4u + u^2), u = (2 eps + r) / sqrt(1 - eps),
    of a certified eigensystem (see the module docstring)."""
    u = (2.0 * eps + r) / np.sqrt(1.0 - eps)
    return s * s * (4.0 * u + u * u)


def _supplied_lattice(lam, n, theta, zero, scale: float, q: float):
    """(n, theta, zero, rel) of exact lattice data, rel the relative distance
    |lam - q^n e^{i theta}| / q^n (|lam| / scale on the zero mask); beyond
    SPECTRUM_RTOL the data do not describe lam at this q: DomainError."""
    mod = q ** np.where(zero, 0, n).astype(float)
    rel = np.where(zero, np.abs(lam) / (scale if scale > 0.0 else 1.0),
                   np.abs(lam - mod * np.exp(1j * theta)) / mod)
    worst = float(np.max(rel, initial=0.0))
    if worst > SPECTRUM_RTOL:
        raise DomainError(f"supplied lattice data are {worst:.3e} away from the eigenvalues at q={q}")
    return n, theta, zero, rel


class NormalOperator:
    """What the witnesses read of an operator T on C^dim (see the module
    docstring): `apply(B)` = T B, `apply_adjoint(B)` = T* B and
    `spectral_apply(vals, B)` = V (vals * (V* B)) on n x c blocks, and
    `norm2` and `normality_defect`, from which the relative defect and the
    degraded flag follow here, as does the eigenbasis `basis` of `eig`."""

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
        """True when functional calculus on this operator is untrustworthy."""
        return self.normality_defect > self.defect_threshold

    @property
    def basis(self) -> np.ndarray:
        """The eigenbasis V of :meth:`eig`, a d x d matrix."""
        return self.eig()[0]


class NormalMatrix(NormalOperator):
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
        self._ortho: float | None = None   # ||V* V - 1||_F of the certificate
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
        """||T T* - T* T||_2 (absolute).  For a supplied eigensystem that
        passes its certificate it is the certified upper bound s^2 (4u + u^2)
        (see the module docstring), with no commutator or SVD; otherwise the
        dense commutator norm."""
        if not hasattr(self, "_defect"):
            r = None
            if self._supplied is not None:
                try:
                    r = self.eig_certificate
                except DomainError:
                    pass
            if r is not None:
                self._defect = _certified_defect(self.norm2, self._ortho, r)
            else:
                t = self._m
                self._defect = operator_norm(t @ t.conj().T - t.conj().T @ t)
        return self._defect

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigensystem (V, lam), V unitary: the supplied one, certified on
        first read, or the Schur factor and the Schur diagonal.  The Schur
        form is scipy's, and scipy.linalg is imported on the first one
        taken, so only a matrix without a supplied eigensystem loads it."""
        if self._eig is None:
            if self.dim == 0:
                self._eig = (np.zeros((0, 0), complex), np.zeros(0, complex))
            else:
                import scipy.linalg   # a third of a second; most runs never need it

                S, V = scipy.linalg.schur(self._m, output="complex")
                self._eig = (_frozen(V, complex), _frozen(np.diag(S), complex))
        elif self._supplied is not None and self._certificate is None:
            self._certificate = self._certify()
        return self._eig

    def _certify(self) -> float:
        V, lam = self._eig
        scale = float(np.max(np.abs(lam), initial=0.0))
        res = float(np.linalg.norm(self._m @ V - V * lam))
        ortho = float(np.linalg.norm(V.conj().T @ V - np.eye(self.dim)))
        r = res / scale if scale > 0.0 else (0.0 if res == 0.0 else np.inf)
        if r > SPECTRUM_RTOL or ortho > SPECTRUM_RTOL:
            raise DomainError(
                f"supplied eigensystem does not describe the matrix: relative residual "
                f"||T V - V diag(lam)||_F = {r:.3e}, ||V* V - 1||_F = {ortho:.3e} "
                f"(limit {SPECTRUM_RTOL:g})"
            )
        self._ortho = ortho
        return r

    @property
    def eig_certificate(self) -> float | None:
        """||T V - V diag(lam)||_F / max|lam| of a supplied eigensystem (at
        most SPECTRUM_RTOL once read; relative to the norm, so it does not
        resolve eigenpairs with |lam| < SPECTRUM_RTOL max|lam|); None for a
        Schur form."""
        self.eig()
        return self._certificate

    def lattice(self, q: float, M: int | None = None):
        """Lattice data (n, theta, zero, rel) of the eigenvalues.

        A supplied eigensystem gives its exact data, with rel the relative
        distance |lam - q^n e^{i theta}| / q^n (|lam| / ||T|| on the zero
        mask); beyond SPECTRUM_RTOL the data do not describe lam at this q
        and DomainError is raised.  Otherwise the Schur eigenvalues are
        snapped by :func:`snap_spectrum` (scale ||T||, grid order `M`).
        """
        lam = self.eig()[1]
        es = self._supplied
        if es is None:
            return snap_spectrum(lam, q, scale=self.norm2, M=M)
        return _supplied_lattice(lam, es.n, es.theta, es.zero, self.norm2, q)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig()[1]

    @property
    def is_zero(self) -> bool:
        return not np.any(self._m)

    def apply(self, B: np.ndarray) -> np.ndarray:
        return self._m @ B

    def apply_adjoint(self, B: np.ndarray) -> np.ndarray:
        return self._m.conj().T @ B

    def spectral_apply(self, vals: np.ndarray, B: np.ndarray) -> np.ndarray:
        """V (vals * (V* B)), in O(n^2 r) for r columns."""
        V = self.basis
        return V @ (vals[:, None] * (V.conj().T @ B))

    def __repr__(self) -> str:
        return f"NormalMatrix(dim={self.dim}, defect={self.normality_defect:.3e})"


class GridOperator(NormalOperator):
    """A normal operator on the grid space of `g` (dimension n = M^2) held
    by its structure, of one of three kinds: "position" (X, the grid values
    g.values on the standard basis), "fourier" (Y = F* X F, the grid values
    on the basis F*) or "zero".  The eigenvalues are in grid order, with
    the grid's exact lattice data.

    It applies itself and functions of itself to n x c blocks without an
    n x n array (see the module docstring).  Its certificate is
    structural: eps = ||V* V - 1||_F is 0 for the standard basis and
    g.fourier_defect for F*, and r = eps sqrt(1 + eps).  The dense
    `entries` and eigensystem are built on first read, equal to those the
    same operator has as a :class:`NormalMatrix`.
    """

    KINDS = ("position", "fourier", "zero")

    def __init__(self, g: GammaGrid, kind: str):
        if kind not in self.KINDS:
            raise ParameterError(f"grid operator kind must be one of {self.KINDS}, got {kind!r}")
        self.grid, self.kind = g, kind

    @property
    def dim(self) -> int:
        return self.grid.size

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return _frozen(np.zeros(self.dim), complex) if self.is_zero else self.grid.values

    @property
    def norm2(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    @property
    def _ortho(self) -> float:
        return self.grid.fourier_defect if self.kind == "fourier" else 0.0

    @property
    def eig_certificate(self) -> float:
        eps = self._ortho
        return eps * float(np.sqrt(1.0 + eps))

    @property
    def normality_defect(self) -> float:
        return _certified_defect(self.norm2, self._ortho, self.eig_certificate)

    def lattice(self, q: float, M: int | None = None):
        """The exact lattice data (n, theta, zero, rel), as
        :meth:`NormalMatrix.lattice` gives supplied data."""
        if self.is_zero:
            n = self.dim
            data = (np.zeros(n, int), np.zeros(n), np.ones(n, bool))
        else:
            data = (*self.grid.lattice, np.zeros(self.dim, bool))
        return _supplied_lattice(self.eigenvalues, *data, self.norm2, q)

    def spectral_apply(self, vals: np.ndarray, B: np.ndarray) -> np.ndarray:
        """V (vals * (V* B)) by a value multiply, between two M-point FFTs
        for the Fourier kind; V is not built."""
        if self.kind != "fourier":
            return vals[:, None] * B
        g = self.grid
        return g.fourier_columns(vals[:, None] * g.fourier_columns(B, False), True)

    def apply(self, B: np.ndarray) -> np.ndarray:
        return self.spectral_apply(self.eigenvalues, B)

    def apply_adjoint(self, B: np.ndarray) -> np.ndarray:
        return self.spectral_apply(self.eigenvalues.conj(), B)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix: diag(lam), or (F* lam) F for the Fourier kind."""
        if self.kind == "fourier":
            F = self.grid.fourier
            return _frozen((F.conj().T * self.grid.values) @ F, complex)
        return _frozen(np.diag(self.eigenvalues), complex)

    @functools.cached_property
    def eigensystem(self) -> Eigensystem:
        """The dense eigensystem: basis 1, or F* for the Fourier kind."""
        if self.is_zero:
            return Eigensystem.zero_operator(self.dim)
        V = self.grid.fourier.conj().T if self.kind == "fourier" else np.eye(self.dim)
        return Eigensystem(V, self.grid.values, *self.grid.lattice)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return self.eigensystem.V, self.eigensystem.lam


def _as_normal(T) -> NormalOperator:
    return T if isinstance(T, NormalOperator) else NormalMatrix(T)


def lattice_values(T, f, q: float, M: int | None = None) -> np.ndarray:
    """The values f(n, theta, zero) on the lattice data of T (see
    :func:`lattice_calculus`), values on the last axis, in the order of
    its eigenbasis."""
    nm = _as_normal(T)
    n, theta, zero, _ = nm.lattice(q, M=M)
    vals = np.asarray(f(n, theta, zero), dtype=complex)
    if vals.shape[-1:] != (nm.dim,):
        raise DimensionError("f must map the lattice data to values on its last axis")
    return vals


def lattice_calculus(T, f, q: float, M: int | None = None) -> np.ndarray:
    """V f(n, theta, zero) V* for a normal matrix T = V diag(lam) V*.

    The lattice data (modulus indices n, phases theta, zero mask) are
    :meth:`NormalMatrix.lattice` (grid order `M`): exact when supplied,
    snapped otherwise.  `f` maps
    these arrays to values of shape (..., dim); leading axes give a stack
    of matrices.
    """
    nm = _as_normal(T)
    return eigen_stack(nm.eig()[0], lattice_values(nm, f, q, M))


def eigen_stack(V: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V*, one matrix per leading index of `vals` (one batched
    product): :func:`lattice_calculus` on values from :func:`lattice_values`."""
    return (V * vals[..., None, :]) @ V.conj().T


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
    """Operator bicharacter chi(X, gamma') as a dense matrix: functional
    calculus of x -> e^{i (l' arg x + log_q|x| * theta')}.

    Requires ker X = {0}; the modulus indices log_q|x| are integers after
    snapping, which makes the result exactly multiplicative in gamma'.
    chi(X, q) is the unitary phase (polar) factor of X.  To apply it to
    columns B without forming it, pass the values of
    ``lattice_values(X, chi_values(k, theta), q)`` to ``X.spectral_apply``.
    """
    if point.zero:
        raise DomainError("chi_op is defined for nonzero lattice points only")
    return lattice_calculus(X, chi_values(point.k, point.theta), q)


def gamma_distance(T, q: float) -> float:
    """Mean relative distance of the spectrum to the modulus lattice.

    For each eigenvalue the nearest modulus q^n minimises
    ||lambda| - q^n| / q^n; the phase is free.  Zero eigenvalues lie in
    Gamma-bar and contribute 0.
    """
    nm = _as_normal(T)
    lam = nm.eigenvalues
    if lam.size == 0:
        return 0.0
    _, _, zero, rel = snap_spectrum(lam, q, scale=nm.norm2)
    return float(np.mean(np.where(zero, 0.0, rel)))
