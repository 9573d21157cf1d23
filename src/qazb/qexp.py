"""Quantum exponential function on the modulus lattice.

For 0 < q < 1 the function is defined on Gamma-bar by the infinite product

    F_q(gamma) = prod_{k>=0} (1 + q^{2k} conj(gamma)) / (1 + q^{2k} gamma),

with F_q(0) = 1 and the convention F_q(gamma) = -1 on the singular set
{-1, -q^-2, -q^-4, ...} where a factor degenerates to 0/0.  Every factor is
a ratio of conjugates, so |F_q| = 1 identically, and F_q = 1 exactly at
the real positive lattice points q^k.

Truncation is certified per argument: with K chosen so that
q^{2K} |gamma| <= 1/2, the discarded tail is bounded by

    sum_{k>=K} q^{2k} |conj(gamma) - gamma| / |1 + q^{2k} gamma|
        <= 2 |conj(gamma) - gamma| q^{2K} / (1 - q^2),

which is driven below the requested tolerance.

The inverse problem ("which lattice multiplier generated this unit-modulus
family?") is solved by exhaustive least squares over a finite candidate
set; on a finite grid the candidates are separated, so the minimiser is
unambiguous and exact forward data is recovered with zero residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, DomainError
from .gamma import GammaGrid, GammaPoint, zero_point
from .opalg import lattice_calculus, lattice_values

__all__ = [
    "QExpParams",
    "ConditioningWarning",
    "fq",
    "fq_lattice",
    "fq_family",
    "fq_grid",
    "fq_on_operator",
    "fq_eigenvalues",
    "invert_fq_family",
    "InversionResult",
    "candidate_separation",
]


MAX_TERMS = 512   # hard cap on the number of product factors


class ConditioningWarning(UserWarning):
    """A product factor came close to its pole; accuracy is degraded."""


@dataclass(frozen=True)
class QExpParams:
    """Evaluation parameters: deformation q and relative truncation
    tolerance."""

    q: float
    tol: float = 1e-13

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not (0.0 < self.tol < 1.0):
            raise DomainError(f"tol must lie in (0, 1), got {self.tol}")


def _truncation_length(n: np.ndarray, sin_theta: np.ndarray, p: QExpParams) -> int:
    """Number of product factors certifying the tail bound for all entries."""
    q, lnq = p.q, math.log(p.q)
    # K0: q^{2K} q^n <= 1/2  <=>  K >= (n*lnq + ln 2) / (-2 lnq)
    k0 = np.ceil((n * lnq + math.log(2.0)) / (-2.0 * lnq))
    # tail: 2 * |conj(z) - z| * q^{2K} / (1 - q^2) <= tol,  |conj(z)-z| = 2 q^n |sin theta|
    gap = 4.0 * q ** n.astype(float) * np.abs(sin_theta)
    with np.errstate(divide="ignore"):
        kt = np.ceil(np.log(p.tol * (1.0 - q * q) / np.maximum(gap, 1e-300)) / (2.0 * lnq))
    K = int(max(1, np.max(np.maximum(k0, kt), initial=1)))
    if K > MAX_TERMS:
        warnings.warn(
            f"truncation capped at {MAX_TERMS} factors (certified length {K})",
            ConditioningWarning,
            stacklevel=3,
        )
        K = MAX_TERMS
    return K


def fq_lattice(
    n: np.ndarray,
    theta: np.ndarray,
    p: QExpParams,
    zero: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised F_q on lattice data: entries q^n e^{i theta}, plus an
    optional boolean mask marking entries equal to 0 in Gamma-bar.

    Angles must already be reduced to [0, 2 pi) (singularity is tested by
    float equality theta == pi).  Only the modulus is constrained to the
    lattice; the angle is free since Gamma-bar contains full circles.
    """
    n = np.atleast_1d(np.asarray(n))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if zero is None:
        zero = np.zeros(n.shape, dtype=bool)
    zero = np.atleast_1d(np.asarray(zero, dtype=bool))

    out = np.ones(n.shape, dtype=complex)
    singular = (~zero) & (theta == math.pi) & (n <= 0) & (n % 2 == 0)
    out[singular] = -1.0

    sin_t = np.sin(theta)
    real = (sin_t == 0.0) | (theta == 0.0) | (theta == math.pi)
    active = ~(zero | singular | real)   # real non-singular points give exactly 1
    if not np.any(active):
        return out

    na, ta = n[active], theta[active]
    za = p.q ** na.astype(float) * (np.cos(ta) + 1j * np.sin(ta))
    K = _truncation_length(na, np.sin(ta), p)
    f = np.ones(za.shape, dtype=complex)
    zc = np.conj(za)
    worst = np.inf
    for k in range(K):
        w = p.q ** (2 * k)
        den = 1.0 + w * za
        worst = min(worst, float(np.min(np.abs(den))))
        f *= (1.0 + w * zc) / den
    if worst < 1e-6:
        warnings.warn(
            f"a product factor denominator reached |1 + q^(2k) z| = {worst:.3e}; "
            "evaluation near the singular set is ill conditioned",
            ConditioningWarning,
            stacklevel=2,
        )
    out[active] = f
    return out


def fq(point: GammaPoint, p: QExpParams) -> complex:
    """F_q at a single lattice point (zero allowed): :func:`fq_lattice` on
    one entry, with its exact special values F_q(0) = 1, F_q = -1 on the
    singular set and F_q = 1 at real lattice points off it.
    """
    return complex(fq_lattice([point.k], [point.theta], p, zero=[point.zero])[0])


def fq_grid(g: GammaGrid, p: QExpParams):
    """The lattice-calculus map from the lattice data (n, theta, zero) of
    a stack of beta, and their turn fractions `frac` as
    :meth:`GammaGrid.times` takes them, to F_q(beta * gamma) in one
    :func:`fq_lattice` call: grid points gamma on the first axis."""

    def f(n, theta, zero, frac=None):
        k, theta = g.times(n, theta, frac)
        zero = np.broadcast_to(zero, k.shape)
        return fq_lattice(k.ravel(), theta.ravel(), p, zero=zero.ravel()).reshape(k.shape)

    return f


def fq_family(beta: GammaPoint, g: GammaGrid, p: QExpParams) -> np.ndarray:
    """The unit-modulus family gamma -> F_q(beta * gamma) over all grid
    points, in flat order, by the point product ``beta * g``: a row of
    :func:`candidate_table` to roundoff.  This is the forward map inverted
    by :func:`invert_fq_family`."""
    if beta.zero:
        return np.ones(g.size, dtype=complex)
    n, theta = beta * g
    return fq_lattice(n, theta, p)


def _fq_of_lattice(p: QExpParams):
    """The lattice-calculus map (n, theta, zero) -> F_q(q^n e^{i theta}) (1 on zero)."""
    return lambda n, theta, zero: fq_lattice(n, theta, p, zero=zero)


def fq_on_operator(T, p: QExpParams, M: int | None = None) -> np.ndarray:
    """Spectral functional calculus: V diag(F_q(lambda_i)) V*.

    `T` is a NormalMatrix (or array accepted by it); through
    :func:`qazb.opalg.lattice_calculus` its eigenvalues are snapped to the
    lattice for evaluation, their phases to the grid of order `M` when
    given, while diagnostics keep the raw values.  The result is unitary
    up to ~10x the relative normality defect of T.
    """
    return lattice_calculus(T, _fq_of_lattice(p), p.q, M=M)


def fq_eigenvalues(T, p: QExpParams, M: int | None = None) -> np.ndarray:
    """F_q of the eigenvalues of T on their lattice data, in the order of
    its eigenbasis: the values of :func:`fq_on_operator`, computed once
    for any number of ``T.spectral_apply`` calls (F_q(T) B without
    forming F_q(T))."""
    return lattice_values(T, _fq_of_lattice(p), p.q, M=M)


@dataclass(frozen=True)
class InversionResult:
    """Outcome of the least-squares candidate search; for a stack of m
    families, a tuple of m points and arrays of m values."""

    beta: GammaPoint | tuple[GammaPoint, ...]
    residual: float | np.ndarray
    gap: float | np.ndarray      # objective distance to the runner-up


def default_candidates(g: GammaGrid) -> list[GammaPoint]:
    """All grid points plus 0 (the trivial multiplier)."""
    return list(g.points) + [zero_point()]


def candidate_table(g: GammaGrid, p: QExpParams, candidates: list[GammaPoint] | None = None) -> np.ndarray:
    """The families F_q(beta * .) of the candidates (default: all grid
    points plus 0) as the rows of one array, from one :func:`fq_grid`
    call.  A row is :func:`fq_family` to roundoff: the table takes one
    truncation length, the longest any row needs."""
    if candidates is None:
        candidates = default_candidates(g)
    k, theta, zero, num, den = (np.array(a) for a in zip(*(
        (b.k, b.theta, b.zero, *(b.frac or (0, 0))) for b in candidates)))
    return fq_grid(g, p)(k, theta, zero, (num, den)).T


def invert_fq_family(
    data,
    g: GammaGrid,
    p: QExpParams,
    candidates: list[GammaPoint] | None = None,
) -> InversionResult:
    """Recover the lattice multiplier beta from samples of F_q(beta * .).

    `data` holds one unit-modulus value per grid point, in flat (k-major)
    order; a 2-D array of g.size columns is a stack of such families, all
    inverted against one :func:`candidate_table`.  The objectives, the
    summed squared deviations from each row of the table, are one
    row-wise reduction.  Returns the first candidate minimising them;
    raises AmbiguityError when the best two candidates of a family are
    within 1e-9 of the same objective value.  The residual is the
    objective against the exact :func:`fq_family` of the chosen candidate.
    """
    flat = np.asarray(data, dtype=complex)
    stack = flat.ndim == 2 and flat.shape[1] == g.size
    rows = flat if stack else flat.reshape(1, -1)
    if rows.shape[1] != g.size:
        raise DomainError(f"expected {g.size} data values, got {rows.shape[1:]}")
    mod_err = float(np.max(np.abs(np.abs(rows) - 1.0)))
    if not mod_err <= 1e-6:   # a NaN value fails too
        raise DomainError(f"data is not unit modulus (max deviation {mod_err:.3e})")
    if candidates is None:
        candidates = default_candidates(g)

    obj = np.sum(np.abs(rows[:, None, :] - candidate_table(g, p, candidates)) ** 2, axis=2)
    # the best and the runner-up objective (inf for a single candidate)
    low, runner = np.partition(np.pad(obj, ((0, 0), (0, 1)), constant_values=math.inf), 1, axis=1)[:, :2].T
    gap = runner - low
    if np.any(gap < 1e-9):
        i = int(np.argmin(gap))
        raise AmbiguityError(
            f"two candidates fit within 1e-9 of each other (objectives {low[i]:.3e}, {runner[i]:.3e})"
        )
    beta = tuple(candidates[i] for i in np.argmin(obj, axis=1))
    residual = np.array([np.sum(np.abs(r - fq_family(b, g, p)) ** 2) for r, b in zip(rows, beta)])
    if stack:
        return InversionResult(beta, residual, gap)
    return InversionResult(beta[0], float(residual[0]), float(gap[0]))


def candidate_separation(g: GammaGrid, p: QExpParams) -> float:
    """Discriminability certificate: the minimum over distinct candidate
    pairs (beta1, beta2) of sum_gamma |F_q(beta1 gamma) - F_q(beta2 gamma)|^2,
    over the rows of :func:`candidate_table` at the default candidates.

    A strictly positive value witnesses that the finite family determines
    its generator uniquely at this grid size."""
    rows = candidate_table(g, p)
    return min(float(np.min(np.sum(np.abs(rows[i + 1:] - rows[i]) ** 2, axis=1))) for i in range(len(rows) - 1))
