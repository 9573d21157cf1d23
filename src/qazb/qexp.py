"""Quantum exponential function on the modulus lattice.

For 0 < q < 1 the function is defined on Gamma-bar by the infinite product

    F_q(gamma) = prod_{k>=0} (1 + q^{2k} conj(gamma)) / (1 + q^{2k} gamma),

with F_q(0) = 1 and the convention F_q(gamma) = -1 on the singular set
{-1, -q^-2, -q^-4, ...} where a factor degenerates to 0/0.  Every factor is
a ratio of conjugates, so |F_q| = 1 identically, and F_q is real-positive
lattice points' fixed point: F_q(q^k) = 1 exactly.

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
from .gamma import GammaGrid, GammaPoint, snap_spectrum, zero_point
from .opalg import NormalMatrix

__all__ = [
    "QExpParams",
    "ConditioningWarning",
    "fq",
    "fq_lattice",
    "fq_complex",
    "fq_family",
    "fq_on_operator",
    "invert_fq_family",
    "InversionResult",
    "candidate_separation",
]


class ConditioningWarning(UserWarning):
    """A product factor came close to its pole; accuracy is degraded."""


@dataclass(frozen=True)
class QExpParams:
    """Evaluation parameters: deformation q, relative truncation tolerance,
    and a hard cap on the number of product factors."""

    q: float
    tol: float = 1e-13
    max_terms: int = 512

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
    if K > p.max_terms:
        warnings.warn(
            f"truncation capped at max_terms={p.max_terms} (certified length {K})",
            ConditioningWarning,
            stacklevel=3,
        )
        K = p.max_terms
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
    """F_q at a single lattice point (zero allowed).

    Exact special values: F_q(0) = 1, F_q = -1 on the singular set, and
    F_q = 1 at real lattice points off the singular set.
    """
    if point.zero:
        return 1 + 0j
    if point.is_singular:
        return -1 + 0j
    return complex(fq_lattice(np.array([point.k]), np.array([point.theta]), p)[0])


def fq_complex(z: np.ndarray | complex, p: QExpParams, rtol: float | None = None) -> np.ndarray | complex:
    """F_q of raw complex values whose moduli are snapped to the lattice.

    With `rtol` set, moduli further than that relative distance from q^Z
    raise; with rtol=None values are snapped to the nearest modulus
    unconditionally (phases are never snapped: the circles are full).
    """
    scalar = np.isscalar(z)
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    n, theta, zero, _ = snap_spectrum(arr, p.q, rtol=rtol)
    vals = fq_lattice(n, theta, p, zero=zero)
    return complex(vals[0]) if scalar else vals


def fq_family(beta: GammaPoint, g: GammaGrid, p: QExpParams) -> np.ndarray:
    """The unit-modulus family gamma -> F_q(beta * gamma) over all grid
    points, in flat order.  This is the forward map inverted by
    :func:`invert_fq_family`."""
    if beta.zero:
        return np.ones(g.size, dtype=complex)
    n, theta = beta * g
    return fq_lattice(n, theta, p)


def fq_on_operator(T, p: QExpParams, M: int | None = None) -> np.ndarray:
    """Spectral functional calculus: V diag(F_q(lambda_i)) V*.

    `T` is a NormalMatrix (or array accepted by it); eigenvalues are
    snapped to the lattice for evaluation, their phases to the grid of
    order `M` when given, while diagnostics keep the raw values.  The
    result is unitary up to ~10x the relative normality defect of T.
    """
    if not isinstance(T, NormalMatrix):
        T = NormalMatrix(T)
    V, lam = T.eig()
    n, theta, zero, _ = snap_spectrum(lam, p.q, scale=T.norm2, M=M)
    vals = fq_lattice(n, theta, p, zero=zero)
    return (V * vals) @ V.conj().T


@dataclass(frozen=True)
class InversionResult:
    """Outcome of the least-squares candidate search."""

    beta: GammaPoint
    residual: float
    gap: float           # objective distance to the runner-up


def _as_flat_data(data, g: GammaGrid) -> np.ndarray:
    if isinstance(data, dict):
        flat = np.empty(g.size, dtype=complex)
        for (k, j), v in data.items():
            flat[g.flat_index(k, j)] = v
        return flat
    arr = np.asarray(data, dtype=complex).reshape(-1)
    if arr.shape != (g.size,):
        raise DomainError(f"expected {g.size} data values, got {arr.shape}")
    return arr


def default_candidates(g: GammaGrid) -> list[GammaPoint]:
    """All grid points plus 0 (the trivial multiplier)."""
    return list(g.points) + [zero_point()]


def invert_fq_family(
    data,
    g: GammaGrid,
    p: QExpParams,
    candidates: list[GammaPoint] | None = None,
) -> InversionResult:
    """Recover the lattice multiplier beta from samples of F_q(beta * .).

    `data` maps grid points to unit-modulus values (flat array or dict
    keyed by (k, j)).  Returns the candidate minimising the summed squared
    deviation; raises AmbiguityError when the best two candidates are
    within 1e-9 of the same objective value.
    """
    flat = _as_flat_data(data, g)
    mod_err = float(np.max(np.abs(np.abs(flat) - 1.0)))
    if mod_err > 1e-6:
        raise DomainError(f"data is not unit modulus (max deviation {mod_err:.3e})")
    if candidates is None:
        candidates = default_candidates(g)

    best = runner = math.inf
    best_beta = None
    for beta in candidates:
        obj = float(np.sum(np.abs(flat - fq_family(beta, g, p)) ** 2))
        if obj < best:
            best, runner, best_beta = obj, best, beta
        elif obj < runner:
            runner = obj
    if runner - best < 1e-9 and len(candidates) > 1:
        raise AmbiguityError(
            f"two candidates fit within 1e-9 of each other (objectives {best:.3e}, {runner:.3e})"
        )
    return InversionResult(best_beta, best, runner - best)


def candidate_separation(g: GammaGrid, p: QExpParams) -> float:
    """Discriminability certificate: the minimum over distinct candidate
    pairs (beta1, beta2) of sum_gamma |F_q(beta1 gamma) - F_q(beta2 gamma)|^2.

    A strictly positive value witnesses that the finite family determines
    its generator uniquely at this grid size."""
    cands = default_candidates(g)
    rows = np.stack([fq_family(b, g, p) for b in cands])
    s0 = math.inf
    for i in range(len(cands)):
        d = np.sum(np.abs(rows[i + 1:] - rows[i]) ** 2, axis=1)
        if d.size:
            s0 = min(s0, float(np.min(d)))
    return s0
