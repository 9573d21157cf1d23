"""The modulus lattice group, its bicharacter, and the finite grid model.

The group in question is Gamma = {z in C : |z| in q^Z} for a deformation
parameter 0 < q < 1, together with its closure Gamma-bar = Gamma u {0}.
A nonzero element is written gamma = q^k * e^{i theta} and stored exactly
as the pair (k, theta); complex values are only materialised on demand.
Storing (k, theta) keeps two predicates exact that floating-point moduli
would blur: membership of |gamma| in q^Z, and membership in the singular
set {-1, -q^-2, -q^-4, ...} of the quantum exponential function.

Self-duality of Gamma ~ Z x S^1 is implemented by the bicharacter

    chi(gamma, gamma') = exp(i * (l*theta + k*theta')),
    k = log_q|gamma|,  l = log_q|gamma'|,

which is symmetric and multiplicative in each slot.  Angles enter only as
e^{i * integer * theta}, so chi is invariant under theta -> theta + 2 pi.

Sign convention: the exponent parametrisation gamma = q^{i phi + k} relates
to the stored angle by theta = phi * ln q (mod 2 pi); since ln q < 0 the two
orientations are opposite.  All public formulas here use theta = arg gamma.

The finite model replaces Z x S^1 by Z_M x Z_M: grid point (k, j) carries
the value q^{c(k)} * e^{2 pi i j / M} with c(k) the centred representative
of k in [-M/2, M/2).  The grid pairing e^{2 pi i (j l + j' k) / M} agrees
with chi on grid points because c(k) = k (mod M), and it is the kernel of
the grid Fourier unitary F_M (normalised by 1/M).

Both lattice decisions of the package live here: :func:`snap_spectrum`
turns eigenvalues into lattice data (modulus index, phase, or zero), and
:meth:`GammaGrid.times` multiplies lattice data by every grid point at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

TAU = 2.0 * math.pi
ZERO_RTOL = 1e-9   # snapped values below ZERO_RTOL * scale are 0

__all__ = [
    "GammaPoint",
    "GammaGrid",
    "make_point",
    "zero_point",
    "snap_spectrum",
    "rational_point",
    "chi",
    "grid",
    "check_grid_order",
]


def reduce_angle(theta: float) -> float:
    """Reduce an angle to [0, 2 pi) using the exact IEEE remainder.

    Exactness matters: multiples of pi must stay multiples of pi so the
    singular-set predicate can use float equality.
    """
    r = math.remainder(theta, TAU)
    if r < 0.0:
        r += TAU
    return 0.0 if r == TAU else r


@dataclass(frozen=True)
class GammaPoint:
    """A point of Gamma-bar: zero, or q^k * e^{i theta} with theta in [0, 2 pi).

    Instances are immutable; construct through :func:`make_point`,
    :func:`zero_point` or :func:`rational_point`, which canonicalise the
    angle.  Grid points additionally carry their angle as an exact
    fraction of a turn (`frac`), so that group products of grid points
    land on the singular set exactly instead of one ulp away from it;
    `frac` is bookkeeping and does not enter equality.
    """

    k: int = 0
    theta: float = 0.0
    zero: bool = False
    frac: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def is_singular(self) -> bool:
        """True iff the point lies in {-1, -q^-2, -q^-4, ...}.

        Exact test: theta == pi, k <= 0 and k even.
        """
        return (not self.zero) and self.theta == math.pi and self.k <= 0 and self.k % 2 == 0

    def value(self, q: float) -> complex:
        """Complex value q^k * e^{i theta} (0 for the zero point)."""
        if self.zero:
            return 0j
        return q**self.k * complex(math.cos(self.theta), math.sin(self.theta))

    def phase(self) -> complex:
        """Unit complex e^{i theta}."""
        if self.zero:
            raise DomainError("the zero point has no phase")
        return complex(math.cos(self.theta), math.sin(self.theta))

    def conjugate(self) -> "GammaPoint":
        if self.zero:
            return self
        if self.frac is not None:
            num, den = self.frac
            return rational_point(self.k, -num % den, den)
        return GammaPoint(self.k, reduce_angle(-self.theta))

    def inverse(self) -> "GammaPoint":
        if self.zero:
            raise DomainError("the zero point is not invertible")
        if self.frac is not None:
            num, den = self.frac
            return rational_point(-self.k, -num % den, den)
        return GammaPoint(-self.k, reduce_angle(-self.theta))

    def __mul__(self, other: "GammaPoint | GammaGrid"):
        """The lattice product beta * gamma.  Times a :class:`GammaGrid` it
        is the product with every grid point, as the (k, theta) arrays of
        :meth:`GammaGrid.times`; the zero point has no such form."""
        if isinstance(other, GammaGrid):
            if self.zero:
                raise DomainError("the zero point times a grid has no lattice data")
            return other.times(self.k, self.theta, self.frac or (0, 0))
        if self.zero or other.zero:
            return GammaPoint(zero=True)
        if self.frac is not None and other.frac is not None:
            n1, d1 = self.frac
            n2, d2 = other.frac
            den = d1 * d2 // math.gcd(d1, d2)
            num = (n1 * (den // d1) + n2 * (den // d2)) % den
            return rational_point(self.k + other.k, num, den)
        return GammaPoint(self.k + other.k, reduce_angle(self.theta + other.theta))


def make_point(k: int, theta: float) -> GammaPoint:
    """Lattice point q^k * e^{i theta} with the angle reduced to [0, 2 pi)."""
    if not math.isfinite(theta):
        raise DomainError(f"angle must be finite, got {theta}")
    return GammaPoint(int(k), reduce_angle(theta))


def rational_point(k: int, num: int, den: int) -> GammaPoint:
    """Lattice point with the exact angle 2 pi num / den (a fraction of a
    turn).  The fraction is reduced, so num/den = 1/2 always produces
    theta == pi exactly and singularity stays decidable."""
    if den <= 0:
        raise DomainError(f"denominator must be positive, got {den}")
    num %= den
    g = math.gcd(num, den)
    num //= g
    den //= g
    return GammaPoint(int(k), TAU * num / den, frac=(num, den))


def zero_point() -> GammaPoint:
    return GammaPoint(zero=True)


def turn_angle(num, den):
    """The exact angle 2 pi num / den of a fraction of a turn, 0 <= num <=
    den, computed as :func:`rational_point` does (arrays allowed)."""
    g = np.gcd(num, den)
    return TAU * (num // g) / (den // g)


def snap_spectrum(
    lam: np.ndarray,
    q: float,
    scale: float | None = None,
    M: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Snap complex values to Gamma-bar: (n, theta, zero_mask, rel_dist).

    n minimises the relative distance ||z| - q^n|/q^n (the log-rounding
    neighbour test covers the geometric/arithmetic mismatch), theta is the
    reduced argument, and values below ZERO_RTOL * scale count as 0.  With
    the grid order `M`, a phase within 1e-8 of a multiple of 2 pi/M becomes
    the exact grid angle, so singular-set membership is decided exactly.
    Values off the modulus lattice are snapped all the same; `rel_dist`
    reports how far each was moved.
    """
    lam = np.asarray(lam, dtype=complex)
    r = np.abs(lam)
    if scale is None:
        scale = float(np.max(r)) if r.size else 0.0
    zero = r <= ZERO_RTOL * scale
    n = np.zeros(lam.shape, dtype=int)
    rel = np.zeros(lam.shape, dtype=float)
    nz = ~zero
    if np.any(nz):
        n0 = np.round(np.log(r[nz]) / math.log(q)).astype(int)
        cand = np.stack([n0 - 1, n0, n0 + 1])
        rels = np.abs(r[nz] - q ** cand.astype(float)) / q ** cand.astype(float)
        pick = np.argmin(rels, axis=0)
        n[nz] = cand[pick, np.arange(cand.shape[1])]
        rel[nz] = rels[pick, np.arange(cand.shape[1])]
    theta = np.where(nz, np.angle(lam), 0.0)
    theta = np.where(theta < 0.0, theta + TAU, theta)   # reduce_angle on [-pi, pi]
    theta[theta == TAU] = 0.0
    if M is not None:
        j = np.rint(theta * M / TAU).astype(int)
        on_grid = nz & (np.abs(theta - turn_angle(j, M)) <= 1e-8)
        theta = np.where(on_grid, turn_angle(j % M, M), theta)
    return n, theta, zero, rel


def chi(g1: GammaPoint, g2: GammaPoint) -> complex:
    """Bicharacter chi(gamma, gamma') = e^{i (l*theta + k*theta')}.

    Defined on Gamma x Gamma only; zero arguments are a domain error.
    Symmetric, unit modulus, multiplicative in each argument.
    """
    if g1.zero or g2.zero:
        raise DomainError("chi is defined on nonzero lattice points only")
    ang = reduce_angle(g2.k * g1.theta + g1.k * g2.theta)
    return complex(math.cos(ang), math.sin(ang))


def centered_index(k: int, M: int) -> int:
    """Centred representative of k mod M in [-M/2, M/2)."""
    return (k + M // 2) % M - M // 2


def check_grid_order(M: int) -> int:
    """`M`, refused with ParameterError unless it is an even grid order
    >= 2 (the cyclic model needs the centred exponents -M/2 .. M/2 - 1)."""
    if M < 2 or M % 2 != 0:
        raise ParameterError(f"grid order M must be even and >= 2, got {M}")
    return M


class GammaGrid:
    """Finite cyclic model Z_M x Z_M of the lattice group.

    Index (k, j) in Z_M x Z_M carries the point q^{c(k)} e^{2 pi i j / M}.
    Flat indexing is k-major: flat = k * M + j.  The Fourier unitary F_M
    has the cross-coupled kernel e^{2 pi i (j l + j' k) / M} / M (phase
    index pairs with the other point's modulus index).  A (q, M) whose
    largest modulus q^(-M/2) is not a finite double is refused with
    ParameterError.
    """

    def __init__(self, q: float, M: int):
        if not (0.0 < q < 1.0):
            raise ParameterError(f"q must lie in (0, 1), got {q}")
        check_grid_order(M)
        try:
            float(q) ** -(M // 2)   # the largest grid modulus
        except OverflowError:
            raise ParameterError(f"q={q} and M={M} give a largest grid modulus q^(-M/2) "
                                 "beyond the double range") from None
        if not (0.1 <= q <= 0.9) :
            warnings.warn(
                f"q={q} outside [0.1, 0.9]: q^(M/2) spans a wide dynamic range "
                "and double precision may degrade",
                stacklevel=3,
            )
        self.q = float(q)
        self.M = int(M)
        self.c = np.array([centered_index(k, M) for k in range(M)], dtype=int)
        self.c.setflags(write=False)
        # one canonical table of M-th roots of unity shared by pairing and kernel
        self._roots = np.exp(2j * np.pi * np.arange(M) / M)
        self._roots.setflags(write=False)

    @property
    def size(self) -> int:
        """Total number of grid points, M^2."""
        return self.M * self.M

    def point(self, k: int, j: int) -> GammaPoint:
        return rational_point(int(self.c[k % self.M]), j, self.M)

    @cached_property
    def points(self) -> tuple[GammaPoint, ...]:
        """All grid points in flat (k-major) order."""
        return tuple(self.point(k, j) for k in range(self.M) for j in range(self.M))

    @cached_property
    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, theta) of the grid points as arrays, flat order; the angles
        are bit-equal to those of :attr:`points`."""
        j = np.tile(np.arange(self.M), self.M)
        return np.repeat(self.c, self.M), turn_angle(j, self.M)

    def times(self, k, theta, frac=None) -> tuple[np.ndarray, np.ndarray]:
        """Array form of ``beta * self.point(k', j)``: the lattice data
        (k, theta) of every grid point (rows, flat order) times every
        beta = q^k e^{i theta} (the trailing axes, shaped like `k`).

        Phases that are exact fractions of a turn multiply exactly, as in
        :meth:`GammaPoint.__mul__`, with which the result is bit-equal.
        `frac` = (num, den) gives them, den = 0 marking a free angle; by
        default a phase is the fraction j/M when it equals a grid angle,
        which is how :func:`snap_spectrum` leaves the phases it snapped.
        """
        M = self.M
        k = np.asarray(k)
        theta = np.asarray(theta, dtype=float)
        if frac is None:
            j = np.rint(theta * M / TAU).astype(int) % M
            frac = (j, np.where(theta == turn_angle(j, M), M, 0))
        num, den = (np.asarray(a) for a in frac)
        col = (-1,) + (1,) * k.ndim
        gk, gtheta = (a.reshape(col) for a in self.lattice)
        gj = np.tile(np.arange(M), M).reshape(col)
        d = np.where(den > 0, den, M)
        lcm = np.lcm(d, M)
        exact = turn_angle((num * (lcm // d) + gj * (lcm // M)) % lcm, lcm)
        free = np.remainder(theta + gtheta, TAU)   # reduce_angle on [0, 4 pi)
        return gk + k, np.where(den > 0, exact, free)

    @cached_property
    def values(self) -> np.ndarray:
        """Complex values of the grid points, flat order: the outer product
        of the M moduli q^c(k) and the M phases e^{i theta_j}, each computed
        as :meth:`GammaPoint.value` computes it, so bit-equal to the values
        of :attr:`points`."""
        moduli = [self.q ** int(c) for c in self.c]
        phases = [complex(math.cos(t), math.sin(t)) for t in turn_angle(np.arange(self.M), self.M)]
        v = np.multiply.outer(moduli, phases).ravel()
        v.setflags(write=False)
        return v

    def pairing(self, idx1: tuple[int, int], idx2: tuple[int, int]) -> complex:
        """Grid pairing chi_M((k,j),(l,j')) = e^{2 pi i (j l + j' k)/M}.

        Computed through an integer exponent mod M, so wrap of the centred
        representative can never enter.
        """
        k1, j1 = idx1
        k2, j2 = idx2
        return complex(self._roots[(j1 * k2 + j2 * k1) % self.M])

    @cached_property
    def fourier(self) -> np.ndarray:
        """The M^2 x M^2 Fourier unitary with kernel chi_M / M (symmetric)."""
        M = self.M
        k = np.arange(M)
        K = np.repeat(k, M)   # modulus index of each flat slot
        J = np.tile(k, M)     # phase index of each flat slot
        expo = (np.outer(J, K) + np.outer(K, J)) % M
        F = self._roots[expo] / M
        F.setflags(write=False)
        return F

    def fourier_columns(self, B: np.ndarray, adjoint: bool) -> np.ndarray:
        """F_M B, or F_M* B when `adjoint`, for an n-vector or n x c block B
        (n = M^2), by M-point FFTs on its (M, M, c) reshape: a two-axis
        inverse DFT (a forward one for F_M*) with the output axes crossed,
        since phase output slot j pairs with modulus input slot l.  No
        n x n array is formed."""
        B = np.asarray(B, dtype=complex)
        if B.shape[:1] != (self.size,) or B.ndim > 2:
            raise DimensionError(f"expected {self.size} rows, got shape {B.shape}")
        V = B.reshape(self.M, self.M, -1)
        transform = np.fft.fft2 if adjoint else np.fft.ifft2
        return transform(V, axes=(0, 1), norm="ortho").transpose(1, 0, 2).reshape(B.shape)

    @cached_property
    def fourier_defect(self) -> float:
        """The unitarity certificate ||F_M* F_M - 1||_F of the transform of
        :meth:`fourier_columns`, from its M-point factor alone.  F_M is the
        crossed product of two M-point unitary DFTs W, so with W* W = 1 + E
        it is ||E (x) 1 + 1 (x) E + E (x) E||_F <= 2 sqrt(M) e + e^2,
        e = ||E||_F, measured on the M-point transforms of the unit vectors
        (the larger of the forward and the inverse one).  As for a dense
        basis, the rounding of applying the transform to a block is not
        part of it."""
        eye = np.eye(self.M)
        e = max(float(np.linalg.norm(W.conj().T @ W - eye))
                for W in (np.fft.fft(eye, axis=0, norm="ortho"), np.fft.ifft(eye, axis=0, norm="ortho")))
        return 2.0 * math.sqrt(self.M) * e + e * e

    def __repr__(self) -> str:
        return f"GammaGrid(q={self.q}, M={self.M})"


def grid(q: float, M: int) -> GammaGrid:
    """Build the finite cyclic model of order M per axis."""
    return GammaGrid(q, M)
