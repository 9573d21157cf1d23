"""Quantum exponential: corpus replay, exact special values, inversion."""

import math
import warnings

import numpy as np
import pytest

from qazb.corpus import load_fq_table
from qazb.errors import AmbiguityError, DomainError
from qazb.gamma import grid, make_point, turn_angle, zero_point
from qazb.opalg import NormalMatrix, lattice_values
from qazb.qexp import (
    FQ_BLOCK,
    MAX_TERMS,
    ConditioningWarning,
    QExpParams,
    _truncation_length,
    candidate_separation,
    candidate_table,
    default_candidates,
    fq,
    fq_family,
    fq_grid,
    fq_lattice,
    fq_on_operator,
    invert_fq_family,
)

P = QExpParams(0.5)


def _eval_row(row):
    if row.kind == "zero":
        return fq(zero_point(), P)
    return fq(make_point(row.k, row.theta_num_pi * math.pi), P)


def test_corpus_replay():
    rows = load_fq_table()
    assert len(rows) > 250
    worst = max(abs(_eval_row(r) - complex(r.re, r.im)) for r in rows)
    assert worst < 1e-10


def test_exact_special_values():
    assert fq(zero_point(), P) == 1
    for m in (0, 1, 2):
        assert fq(make_point(-2 * m, math.pi), P) == -1
    for k in (-4, 0, 3):
        assert fq(make_point(k, 0.0), P) == 1      # real positive lattice
    assert fq(make_point(-1, math.pi), P) == 1     # -q^-1 is not singular


def test_unit_modulus_on_large_grid():
    g = grid(0.5, 32)
    worst = max(abs(abs(fq(pt, P)) - 1.0) for pt in g.points)
    assert worst < 1e-10


def test_conjugation_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        pt = make_point(int(rng.integers(-8, 9)), float(rng.uniform(0, 2 * math.pi)))
        assert abs(fq(pt.conjugate(), P) - fq(pt, P).conjugate()) < 1e-12


def test_two_tolerance_agreement():
    tol = 1e-13
    for pt in (make_point(2, 1.0), make_point(-5, 4.4), make_point(0, 2.2)):
        a = fq(pt, QExpParams(0.5, tol=tol))
        b = fq(pt, QExpParams(0.5, tol=tol * tol))
        assert abs(a - b) < 10 * tol


def test_continuity_toward_singular_point():
    rows = [r for r in load_fq_table() if r.kind == "continuity"]
    assert len(rows) == 4
    gaps = []
    for r in rows:
        val = fq(make_point(-2, r.theta_num_pi * math.pi), P)
        assert abs(val - complex(r.re, r.im)) < 1e-10
        gaps.append(abs(val + 1.0))
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_pinned_imaginary_unit_value():
    row = next(r for r in load_fq_table() if r.kind == "pin")
    val = fq(make_point(0, math.pi / 2), P)
    assert abs(val - complex(row.re, row.im)) < 1e-12


def test_near_singular_conditioning_warning():
    with pytest.warns(ConditioningWarning):
        fq(make_point(-2, math.pi - 1e-8), P)


def test_fq_on_zero_operator():
    out = fq_on_operator(NormalMatrix(np.zeros((3, 3))), P)
    assert np.allclose(out, np.eye(3), atol=1e-14)


def test_fq_on_diagonal_special_values():
    out = fq_on_operator(NormalMatrix(np.diag([-1.0, 0.5])), P)
    assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-12)


def test_fq_on_schrodinger_multiplication_operator():
    g = grid(0.5, 4)
    out = fq_on_operator(NormalMatrix(np.diag(g.values)), P)
    assert np.linalg.norm(out.conj().T @ out - np.eye(16), 2) < 1e-12


def test_fq_complex_snaps_moduli():
    # raw complex eigenvalues are snapped to their lattice points
    pt = make_point(-2, 1.3)
    out = fq_on_operator(NormalMatrix(np.diag([0j, pt.value(0.5)])), P)
    assert abs(out[0, 0] - 1) < 1e-15
    assert abs(out[1, 1] - fq(pt, P)) < 1e-12


def test_invert_constant_family_gives_zero():
    g = grid(0.5, 8)
    res = invert_fq_family(np.ones(64, dtype=complex), g, P)
    assert res.beta.zero
    assert res.residual < 1e-20


def test_invert_recovers_generator():
    g = grid(0.5, 8)
    beta = make_point(1, math.pi / 2)
    data = fq_family(beta, g, P)
    res = invert_fq_family(data, g, P)
    assert res.beta == beta
    assert res.residual < 1e-20


def test_invert_exhaustive_small_grid():
    g = grid(0.5, 4)
    from qazb.qexp import default_candidates

    for beta in default_candidates(g):
        res = invert_fq_family(fq_family(beta, g, P), g, P)
        assert res.beta == beta


def test_invert_rejects_non_unit_modulus():
    g = grid(0.5, 4)
    with pytest.raises(DomainError):
        invert_fq_family(2.0 * np.ones(16, dtype=complex), g, P)
    with pytest.raises(DomainError):
        invert_fq_family(np.full(16, np.nan, dtype=complex), g, P)


def test_invert_ambiguity_detected():
    g = grid(0.5, 4)
    beta = g.point(0, 1)
    data = fq_family(beta, g, P)
    with pytest.raises(AmbiguityError):
        invert_fq_family(data, g, P, candidates=[beta, beta])


def test_separation_positive():
    assert candidate_separation(grid(0.5, 4), P) > 0.0


def loop_inversion(flat, candidates, rows):
    """The per-candidate search that the candidate table replaced, kept as
    the reference: candidate by candidate, over their fq_family rows.
    Returns the best candidate, its objective, the gap to the runner-up
    and every objective."""
    best = runner = math.inf
    best_beta = None
    objs = []
    for beta, row in zip(candidates, rows):
        obj = float(np.sum(np.abs(flat - row) ** 2))
        objs.append(obj)
        if obj < best:
            best, runner, best_beta = obj, best, beta
        elif obj < runner:
            runner = obj
    return best_beta, best, runner - best, np.array(objs)


def assert_matches_loop(data, res, g, rows, table):
    """A table inversion picks the loop's candidate, reports its exact
    objective and a gap within 1e-12 relative; the table's objectives are
    the loop's within 1e-12 relative (an exactly fitting candidate has
    objective 0 in the loop and roundoff squared, below 1e-24, in the
    table)."""
    beta, best, gap, objs = loop_inversion(data, default_candidates(g), rows)
    assert res.beta == beta
    assert res.residual == best
    assert abs(res.gap - gap) <= 1e-12 * gap
    obj = np.sum(np.abs(data - table) ** 2, axis=1)
    assert np.all(np.abs(obj - objs) <= 1e-12 * objs + 1e-24)


@pytest.mark.parametrize("M", [4, 6])
def test_table_inversion_matches_candidate_loop(M):
    g = grid(0.5, M)
    rows = [fq_family(b, g, P) for b in default_candidates(g)]
    table = candidate_table(g, P)
    for row in rows:
        assert_matches_loop(row, invert_fq_family(row, g, P), g, rows, table)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_table_inversion_matches_candidate_loop_on_extracted_families(monkeypatch, d):
    # the d families that extract_pair inverts for seeded pairs at M = 8
    import qazb.corep
    from qazb.corep import build_rep, extract_pair
    from qazb.q2pair import random_regular_pair, seeded_block_specs

    g = grid(0.5, 8)
    seen = []

    def spy(data, *args):
        seen.append((data, invert_fq_family(data, *args)))
        return seen[-1][1]

    monkeypatch.setattr(qazb.corep, "invert_fq_family", spy)
    for seed in range(1, 17):
        extract_pair(build_rep(random_regular_pair(seeded_block_specs(seed, d, g), g), g), seed=seed)
    rows = [fq_family(b, g, P) for b in default_candidates(g)]
    table = candidate_table(g, P)
    assert len(seen) == 16
    for data, res in seen:
        assert data.shape == (d, g.size)
        for i in range(d):
            one = type(res)(res.beta[i], res.residual[i], res.gap[i])
            assert_matches_loop(data[i], one, g, rows, table)


def test_stacked_inversion_is_the_inversion_of_each_row():
    g = grid(0.5, 4)
    betas = [g.point(1, 2), zero_point(), g.point(3, 0)]
    res = invert_fq_family(np.stack([fq_family(b, g, P) for b in betas]), g, P)
    assert res.beta == tuple(betas)
    for i, b in enumerate(betas):
        one = invert_fq_family(fq_family(b, g, P), g, P)
        assert (one.residual, one.gap) == (res.residual[i], res.gap[i])


def fq_lattice_loop(n, theta, p, zero=None):
    """fq_lattice with its truncation factors multiplied in one at a time,
    as it was before the blocked pass: the reference the blocked pass must
    equal bitwise, warnings included."""
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
    active = ~(zero | singular | real)
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


def lattice_data(seed, size, M=8):
    """Seeded lattice data (n, theta, zero) with every case fq_lattice
    tells apart: zero entries, points of the singular set and near it
    (entry 1 and every seventh after it), real points off it, grid angles
    and free angles."""
    rng = np.random.default_rng(seed)
    n = rng.integers(-2 * M, 2 * M, size)
    theta = np.where(rng.random(size) < 0.5, turn_angle(rng.integers(0, M, size), M),
                     rng.uniform(0.0, 2 * math.pi, size))
    case = rng.integers(0, 10, size)
    n[case == 0] = -2 * rng.integers(0, 4, size)[case == 0]   # singular: -q^(-2m)
    theta[case <= 1] = math.pi                                 # and -q^n, n odd or > 0
    theta[case == 2] = 0.0                                     # real positive
    case[1::7] = 3
    theta[case == 3] = math.pi - 1e-8                          # near the singular set
    n[case == 3] = -2
    return n, theta, (rng.random(size) < 0.1) & (case != 3)


def evaluations(f, *args, **kwargs):
    """The values of f(*args, **kwargs) and the messages of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = f(*args, **kwargs)
    return values, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("size", [1, 2, 7, FQ_BLOCK, FQ_BLOCK + 1, 3 * FQ_BLOCK + 5, 2000])
def test_blocked_fq_lattice_equals_the_factor_loop(q, size):
    # bitwise, with the same ConditioningWarning (and so the same worst
    # denominator) on the same inputs; sizes past FQ_BLOCK split into
    # blocks, and a size of 1 is the lone argument of fq
    p = QExpParams(q)
    n, theta, zero = lattice_data(int(q * 10) * 10000 + size, size)
    got, got_warnings = evaluations(fq_lattice, n, theta, p, zero=zero)
    want, want_warnings = evaluations(fq_lattice_loop, n, theta, p, zero=zero)
    assert np.array_equal(got, want)
    assert got_warnings == want_warnings
    if size > 1:
        assert any(c is ConditioningWarning for c, _ in got_warnings)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("size", [FQ_BLOCK + 1, 2 * FQ_BLOCK + 1])
def test_blocked_fq_lattice_leaves_no_argument_alone(q, size):
    # every argument active, one past a multiple of FQ_BLOCK: a block of
    # one would be reduced by numpy's scalar loop and round otherwise
    rng = np.random.default_rng(size)
    n, theta = rng.integers(-16, 16, size), rng.uniform(0.1, 3.0, size)
    assert np.array_equal(fq_lattice(n, theta, QExpParams(q)), fq_lattice_loop(n, theta, QExpParams(q)))


@pytest.mark.parametrize("size", [1, 300])
def test_blocked_fq_lattice_equals_the_factor_loop_at_the_term_cap(size):
    # a modulus q^-1100 at q = 0.9 certifies about 550 factors, capped at
    # MAX_TERMS with a warning
    p = QExpParams(0.9)
    n, theta, zero = lattice_data(7, size)
    n[0], theta[0], zero[0] = -1100, 1.0, False
    got, got_warnings = evaluations(fq_lattice, n, theta, p, zero=zero)
    want, want_warnings = evaluations(fq_lattice_loop, n, theta, p, zero=zero)
    assert np.array_equal(got, want)
    assert got_warnings == want_warnings
    assert any(f"capped at {MAX_TERMS}" in m for _, m in got_warnings)


def fq_every_product(g, p, n, theta, zero, frac=None):
    """F_q(beta * gamma) as fq_grid computed it before it took the distinct
    products: fq_lattice on every product."""
    k, theta = g.times(n, theta, frac)
    zero = np.broadcast_to(zero, k.shape)
    return fq_lattice(k.ravel(), theta.ravel(), p, zero=zero.ravel()).reshape(k.shape)


def grid_pairs():
    """The Schrodinger pairs at M = 4, 6, 8 and seeded pairs of trivial
    and 2-point sub-grid blocks at M = 8, each also conjugated by a seeded
    unitary."""
    from qazb.q2pair import conjugate_pair, random_regular_pair, schrodinger_pair, seeded_block_specs

    pairs = [(f"schrodinger-{M}", schrodinger_pair(grid(0.5, M))) for M in (4, 6, 8)]
    g = grid(0.5, 8)
    for seed, d in ((1, 4), (1, 8), (2, 8), (5, 16)):
        pair = random_regular_pair(seeded_block_specs(seed, d, g), g)
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        pairs += [(f"seeded-{seed}", pair), (f"conjugated-{seed}", conjugate_pair(pair, U))]
    return pairs


@pytest.mark.parametrize("name, pair", grid_pairs(), ids=[name for name, _ in grid_pairs()])
def test_fq_grid_on_distinct_products_equals_every_product(name, pair):
    # the F_q values of build_rep (b = Y): bitwise equal to evaluating all
    # M^2 d products; seeded pairs carry the zero mask of their trivial blocks
    g, p = pair.grid, QExpParams(pair.grid.q)
    got = lattice_values(pair.Y, fq_grid(g, p), g.q, M=g.M)
    want = lattice_values(pair.Y, lambda n, t, z: fq_every_product(g, p, n, t, z), g.q, M=g.M)
    assert np.array_equal(got, want)
    if any(block[0] == "trivial" for block in pair.provenance):
        assert np.any(pair.Y.lattice(g.q, M=g.M)[2])


@pytest.mark.parametrize("q, M", [(0.3, 4), (0.5, 6), (0.7, 8), (0.9, 4)])
def test_candidate_table_on_distinct_products_equals_every_product(q, M):
    g, p = grid(q, M), QExpParams(q)
    candidates = default_candidates(g) + [make_point(1, 0.3), make_point(-2, math.pi - 0.2)]
    k, theta, zero, num, den = (np.array(a) for a in zip(*(
        (b.k, b.theta, b.zero, *(b.frac or (0, 0))) for b in candidates)))
    want = fq_every_product(g, p, k, theta, zero, (num, den)).T
    assert np.array_equal(candidate_table(g, p, candidates), want)
