"""Quantum exponential: corpus replay, exact special values, inversion."""

import math

import numpy as np
import pytest

from qazb.corpus import load_fq_table
from qazb.errors import AmbiguityError, DomainError
from qazb.gamma import grid, make_point, zero_point
from qazb.opalg import NormalMatrix
from qazb.qexp import (
    ConditioningWarning,
    QExpParams,
    candidate_separation,
    candidate_table,
    default_candidates,
    fq,
    fq_family,
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
