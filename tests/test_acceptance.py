"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget.

Derived constants are replayed from the frozen corpus (``qazb/data``),
which was recorded by the independent oracle (fq values, 40-digit
two-depth products) and the reference sweep (model residuals) before this
suite was wired up.
"""

import json
import math
import time

import numpy as np
import pytest

from qazb.corpus import load_fq_table, load_pinned
from qazb.gamma import chi, grid, make_point, zero_point
from qazb.opalg import NormalMatrix, operator_norm
from qazb.q2pair import (
    Q2Pair,
    exp_identity_residual,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    verify_q2,
    windowed_modulus_distance,
)
from qazb.corep import build_rep, corep_residual, extract_pair
from qazb.qexp import QExpParams, candidate_separation, fq, fq_family, invert_fq_family
from qazb.cli import main as cli_main

Q = 0.5
PINNED = load_pinned()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name}: runtime {self.elapsed:.1f}s exceeds {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_criterion_1_fq_conformance():
    with Budget("1 fq-conformance", 1.0):
        params = QExpParams(Q)
        g = grid(Q, 16)
        vals = [fq(pt, params) for pt in g.points]
        assert len(vals) == 256
        assert max(abs(abs(v) - 1.0) for v in vals) < 1e-10
        assert fq(zero_point(), params) == 1
        for m in (0, 1, 2):
            assert fq(make_point(-2 * m, math.pi), params) == -1
        conj_err = max(
            abs(fq(pt.conjugate(), params) - fq(pt, params).conjugate())
            for pt in g.points
        )
        assert conj_err < 1e-12


def test_criterion_2_bicharacter_laws():
    with Budget("2 bicharacter", 1.0):
        rng = np.random.default_rng(2024)
        worst_mult = worst_sym = 0.0
        for _ in range(1000):
            pts = [
                make_point(int(rng.integers(-6, 7)), float(rng.uniform(0, 2 * math.pi)))
                for _ in range(3)
            ]
            lhs = chi(pts[0] * pts[1], pts[2])
            rhs = chi(pts[0], pts[2]) * chi(pts[1], pts[2])
            worst_mult = max(worst_mult, abs(lhs - rhs))
            worst_sym = max(worst_sym, abs(chi(pts[0], pts[1]) - chi(pts[1], pts[0])))
        assert worst_mult < 1e-12
        assert worst_sym < 1e-12
        g4 = grid(Q, 4)
        for i1 in g4.index_pairs():
            for i2 in g4.index_pairs():
                assert g4.pairing(i1, i2) == chi(g4.point(*i1), g4.point(*i2))


def test_criterion_3_fourier_and_weyl():
    with Budget("3 fourier-weyl", 5.0):
        for M in (2, 4, 6, 8, 10, 12, 14, 16):
            g = grid(Q, M)
            F = g.fourier
            assert np.linalg.norm(F @ F.conj().T - np.eye(M * M), 2) < 1e-12
        pair = schrodinger_pair(grid(Q, 8), margin=2)
        report = verify_q2(pair, tol=1e-10)
        assert report.passed
        assert max(report.weyl_residuals.values()) < 1e-10


def test_criterion_4_exponential_identity(tmp_path):
    with Budget("4 exp-identity", 120.0):
        residuals = {}
        for M in (8, 12, 16):
            pair = schrodinger_pair(grid(Q, M))
            rep = exp_identity_residual(pair)
            residuals[M] = rep.residual
            assert rep.residual_swapped > rep.residual
        assert residuals[16] < residuals[12] < residuals[8]
        assert residuals[16] <= 1.5 * PINNED["exp_identity"]["16"]
        g = grid(Q, 16)
        base = schrodinger_pair(g)
        control = exp_identity_residual(
            Q2Pair(Y=NormalMatrix(np.zeros((256, 256))), X=base.X, grid=g,
                   window=base.window)
        )
        assert control.residual < 1e-12
        # the sweep reaches M=32, where the smallest |x| = 2^-16 lies under
        # ZERO_RTOL * ||X||: the strict-decrease gate covers the new orders
        out = tmp_path / "exp.json"
        assert cli_main(["--out", str(out), "exp-identity", "--M-list", "24,28,32"]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["M"] for r in rows[:3]] == [24, 28, 32]


def test_criterion_5_spectrum_claim():
    with Budget("5 spectrum", 60.0):
        dists = {}
        for M in (8, 12, 16):
            pair = schrodinger_pair(grid(Q, M))
            dists[M] = windowed_modulus_distance(pair)
            assert dists[M] == pytest.approx(PINNED["gamma_distance"][str(M)], rel=1e-9)
        assert dists[16] < dists[12] < dists[8]


def test_criterion_6_corepresentation_identity():
    with Budget("6 corep", 120.0):
        g4 = grid(Q, 4)
        classical = random_regular_pair([("trivial", g4.point(1, 0))], seed=1, g=g4)
        r0 = corep_residual(build_rep(classical, g4), samples=32, seed=1, margin=1)
        assert r0.residual < 1e-9
        block = {}
        for M in (4, 6):
            g = grid(Q, M)
            margin = -(-M // 4)
            pair = schrodinger_pair(g, margin=margin)
            r = corep_residual(build_rep(pair, g), samples=32, seed=1, margin=margin)
            block[M] = r.residual
            assert r.residual == pytest.approx(PINNED["corep_residual"][str(M)], rel=1e-9)
        assert block[6] < block[4]


def test_criterion_7_round_trip_and_uniqueness():
    with Budget("7 roundtrip", 300.0):
        g = grid(Q, 8)
        reps = {}
        pairs = {}
        for seed in range(1, 11):
            d = 4 if seed <= 5 else 8
            pair = random_regular_pair(seeded_block_specs(seed, d, g), seed=seed, g=g)
            rep = build_rep(pair, g)
            ext, report = extract_pair(rep, seed=seed)
            assert operator_norm(ext.Y.entries - pair.Y.entries) < 1e-8
            assert operator_norm(ext.X.entries - pair.X.entries) < 1e-8
            assert not report.degenerate
            reps.setdefault(d, []).append(rep.U)
            pairs.setdefault(d, []).append(pair)
        # uniqueness witness: distinct pairs produce separated representations
        for d, us in reps.items():
            ps = pairs[d]
            for i in range(len(us)):
                for j in range(i + 1, len(us)):
                    distinct = (
                        operator_norm(ps[i].Y.entries - ps[j].Y.entries)
                        + operator_norm(ps[i].X.entries - ps[j].X.entries)
                    ) > 1e-12
                    if distinct:
                        assert operator_norm(us[i] - us[j]) > 1e-6


def test_criterion_8_inversion_uniqueness():
    with Budget("8 inversion", 30.0):
        g = grid(Q, 8)
        params = QExpParams(Q)
        from qazb.qexp import default_candidates

        mismatches = 0
        for beta in default_candidates(g):
            res = invert_fq_family(fq_family(beta, g, params), g, params)
            if res.beta != beta:
                mismatches += 1
        assert mismatches == 0
        s0 = candidate_separation(g, params)
        assert s0 > 0
        assert s0 == pytest.approx(PINNED["separation_m8"], rel=1e-9)


def test_criterion_9_determinism(tmp_path):
    with Budget("9 determinism", 120.0):
        battery = [
            ["fq-table"],
            ["verify-pair"],
            ["exp-identity", "--M-list", "8,12"],
            ["--samples", "8", "corep", "--M-list", "4"],
            ["--seed", "7", "roundtrip", "--h-dim", "4"],
        ]
        for i, args in enumerate(battery):
            a = tmp_path / f"{i}a.json"
            b = tmp_path / f"{i}b.json"
            code1 = cli_main(["--out", str(a)] + args)
            code2 = cli_main(["--out", str(b)] + args)
            assert code1 == code2
            assert a.read_bytes() == b.read_bytes()
            json.loads(a.read_text())   # well-formed
