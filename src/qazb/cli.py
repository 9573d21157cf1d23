"""Experiment runner: every verification as a subcommand with reproducible
reports.

Reports embed the full configuration and the library version, contain no
timestamps, and are serialised with sorted keys, so identical configs
produce byte-identical output.  Exit codes: 0 all checks passed, 1 a check
failed, 2 invalid usage (including an empty --M-list, a margin that leaves
no interior window, and a roundtrip with no trials or no dimension) or I/O
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .corpus import load_pinned
from .errors import QazbError
from .gamma import grid, make_point, zero_point
from .opalg import Eigensystem, NormalMatrix, operator_norm
from .q2pair import (
    Q2Pair,
    default_margin,
    exp_identity_residual,
    random_regular_pair,
    schrodinger_pair,
    seeded_block_specs,
    verify_q2,
)
from .corep import build_rep, corep_residual, extract_pair
from .qexp import QExpParams, fq

PASS, FAIL, USAGE = 0, 1, 2


@dataclass
class RunConfig:
    q: float = 0.5
    M: int = 8
    margin: int | None = None
    tol: float = 1e-10
    seed: int = 1
    samples: int = 32
    out_path: str | None = None
    format: str = "json"

    def resolved_margin(self, M: int | None = None) -> int:
        """The window margin at grid order M; an empty window is refused."""
        m = self.M if M is None else M
        margin = default_margin(m) if self.margin is None else self.margin
        if 2 * margin >= m:
            raise ValueError(f"margin {margin} leaves no interior window at M={m} (needs 2*margin < M)")
        return margin

    def validate(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"--q must lie in (0, 1), got {self.q}")
        if self.M < 2 or self.M % 2:
            raise ValueError(f"--grid-size must be even and >= 2, got {self.M}")
        if self.margin is not None and self.margin < 0:
            raise ValueError(f"--margin must be nonnegative, got {self.margin}")
        if self.tol <= 0:
            raise ValueError(f"--tol must be positive, got {self.tol}")
        if self.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {self.samples}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"--format must be json or csv, got {self.format}")


def emit_report(experiment: str, config: RunConfig, rows: list[dict], passed: bool) -> int:
    config_dict = asdict(config)
    config_dict.pop("out_path")   # reports embed the experiment parameters, not I/O routing
    report = {
        "experiment": experiment,
        "config": config_dict,
        "rows": rows,
        "pass": bool(passed),
        "version": __version__,
    }
    if config.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fields = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    try:
        if config.out_path:
            with open(config.out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return USAGE
    return PASS if passed else FAIL


def cmd_fq_table(config: RunConfig) -> int:
    """Conformance table of F_q over the grid, special values, and the
    approach to the singular set."""
    g = grid(config.q, config.M)
    params = QExpParams(config.q)
    rows = []
    passed = True
    for (k, j), point in zip(g.index_pairs(), g.points):
        val = fq(point, params)
        mod_err = abs(abs(val) - 1.0)
        rows.append({"kind": "grid", "k": point.k, "theta_num_pi": point.theta / np.pi,
                     "re": val.real, "im": val.imag, "mod_err": mod_err})
        passed = passed and mod_err < 1e-10
    z = fq(zero_point(), params)
    rows.append({"kind": "special", "k": 0, "theta_num_pi": 0.0, "re": z.real, "im": z.imag,
                 "mod_err": abs(abs(z) - 1)})
    passed = passed and z == 1
    for m in (0, 1, 2):
        s = fq(make_point(-2 * m, np.pi), params)
        rows.append({"kind": "special", "k": -2 * m, "theta_num_pi": 1.0, "re": s.real,
                     "im": s.imag, "mod_err": abs(abs(s) - 1)})
        passed = passed and s == -1
    prev = None
    for eps in (0.4, 0.2, 0.1, 0.05):
        v = fq(make_point(-2, np.pi - eps), params)
        gap = abs(v + 1.0)
        rows.append({"kind": "continuity", "k": -2, "theta_num_pi": (np.pi - eps) / np.pi,
                     "re": v.real, "im": v.imag, "mod_err": gap})
        if prev is not None:
            passed = passed and gap < prev
        prev = gap
    return emit_report("fq-table", config, rows, passed)


def _parse_m_list(text: str) -> list[int]:
    m_list = [int(tok) for tok in text.split(",") if tok.strip()]
    if not m_list:
        raise ValueError("--M-list must name at least one grid order")
    return m_list


def cmd_exp_identity(config: RunConfig, m_list: list[int]) -> int:
    """Sweep of the windowed exponential-identity witness over grid sizes."""
    pinned = load_pinned().get("exp_identity", {})
    rows = []
    passed = True
    residuals = []
    for M in m_list:
        g = grid(config.q, M)
        margin = config.resolved_margin(M)
        pair = schrodinger_pair(g, margin=margin)
        rep = verify_q2(pair, tol=config.tol)
        ident = exp_identity_residual(pair)
        rows.append({
            "q": config.q, "M": M, "margin": margin,
            "weyl_residual": max(rep.weyl_residuals.values()),
            "exp_residual": ident.residual,
            "exp_residual_swapped": ident.residual_swapped,
            "sum_defect": ident.sum_defect,
            "gamma_distance": ident.gamma_distance,
        })
        residuals.append(ident.residual)
        passed = passed and rep.passed and ident.residual_swapped > ident.residual
    # Y = 0 control on the largest grid: the last Schrodinger X and its window
    zero_pair = Q2Pair(
        Y=NormalMatrix(np.zeros((g.size, g.size)), Eigensystem.zero_operator(g.size)),
        X=pair.X, grid=g, window=pair.window,
    )
    control = exp_identity_residual(zero_pair)
    rows.append({
        "q": config.q, "M": m_list[-1], "margin": margin,
        "weyl_residual": 0.0, "exp_residual": control.residual,
        "exp_residual_swapped": control.residual_swapped,
        "sum_defect": control.sum_defect, "gamma_distance": control.gamma_distance,
    })
    passed = passed and control.residual < 1e-12
    passed = passed and all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    envelope = pinned.get(str(m_list[-1]))
    if envelope is not None:
        passed = passed and residuals[-1] <= 1.5 * envelope
    return emit_report("exp-identity", config, rows, passed)


def cmd_corep(config: RunConfig, m_list: list[int]) -> int:
    """Corepresentation residuals: classical (bt = 0) pairs and the full
    Schrodinger-block pair per grid size."""
    pinned = load_pinned().get("corep_residual", {})
    rows = []
    passed = True
    block_residuals = []
    for M in m_list:
        g = grid(config.q, M)
        margin = config.resolved_margin(M)
        classical = random_regular_pair([("trivial", g.point(1, 0))], seed=config.seed, g=g)
        rep0 = build_rep(classical, g)
        r0 = corep_residual(rep0, samples=config.samples, seed=config.seed, margin=margin)
        rows.append({"q": config.q, "M": M, "margin": margin, "case": "classical",
                     "residual": r0.residual, "unitarity_defect": rep0.unitarity_defect})
        passed = passed and r0.residual < 1e-9

        pair = schrodinger_pair(g, margin=margin)
        rep1 = build_rep(pair, g)
        r1 = corep_residual(rep1, samples=config.samples, seed=config.seed, margin=margin)
        rows.append({"q": config.q, "M": M, "margin": margin, "case": "schrodinger",
                     "residual": r1.residual, "unitarity_defect": rep1.unitarity_defect})
        block_residuals.append(r1.residual)
        envelope = pinned.get(str(M))
        if envelope is not None:
            passed = passed and r1.residual <= 1.5 * envelope
    passed = passed and all(
        block_residuals[i + 1] < block_residuals[i] for i in range(len(block_residuals) - 1)
    )
    return emit_report("corep", config, rows, passed)


def cmd_roundtrip(config: RunConfig, h_dim: int, trials: int) -> int:
    """Build representations from seeded pairs, extract, and compare."""
    if h_dim < 1:
        raise ValueError(f"--h-dim must be >= 1, got {h_dim}")
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    g = grid(config.q, config.M)
    rows = []
    passed = True
    for t in range(trials):
        seed = config.seed + t
        specs = seeded_block_specs(seed, h_dim, g)
        pair = random_regular_pair(specs, seed=seed, g=g)
        rep = build_rep(pair, g)
        extracted, report = extract_pair(rep, seed=seed)
        err_b = operator_norm(extracted.Y.entries - pair.Y.entries)
        err_a = operator_norm(extracted.X.entries - pair.X.entries)
        rows.append({
            "seed": seed, "d": h_dim, "err_b": err_b, "err_a": err_a,
            "completeness": report.completeness, "degenerate": report.degenerate,
        })
        passed = passed and max(err_b, err_a) < 1e-8 and not report.degenerate
    return emit_report("roundtrip", config, rows, passed)


def cmd_verify_pair(config: RunConfig, which: str) -> int:
    """Axiom checks on a chosen pair; 'xx' and 'swapped' are the documented
    failure modes (the conjugation condition fails, by scaling or by the
    inverse relation)."""
    g = grid(config.q, config.M)
    base = schrodinger_pair(g, margin=config.resolved_margin())
    if which == "schrodinger":
        pair = base
    elif which == "xx":
        pair = Q2Pair(Y=base.X, X=base.X, grid=g, window=base.window)
    elif which == "swapped":
        pair = Q2Pair(Y=base.X, X=base.Y, grid=g, window=base.window)
    else:
        raise ValueError(f"unknown pair selector {which!r}")
    report = verify_q2(pair, tol=config.tol)
    return emit_report("verify-pair", config, report.rows(), report.passed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qazb",
        description="quantum az+b group: grid-model verification experiments",
    )
    parser.add_argument("--q", type=float, default=0.5, help="deformation parameter in (0,1)")
    parser.add_argument("-M", "--grid-size", type=int, default=8, dest="M",
                        help="grid order per axis (even)")
    parser.add_argument("--margin", type=int, default=None,
                        help="interior window margin (default: ceil(M/4))")
    parser.add_argument("--tol", type=float, default=1e-10, help="verification tolerance")
    parser.add_argument("--seed", type=int, default=1, help="seed for sampled residuals")
    parser.add_argument("--samples", type=int, default=32, help="sampled vectors per residual")
    parser.add_argument("--out", default=None, dest="out_path", help="report file (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fq-table", help="quantum exponential conformance table")
    p_exp = sub.add_parser("exp-identity", help="windowed exponential-identity sweep")
    p_exp.add_argument("--M-list", default="8,12,16", dest="m_list")
    p_cor = sub.add_parser("corep", help="corepresentation residuals")
    p_cor.add_argument("--M-list", default="4,6", dest="m_list")
    p_rt = sub.add_parser("roundtrip", help="build/extract round trip")
    p_rt.add_argument("--h-dim", type=int, default=4, dest="h_dim")
    p_rt.add_argument("--trials", type=int, default=1)
    p_vp = sub.add_parser("verify-pair", help="pair axiom report")
    p_vp.add_argument("--pair", choices=("schrodinger", "xx", "swapped"), default="schrodinger")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0,) else 0
    config = RunConfig(
        q=args.q, M=args.M, margin=args.margin, tol=args.tol,
        seed=args.seed, samples=args.samples, out_path=args.out_path,
        format=args.format,
    )
    try:
        config.validate()
        if args.command == "fq-table":
            return cmd_fq_table(config)
        if args.command == "exp-identity":
            return cmd_exp_identity(config, _parse_m_list(args.m_list))
        if args.command == "corep":
            return cmd_corep(config, _parse_m_list(args.m_list))
        if args.command == "roundtrip":
            return cmd_roundtrip(config, args.h_dim, args.trials)
        if args.command == "verify-pair":
            return cmd_verify_pair(config, args.pair)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, QazbError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
