"""In-memory span tracer around the public functions of qazb's layers.

qazb's modules bind each other's functions with ``from .x import y``, so a
function is looked up under several names: ``operator_norm`` lives in
``opalg`` and is also a global of ``q2pair`` and ``corep``.  The tracer
replaces the function under every ``qazb`` module attribute that holds it,
methods and cached properties on their class, and puts every original
back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent, op).  Spans stay in memory; self
times are computed from them after the run.  The hot scalar paths
(``GammaPoint.__mul__``, ``rational_point``) get count-only wrappers,
because a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 for an op's root
    op: int


# Hooks run before the traced call with the call's arguments and add the
# counts that the span alone cannot give.  Labelled "computed": they are
# derived from sizes, not measured.

def _fq_lattice_points(tr, n, *args, **kwargs):
    tr.add("qexp.fq_lattice_points", int(np.size(n)))


def _operator_norm_dim(tr, a):
    tr.peak("opalg.operator_norm_max_dim", max(a.shape, default=0))


def _eig_flops(tr, nm):
    # Only a call that computes the Schur form costs flops; later calls hit
    # the NormalMatrix cache.  25 n^3 is the Golub-Van Loan count for the
    # Schur form with its unitary factor.
    if getattr(nm, "_eig", None) is None:
        tr.add("opalg.eig_computed", 1)
        tr.add("opalg.eig_flops_computed", 25 * nm.dim ** 3)


def _u_bytes(tr, pair, g, params=None):
    from qazb.corep import as_pair_on_h
    tr.add("corep.u_bytes_computed", 16 * (as_pair_on_h(pair).dim * g.size) ** 2)


# (module, attribute path, span name, hook).  The span name's prefix is the
# layer.  ``cli.main`` is the root of every op.
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "emit_report", "cli.emit_report", None),
    ("gamma", "grid", "gamma.grid", None),
    ("gamma", "GammaGrid.fourier", "gamma.fourier", None),
    ("gamma", "GammaGrid.points", "gamma.points", None),
    ("gamma", "GammaGrid.values", "gamma.values", None),
    ("qexp", "fq_lattice", "qexp.fq_lattice", _fq_lattice_points),
    ("qexp", "fq_family", "qexp.fq_family", None),
    ("qexp", "invert_fq_family", "qexp.invert_fq_family", None),
    ("qexp", "fq_on_operator", "qexp.fq_on_operator", None),
    ("opalg", "NormalMatrix.eig", "opalg.eig", _eig_flops),
    ("opalg", "operator_norm", "opalg.operator_norm", _operator_norm_dim),
    ("opalg", "chi_op", "opalg.chi_op", None),
    ("opalg", "snap_spectrum", "opalg.snap_spectrum", None),
    ("q2pair", "schrodinger_pair", "q2pair.schrodinger_pair", None),
    ("q2pair", "verify_q2", "q2pair.verify_q2", None),
    ("q2pair", "exp_identity_residual", "q2pair.exp_identity_residual", None),
    ("q2pair", "windowed_modulus_distance", "q2pair.windowed_modulus_distance", None),
    ("q2pair", "interior_window", "q2pair.interior_window", None),
    ("q2pair", "random_regular_pair", "q2pair.random_regular_pair", None),
    ("corep", "build_rep", "corep.build_rep", _u_bytes),
    ("corep", "chi_kron", "corep.chi_kron", None),
    ("corep", "corep_residual", "corep.corep_residual", None),
    ("corep", "extract_pair", "corep.extract_pair", None),
]

COUNTED = [
    ("gamma", "GammaPoint.__mul__", "gamma.point_mul"),
    ("gamma", "rational_point", "gamma.rational_point"),
]

ROOT = "cli.main"


class Tracer:
    """Records spans and counts while installed; restores qazb on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _span_wrapper(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        key = name + "_calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, *args, **kwargs)
            counts[key] += 1
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = name + "_calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module: str, path: str, make) -> None:
        mod = importlib.import_module("qazb." + module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, functools.cached_property):
                new = functools.cached_property(make(original.func))
                new.__set_name__(cls, attr)
            else:
                new = make(original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, new)
            return
        original = getattr(mod, path)
        new = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "qazb" or name.startswith("qazb.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, attr, original))
                    setattr(loaded, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for module, path, name, hook in SPANS:
                self._replace(module, path, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
            for module, path, name in COUNTED:
                self._replace(module, path, lambda fn, n=name: self._count_wrapper(fn, n))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[i], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


LAYERS = ("gamma", "qexp", "opalg", "q2pair", "corep", "cli")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as (value, unit) per op.

    Every ``_s`` value is self time, so the layer totals ``<layer>.self_s``
    plus ``trace.uncovered_s`` (root self time: argument parsing and the
    glue in ``cmd_*``) add up to the traced op's mean wall time.
    """
    own: dict[str, float] = defaultdict(float)
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        own[span.name] += t
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def secs(metric, *spans):
        out[metric] = (sum(own[s] for s in spans) / n_ops, "s")

    def count(metric, unit="count"):
        out[metric] = (counts[metric] / n_ops, unit)

    def ratio(metric, num, den):
        out[metric] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")

    secs("gamma.grid_s", "gamma.grid", "gamma.fourier", "gamma.points", "gamma.values")
    count("gamma.point_mul_calls")
    count("gamma.rational_point_calls")
    count("qexp.fq_lattice_calls")
    count("qexp.fq_lattice_points")
    secs("qexp.fq_lattice_s", "qexp.fq_lattice")
    count("qexp.fq_family_calls")
    secs("qexp.fq_family_s", "qexp.fq_family")
    count("qexp.invert_fq_family_calls")
    secs("qexp.invert_fq_family_s", "qexp.invert_fq_family")
    ratio("qexp.invert_useful_ratio", "qexp.invert_fq_family_calls", "qexp.fq_family_calls")
    secs("qexp.fq_on_operator_s", "qexp.fq_on_operator")
    count("opalg.eig_calls")
    count("opalg.eig_computed")
    secs("opalg.eig_s", "opalg.eig")
    count("opalg.eig_flops_computed", unit="flop")
    count("opalg.operator_norm_calls")
    secs("opalg.operator_norm_s", "opalg.operator_norm")
    out["opalg.operator_norm_max_dim"] = (float(counts["opalg.operator_norm_max_dim"]), "count")
    secs("opalg.chi_op_s", "opalg.chi_op")
    count("opalg.snap_spectrum_calls")
    secs("opalg.snap_spectrum_s", "opalg.snap_spectrum")
    for name in ("schrodinger_pair", "verify_q2", "exp_identity_residual",
                 "windowed_modulus_distance", "interior_window", "random_regular_pair"):
        secs(f"q2pair.{name}_s", f"q2pair.{name}")
    secs("corep.build_rep_s", "corep.build_rep")
    count("corep.chi_kron_calls")
    ratio("corep.chi_kron_per_rep", "corep.chi_kron_calls", "corep.build_rep_calls")
    secs("corep.chi_kron_s", "corep.chi_kron")
    secs("corep.corep_residual_s", "corep.corep_residual")
    secs("corep.extract_pair_s", "corep.extract_pair")
    count("corep.u_bytes_computed", unit="B")
    secs("cli.emit_report_s", "cli.emit_report")
    for layer in LAYERS:
        secs(f"{layer}.self_s", *(n for n in own if n.startswith(layer + ".") and n != ROOT))
    secs("trace.uncovered_s", ROOT)
    return out
