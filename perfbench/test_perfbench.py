"""Tests of the benchmark itself: self-time arithmetic, wrapper removal, and
one op of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 1),         # 0
        Span("corep.build_rep", 1.0, 4.0, 0, 1),    # 1
        Span("opalg.eig", 2.0, 3.0, 1, 1),          # 2
        Span("opalg.eig", 4.5, 5.0, 0, 1),          # 3
        Span("qexp.fq_lattice", 5.0, 9.0, 0, 1),    # 4
        Span("cli.main", 20.0, 22.0, -1, 2),        # 5, a second op
        Span("cli.emit_report", 21.0, 21.5, 5, 2),  # 6
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 0.5, 4.0, 1.5, 0.5])
    overlapping = [Span("a", 0.0, 10.0, -1, 1), Span("b", 1.0, 6.0, 0, 1), Span("c", 4.0, 9.0, 0, 1)]
    assert self_times(overlapping) == pytest.approx([2.0, 5.0, 5.0])

    tr = Tracer()
    tr.spans.extend(spans)
    tr.counts["corep.build_rep_calls"] = 1
    tr.counts["corep.chi_kron_calls"] = 2
    m = {name: value for name, (value, _) in layer_metrics(tr, n_ops=2).items()}
    assert m["corep.build_rep_s"] == pytest.approx(1.0)
    assert m["opalg.eig_s"] == pytest.approx(0.75)
    assert m["corep.chi_kron_per_rep"] == 2.0
    assert m["trace.uncovered_s"] == pytest.approx(2.0)
    # layers plus the uncovered remainder account for the mean op
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) + m["trace.uncovered_s"]
    assert total == pytest.approx((10.0 + 2.0) / 2)


def _qazb_state():
    """Identity of every attribute of every qazb module and traced class."""
    run.import_cli()
    state = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "qazb" or name.startswith("qazb.")):
            state[name] = dict(vars(mod))
    from qazb.gamma import GammaGrid, GammaPoint
    from qazb.opalg import NormalMatrix
    for cls in (GammaGrid, GammaPoint, NormalMatrix):
        state[cls.__qualname__] = dict(vars(cls))
    return state


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][n] is b[k][n] for n in a[k]) for k in a
    )


def test_wrappers_cover_every_lookup_name_and_are_removed(tmp_path):
    cli = run.import_cli()
    import qazb.corep
    import qazb.opalg
    import qazb.q2pair

    original = qazb.opalg.operator_norm
    before = _qazb_state()
    with Tracer() as tr:
        assert qazb.opalg.operator_norm is not original
        assert qazb.q2pair.operator_norm is qazb.opalg.operator_norm
        assert qazb.corep.operator_norm is qazb.opalg.operator_norm
        tr.op = 1
        out = tmp_path / "r.json"
        assert cli.main(["--out", str(out), "-M", "4", "--seed", "3", "roundtrip", "--h-dim", "4"]) == 0
    assert _same(before, _qazb_state())
    assert qazb.opalg.operator_norm is original

    names = {s.name for s in tr.spans}
    assert {"cli.main", "corep.build_rep", "corep.extract_pair", "qexp.invert_fq_family",
            "qexp.fq_family", "opalg.operator_norm", "opalg.eig"} <= names
    assert [s.name for s in tr.spans if s.parent < 0] == ["cli.main"]
    assert tr.counts["gamma.point_mul_calls"] > 0
    assert tr.counts["gamma.rational_point_calls"] > 0
    assert tr.counts["corep.u_bytes_computed"] == 16 * (4 * 16) ** 2


def test_wrappers_are_removed_when_the_traced_code_raises():
    run.import_cli()
    before = _qazb_state()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _same(before, _qazb_state())


# exp-identity fires ConditioningWarning on every run (an open ROADMAP item);
# the benchmark ignores warnings too.
@pytest.mark.filterwarnings("ignore:a product factor denominator")
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_op_of_each_workload_passes_its_check(workload, tmp_path):
    loop = run.Loop(run.import_cli(), workload, 1, tmp_path / "r.json")
    loop.op(0)
    assert loop.attempted == 1 and loop.failures == []


def test_a_changed_report_for_the_same_argv_fails_the_check(tmp_path):
    loop = run.Loop(run.import_cli(), "roundtrip_d8", 1, tmp_path / "r.json")
    argv = ["--seed", "1"]
    loop.out.write_text('{"pass": true, "x": 1}')
    assert loop.check(0, argv) is None
    loop.out.write_text('{"pass": true, "x": 2}')
    assert "differs" in loop.check(0, argv)
    loop.out.write_text('{"pass": false}')
    assert "pass" in loop.check(0, ["--seed", "2"])
    assert "exit code" in loop.check(1, argv)


def test_tail_takes_ten_ops_beyond_it_and_never_drops_below_the_median():
    assert run.tail([float(x) for x in range(1, 51)]) == (40.0, 80.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_workloads_are_run_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_benchmark_contract(trace, key):
    done = _bench(ROOT, "--workload", "roundtrip_d8", "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(tmp_path, "--workload", "exp_sweep", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
