"""qazb benchmark: one workload per process, a closed loop with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp_sweep --seed 1 --seconds 25 --trace 0

An op is one in-process call of ``qazb.cli.main(argv)`` that writes its
report to a temporary file inside the checkout, so the measured path is the
one users run.  qazb is imported from the checkout's ``src/``; without it
the benchmark exits 2.  One untimed warm-up op runs first, then ops run
back to back until ``--seconds`` have passed.  Every op is checked: exit
code 0, a JSON report with ``"pass": true``, and byte-identical reports for
ops with identical argv.  A failing op is counted and never aborts the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop under the span tracer (``tracer.py``) and reports the per-layer
metrics instead.  The last line of standard output is the JSON result; the
line before it records the run's settings and details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# argv of op i for a workload seed.  NOTES.md says why each workload exists.
WORKLOADS = {
    # Dense calculus on the Schrodinger pair; takes no seed.
    "exp_sweep": lambda seed, i: ["exp-identity", "--M-list", "8,12,16,20"],
    # The seed picks the corep_residual sample vectors.
    "corep_m46": lambda seed, i: ["--seed", str(seed), "corep", "--M-list", "4,6"],
    # The seed picks the pair.  Cycling through 16 seeds repeats each argv a
    # few times per run, so the byte-identity check covers this workload too.
    "roundtrip_d8": lambda seed, i: [
        "--seed", str(seed + i % 16), "roundtrip", "--h-dim", "8", "--trials", "1",
    ],
}

SETUP_RUNS = 7
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qazb.cli; "
    "print(time.perf_counter() - t0)"
)
MIN_BEYOND_TAIL = 10


def blas_threads() -> int:
    """BLAS threads for this run: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_cli():
    """Import qazb.cli from the checkout's src/, never from site-packages."""
    if not (SRC / "qazb" / "cli.py").is_file():
        print(f"error: {SRC / 'qazb'} not found; run from a qazb checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qazb.cli

    if not Path(qazb.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: qazb was imported from {qazb.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return qazb.cli


def setup_seconds(runs: int) -> list[float]:
    """Wall time to import qazb.cli, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest nearest-rank percentile with at
    least ten ops beyond it.  With fewer than 22 ops no such percentile lies
    above the median, and the median is reported instead."""
    xs = sorted(times)
    i = max(len(xs) - 1 - MIN_BEYOND_TAIL, (len(xs) - 1) // 2)
    return xs[i], 100.0 * (i + 1) / len(xs)


class Loop:
    """Runs and checks the ops of one workload."""

    def __init__(self, cli, workload: str, seed: int, out: Path):
        self.cli = cli
        self.argv_of = WORKLOADS[workload]
        self.seed = seed
        self.out = out
        self.seen: dict[tuple[str, ...], bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes: list[int] = []

    def op(self, i: int) -> float:
        """Run op i, check it, and return its wall time."""
        argv = self.argv_of(self.seed, i)
        self.out.unlink(missing_ok=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            # looked up on every call, so a traced run goes through the wrapper
            rc = self.cli.main(["--out", str(self.out)] + argv)
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.failures.append(f"op {i} {argv}: raised")
            return elapsed
        elapsed = time.perf_counter() - t0
        problem = self.check(rc, argv)
        if problem:
            self.failures.append(f"op {i} {argv}: {problem}")
            print(f"op {i} failed: {problem}", file=sys.stderr)
        return elapsed

    def check(self, rc: int, argv: list[str]) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            data = self.out.read_bytes()
        except OSError as exc:
            return f"no report: {exc}"
        self.report_bytes.append(len(data))
        try:
            report = json.loads(data)
        except ValueError:
            return "report is not JSON"
        if not isinstance(report, dict) or report.get("pass") is not True:
            return "report does not say pass: true"
        if self.seen.setdefault(tuple(argv), data) != data:
            return "report differs from an earlier op with the same argv"
        return None

    def run(self, seconds: float, tracer=None) -> tuple[list[float], float]:
        """Ops 1, 2, ... until `seconds` have passed (op 0 is the warm-up).
        Returns the op times and the loop's wall time."""
        times: list[float] = []
        t0 = time.perf_counter()
        while not times or time.perf_counter() - t0 < seconds:
            if tracer is not None:
                tracer.op = len(times) + 1
            times.append(self.op(len(times) + 1))
        return times, time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)   # before numpy is imported
    cli = import_cli()
    # ConditioningWarning fires in every exp-identity op; printing it would
    # time the terminal, not qazb.
    warnings.simplefilter("ignore")

    setup = [] if args.trace else setup_seconds(SETUP_RUNS)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        loop = Loop(cli, args.workload, args.seed, Path(tmp) / "report.json")
        warmup = loop.op(0)
        if args.trace:
            from tracer import Tracer, layer_metrics

            with Tracer() as tracer:
                times, wall = loop.run(args.seconds, tracer)
        else:
            times, wall = loop.run(args.seconds)

    n = len(times)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    failed = len(loop.failures)
    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in layer_metrics(tracer, n).items()}
        metrics["cli.report_bytes"] = metric(statistics.fmean(loop.report_bytes or [0]), "B")
        metrics["trace.ops"] = metric(n, "count")
        metrics["trace.op_p50_s"] = metric(p50, "s")
        metrics["trace.op_mean_s"] = metric(statistics.fmean(times), "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(n / wall, "1/s"),
            "op_p50_s": metric(p50, "s"),
            "op_tail_s": metric(tail_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": threads, "ops": n, "warmup_s": warmup,
        "op_tail_percentile": tail_pct, "op_tail_samples": n, "op_times_s": times,
        "setup_samples_s": setup,
        "fail_ratio": failed / loop.attempted, "failures": loop.failures[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": loop.attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
