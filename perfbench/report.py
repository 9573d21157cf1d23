"""Print every benchmark metric of every workload, with the tracing overhead.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--workload NAME ...]

For each workload it runs ``run.py`` twice, each in a process of its own:
untraced for the end-to-end metrics, then traced for the per-layer
metrics.  It prints both with their units, each layer's share of the traced
op, the part of the op no layer covers, and the tracing overhead (traced
minus untraced ``op_p50_s``).  It exits 1 if any op failed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    info_line, result_line = done.stdout.splitlines()[-2:]
    return json.loads(info_line)["info"], json.loads(result_line)


def show(workload: str, seed: int, seconds: float) -> bool:
    info, plain = bench(workload, seed, seconds, 0)
    tinfo, traced = bench(workload, seed, seconds, 1)
    e2e, layer = plain["metrics"], traced["metrics"]
    print(f"== {workload}  seed {seed}, {seconds:g} s per run, "
          f"BLAS threads {info['blas_threads']}, closed loop with one client")
    print("end to end (untraced)")
    for name, m in e2e.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{info['op_tail_percentile']:.0f} of {info['op_tail_samples']} ops)"
        print(f"  {name:<34}{m['value']:>14.6g} {m['unit']}{note}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    print(f"  {'fail_ratio':<34}{failed / attempted:>14.6g} ratio  ({failed}/{attempted} ops)")
    for failure in info["failures"] + tinfo["failures"]:
        print(f"    failed: {failure}")
    print("per layer (traced; seconds are self time per op, counts per op)")
    for name, m in layer.items():
        print(f"  {name:<34}{m['value']:>14.6g} {m['unit']}")

    op = layer["trace.op_mean_s"]["value"]
    shares = {lay: layer[f"{lay}.self_s"]["value"] for lay in LAYERS}
    uncovered = layer["trace.uncovered_s"]["value"]
    print("traced op, by layer self time: " + ", ".join(
        f"{lay} {100 * s / op:.1f}%" for lay, s in sorted(shares.items(), key=lambda kv: -kv[1])
    ) + f", uncovered {100 * uncovered / op:.1f}%")
    print(f"  layers + uncovered = {sum(shares.values()) + uncovered:.6g} s of a "
          f"{op:.6g} s mean traced op; dominant layer {max(shares, key=shares.get)}")
    overhead = layer["trace.op_p50_s"]["value"] - e2e["op_p50_s"]["value"]
    print(f"tracing overhead: traced - untraced op_p50_s = {overhead:+.6g} s "
          f"({100 * overhead / e2e['op_p50_s']['value']:+.2f}%)")
    print()
    return failed == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        ok = show(workload, args.seed, args.seconds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
