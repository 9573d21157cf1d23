"""Compare the benchmark of the working tree against a git revision.

Exports both sides into sibling directories of one temporary directory
outside the repository: the revision (default HEAD) with ``git archive``,
and the working tree as the files git tracks (``git ls-files``, new files
once added), read from the checkout.  Neither side runs in the checkout,
so both run from alike directories.  Then runs ``perfbench/run.py --trace 0``
of each side on every workload gated in ``BENCHMARK.json`` for its
``run_seconds``, in PAIRS pairs: both sides of a pair get the same fresh
seed (FIRST_SEED, FIRST_SEED + 1, ...), and the side that runs first
alternates from pair to pair.  Writes, per workload and end-to-end metric,
the median and quartiles of both sides and the number of pairs the working
tree wins, to a JSON file.

Run from the root of a checkout:

    python3 tools/bench_compare.py --out BENCH_6.json [--base HEAD]

It only calls ``perfbench/run.py`` and changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10         # the fewest pairs that can carry a claimed gain
FIRST_SEED = 101


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of `rev` into `dest` and return its commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def export_working_tree(dest: Path) -> None:
    """Write the working-tree copy of every file git tracks into `dest`
    (a tracked file deleted from the working tree is left out)."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run.py result of a checkout: the parsed last line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": xs}


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in ("base", "new")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (n - b) < 0 for b, n in zip(side["base"], side["new"]))
        out[name] = {"unit": m["unit"], "better": m["better"], "wins": wins,
                     "pairs": len(side["new"]),
                     "base": quartiles(side["base"]), "new": quartiles(side["new"])}
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    result = {"base": args.base, "pairs": PAIRS, "seconds": seconds,
              "machine": {"cpus": len(os.sched_getaffinity(0)), "platform": platform.platform(),
                          "python": platform.python_version()},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="qazb-bench-") as tmp:
        sides = {"base": Path(tmp) / "base", "new": Path(tmp) / "new"}
        result["base_commit"] = export_revision(args.base, sides["base"])
        export_working_tree(sides["new"])
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"base": [], "new": []}
            seeds, first = [], []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                for s in order:
                    runs[s].append(bench(sides[s], workload, seed, seconds))
                seeds.append(seed)
                first.append(order[0])
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}: op_p50_s "
                      f"base {runs['base'][-1]['metrics']['op_p50_s']['value']:.3f} "
                      f"new {runs['new'][-1]['metrics']['op_p50_s']['value']:.3f}",
                      file=sys.stderr)
            result["workloads"][workload] = {
                "seeds": seeds, "first": first,
                "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "metrics": summarise(runs, spec["end_to_end"]),
            }
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
