"""Steadiness check: run workloads repeatedly and report each end-to-end
metric's median, quartiles and relative spread against its bound.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

Each run uses its own seed. The spread is the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median; a steady benchmark keeps it below a third of each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Report run-to-run spread of every metric.")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            runs.append(run_once(workload, args.first_seed + k, bench["run_seconds"]))
            print(f"{workload} seed {args.first_seed + k}: {json.dumps(runs[-1])}", flush=True)
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            print(f"{workload:14} {m['name']:14} median {med:11.5g} q1 {q1:11.5g} "
                  f"q3 {q3:11.5g} spread {spread:6.3f} bound {m['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
