"""Steadiness check: run workloads over seeds 1..N and report, for each
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json.

    python3 benchmarks/steady.py [--workloads tables exact excite] [--seeds 10]

Each run measures for BENCHMARK.json's ``run_seconds``.  A spread below a
third of the bound is marked ``ok``, any other ``WIDE``.  Runs go one after
another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    opts = ap.parse_args()

    for workload in opts.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, opts.seeds + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        for m in spec["end_to_end"]:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<16} median {med:12.6g} {m['unit']:<7} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.4f} bound {m['bound']:.2f} {flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
