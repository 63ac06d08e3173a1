"""Same-code steadiness check: run the benchmark on several seeds and report,
per end-to-end metric, the median and the quartile spread as a share of the
median, next to the bound fixed in BENCHMARK.json.

    python3 bench/steadiness.py --workload test-long --runs 10 [--first-seed 1]
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {name: [] for name in bounds}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}", file=sys.stderr)
                status = 1
            shares.add((result["failed"] / result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  <-- above a third of the bound"
            print(f"{workload} {name}: median {med:.6g} spread {spread:.4f} bound {bounds[name]}{flag}")
        print(f"{workload} failed shares: {sorted(shares)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
