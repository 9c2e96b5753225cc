"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads ppo-goal-vprior --seeds 1-10 [--trace 1]

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median of the per-run values and the distance between their first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median. Use it for before/after pairs: run it on both commits, same seeds.
Add --json PATH to keep the raw per-run values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write raw per-run results here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds",
                str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=600, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        raw[workload] = runs
        print(f"== {workload} ({len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} failed ops)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else 0.0
            print(f"{name:44s} median={med:<14.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={share:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
