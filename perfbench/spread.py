"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed (seeds first-seed, first-seed+1, ...)
for each workload, one run at a time, and prints for every end-to-end metric
its median, its quartiles and the distance between them as a share of the
median, beside the bound in BENCHMARK.json.  Raw results are appended to
``.perfbench_out/spread.jsonl``.
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


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run-to-run spread of the end-to-end metrics.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    log = ROOT / ".perfbench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            print(f"{name:12s} {metric:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.3f}  bound {bounds[metric]:.2f}  "
                  f"{'ok' if share < bounds[metric] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
