"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]   # about a minute

For every workload (by default all four) it runs the traced measurement
twice and checks that

* traced instance counts equal the untraced ``instances_checked``;
* traced and untraced documents (or CLI stdout) are byte-identical;
* no tracing wrapper is left in the package afterwards;
* every other output check passes;
* the two traced runs give exactly the same counts and ratios.

It prints one line per workload and exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import sys

import run

# per-layer metrics that are timings, so they may differ between two runs
TIMED = ("verification.cpu_per_wall", "tracing.overhead")


def repeatable(metrics: dict) -> dict:
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit in ("count", "ratio") and name not in TIMED
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark's traced run.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if not run.use_package():
        return 2
    from workloads import WORKLOADS, Checks

    ok = True
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        checks = Checks()
        first, more = run.trace(workload, args.seed, checks)
        second, _ = run.trace(workload, args.seed, checks)
        a, b = repeatable(first), repeatable(second)
        checks.expect(a == b, f"traced counts differ between runs: "
                              f"{sorted(k for k in a if a[k] != b.get(k))}")
        checks.expect(bool(more["details"]["spans"]), "the traced run recorded no spans")
        status = "ok" if not checks.failures else "FAILED"
        print(f"{status:6s} {workload.name}: {checks.attempted} checks, "
              f"{more['details']['spans']} spans, overhead {first['tracing.overhead'][0]:.2f}")
        for failure in checks.failures:
            print(f"       {failure}")
        ok = ok and not checks.failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
