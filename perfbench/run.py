"""Benchmark of signed_nullity, measured from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bicyclic-n8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up (fresh interpreters
importing the package, plus input generation), then closed-loop passes over
the workload until ``--seconds`` would be exceeded (at least one pass).
A shared host can slow its virtual CPUs by half for spells of seconds to
minutes, so a fixed run of pure-Python work (the reference) is timed just
before and just after every job.  ``wall_s`` adds up, over the jobs, the
job's wall time at the host speed at which the reference takes
``REFERENCE_SECONDS``: its total over the passes, times that constant, over
the total of the reference runs around it.  The fresh-interpreter times in
``setup_s`` are scaled by the reference runs around them too.  The unscaled
figures are printed beside them as ``raw_wall_s`` and ``raw_import_s``.
``--trace 1`` measures the per-layer metrics instead: one untraced pass as
the workload normally runs, one untraced serial pass if that differs, and
one traced serial pass; ``--seconds`` does not apply.

Every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit.  The full result, with provenance, goes to
``.perfbench_out/`` under the checkout, as do the trace spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FRESH_STARTS = 9  # fresh interpreters timed for set-up; the median is reported
REFERENCE_ROUNDS = 150_000
# the reference's fastest time on the machine in perfbench/README.md: wall_s
# is expressed at the host speed this stands for
REFERENCE_SECONDS = 0.0505
# enumeration outputs that are candidate instances of a sweep
CANDIDATE_SOURCES = (
    "enumeration.signature_representatives",
    "enumeration.labeled_trees",
    "enumeration.prufer_graph",
)


def use_package() -> bool:
    """Put the package sources on the import path; false if they are missing."""
    if not (SRC / "signed_nullity" / "__init__.py").is_file():
        print(f"error: no signed_nullity sources under {SRC}", file=sys.stderr)
        return False
    # the enumeration ceiling stays at its default
    os.environ.pop("SIGNED_NULLITY_MAX_N", None)
    sys.path.insert(0, str(SRC))
    return True


def fresh_start_seconds(env: dict) -> tuple[float, float, float]:
    """Median wall time of a fresh interpreter importing the package, and of
    a bare one, interleaved, each scaled like ``wall_s`` by the reference
    timed around the pair; then the unscaled import median.  One untimed
    import first writes bytecode caches."""

    def timed(code: str) -> float:
        # no timeout: with one, subprocess polls for the exit in growing
        # sleeps, which quantizes the measured time
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start

    timed("import signed_nullity")
    imports, bare, scales = [], [], []
    for _ in range(FRESH_STARTS):
        before = reference_seconds()
        bare.append(timed("pass"))
        imports.append(timed("import signed_nullity"))
        scales.append(2 * REFERENCE_SECONDS / (before + reference_seconds()))
    return (
        statistics.median(t * scale for t, scale in zip(imports, scales)),
        statistics.median(t * scale for t, scale in zip(bare, scales)),
        statistics.median(imports),
    )


def reference_seconds() -> float:
    """Time the reference: fixed pure-Python work that does not touch the
    package (integer arithmetic, small tuples and one dict).  It tells how
    fast the host runs the interpreter at that moment."""
    start = time.perf_counter()
    x, table = 1, {}
    for i in range(REFERENCE_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 31, i % 7)
        table[key] = table.get(key, 0) + (x >> 16)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def timed_pass(workload, api, inputs, serial: bool, reference=None):
    """One pass, with its wall time and process-plus-children CPU time."""
    before, start = os.times(), time.perf_counter()
    outcome = workload.run_pass(api, inputs, serial, reference)
    wall = time.perf_counter() - start
    after = os.times()
    cpu = sum(after[:4]) - sum(before[:4])
    return outcome, wall, cpu


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "signed_nullity").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure(workload, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    from workloads import Api, package_env

    import_s, bare_s, raw_import_s = fresh_start_seconds(package_env())
    start = time.perf_counter()
    inputs = workload.prepare(seed, OUT)
    generate_s = time.perf_counter() - start

    api = Api()
    walls, passes, warned = [], [], 0
    began = time.perf_counter()
    while True:
        outcome, wall, _ = timed_pass(workload, api, inputs, serial=False, reference=reference_seconds)
        workload.check(outcome, inputs, checks)
        walls.append(wall)
        passes.append(outcome)
        warned += outcome.warnings
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            break
    raw = [o.job_seconds for o in passes]
    references = [o.reference_seconds for o in passes]
    # totals, not a median of per-pass ratios: the short reference and the
    # job each catch the host's quick stalls on their own, and a median of
    # their ratio reads low when stalls are frequent
    wall_s = sum(
        REFERENCE_SECONDS * sum(job) / sum(ref) for job, ref in zip(zip(*raw), zip(*references))
    )

    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (import_s + generate_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "fail_ratio": (len(checks.failures) / checks.attempted, "ratio"),
        "import_s": (import_s, "s"),
        "interpreter_start_s": (bare_s, "s"),
        "raw_import_s": (raw_import_s, "s"),
        "input_generation_s": (generate_s, "s"),
        "raw_wall_s": (sum(statistics.median(job) for job in zip(*raw)), "s"),
        "host_slowdown": (statistics.median(r for ref in references for r in ref) / REFERENCE_SECONDS, "ratio"),
    }
    calls = [t for times in raw for t in times] if workload.normal_form == "subprocess" else []
    if calls:
        extra["call_p50_ms"] = (1000 * statistics.median(calls), "ms")
        extra["call_p90_ms"] = (1000 * statistics.quantiles(calls, n=10, method="inclusive")[8], "ms")
    details = {"passes": len(walls), "pass_walls_s": walls, "job_seconds": raw,
               "reference_seconds": references,
               "call_samples": len(calls), "warnings": warned}
    return metrics, {"extra": extra, "details": details}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def trace(workload, seed: int, checks) -> tuple[dict, dict]:
    from tracer import LAYERS, Tracer, active_wrappers
    from workloads import Api

    inputs = workload.prepare(seed, OUT)
    plain = Api()
    normal, normal_wall, normal_cpu = timed_pass(workload, plain, inputs, serial=False)
    workload.check(normal, inputs, checks)
    if workload.normal_form == "serial":
        serial, serial_wall = normal, normal_wall
    else:
        # a first in-process CLI pass pays one-time costs, so the second is timed
        for _ in range(2 if workload.normal_form == "subprocess" else 1):
            serial, serial_wall, _ = timed_pass(workload, plain, inputs, serial=True)
        workload.check(serial, inputs, checks)

    tracer = Tracer()
    traced_api = Api(tracer.wrap)
    try:
        tracer.install()
        traced, traced_wall, _ = timed_pass(workload, traced_api, inputs, serial=True)
    finally:
        tracer.uninstall()
    workload.check(traced, inputs, checks)
    checks.expect(traced.instances == normal.instances, "traced instance count differs from untraced")
    checks.expect(traced.outputs == normal.outputs, "traced outputs differ from untraced")
    leftover = active_wrappers()
    checks.expect(not leftover, f"wrappers left after tracing: {leftover}")

    per_name = tracer.per_name()
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.bin"
    tracer.write(spans_path)

    calls, self_ns = Counter(), Counter()
    for name, entry in per_name.items():
        layer = name.partition(".")[0]
        calls[layer] += entry["calls"]
        self_ns[layer] += entry["self_ns"]
    metrics = {}
    for layer in LAYERS:
        self_s = self_ns[layer] / 1e9
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.us_per_call"] = (1e6 * self_s / calls[layer] if calls[layer] else 0.0, "us")

    instances = traced.instances
    candidates = sum(
        per_name[name].get("yields", per_name[name]["calls"])
        for name in CANDIDATE_SOURCES
        if name in per_name
    )
    canon = per_name.get("canonical.canonical_form")

    def per_instance(value: float) -> float:
        return value / instances if instances else 0.0

    metrics.update(
        {
            "verification.instances": (instances, "count"),
            "verification.us_per_instance": (per_instance(1e6 * serial.sweep_seconds), "us"),
            "rank.calls_per_instance": (per_instance(calls["rank"]), "ratio"),
            "graphs.calls_per_instance": (per_instance(calls["graphs"]), "ratio"),
            "enumeration.useful_ratio": (instances / candidates if candidates else 0.0, "ratio"),
            "canonical.useful_ratio": (canon["distinct"] / canon["calls"] if canon else 0.0, "ratio"),
            "verification.cpu_per_wall": (normal_cpu / normal_wall, "ratio"),
            "tracing.overhead": (traced_wall / serial_wall, "ratio"),
        }
    )
    details = {
        "normal_wall_s": normal_wall,
        "serial_wall_s": serial_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "per_name": per_name,
    }
    return metrics, {"details": details}


# ---------------------------------------------------------------------------


def render(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[name]
    info = provenance(seed)
    checks = Checks()
    if traced:
        metrics, more = trace(workload, seed, checks)
    else:
        metrics, more = measure(workload, seed, seconds, checks)
    info["loadavg_after"] = list(os.getloadavg())

    print(f"perfbench workload={name} seed={seed} trace={int(traced)}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for metric, (value, unit) in {**metrics, **more.get("extra", {})}.items():
        print(f"  {metric:32s} {value:>16.6f} {unit}")
    if "call_p50_ms" in more.get("extra", {}):
        print(f"  (call percentiles over {more['details']['call_samples']} CLI calls)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": render(metrics),
    }
    record = {
        "workload": name,
        "trace": int(traced),
        "provenance": info,
        "result": result,
        "extra": render(more.get("extra", {})),
        "details": more["details"],
        "failures": checks.failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(names: list[str], seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_package():
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
