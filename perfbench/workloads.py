"""The benchmark's workloads: what each one runs and how its outputs are checked.

Every workload calls signed_nullity's public functions through an ``Api``
object, so the traced run can hand in wrapped functions and the untraced run
the plain ones.  A workload has three steps:

* ``prepare(seed, workdir)`` makes the inputs (timed as part of set-up);
* ``run_pass(api, inputs, serial, reference)`` is one closed-loop pass over
  every job, the part that is timed, with each job's wall time recorded;
  ``serial`` asks for the single-process form, and ``normal_form`` says what
  the pass is otherwise ("serial", "pool" or "subprocess"); ``reference``, if
  given, is timed just before and just after every job;
* ``check(outcome, inputs, checks)`` verifies the outputs of a pass.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter

from signed_nullity import (
    adjacency_matrix,
    bicyclic_base,
    build_graph,
    cli,
    documents,
    is_balanced,
    nullity,
    rank,
    recognize_rank2,
    recognize_rank3,
    reduce,
    unbalanced_bicyclic_verdict,
    verification,
)


def package_env() -> dict:
    """The environment for a child interpreter that imports the package from src/."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Api:
    """The public entry points the workloads call, optionally wrapped."""

    def __init__(self, wrap=lambda fn: fn) -> None:
        self.verify_theorem = wrap(verification.verify_theorem)
        self.catalog_nullity_classes = wrap(verification.catalog_nullity_classes)
        self.verification_document = wrap(documents.verification_document)
        self.catalog_document = wrap(documents.catalog_document)
        self.dumps = wrap(documents.dumps)
        self.cli_main = wrap(cli.main)


class Checks:
    """Output checks of one run: how many were made, and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    """What one pass produced."""

    outputs: list[str]  # rendered documents or CLI stdout, in job order
    instances: int = 0  # sum of instances_checked over the sweeps
    sweep_seconds: float = 0.0  # sum of the sweeps' own elapsed times
    warnings: int = 0  # "beyond the fast range" and any other warnings
    job_seconds: list[float] = field(default_factory=list)  # wall time per job, in job order
    # per job, the mean time of the reference run just before and just after it
    reference_seconds: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)  # reports or catalogs


@contextlib.contextmanager
def timed_job(outcome: Outcome, reference=None):
    """Time one job into ``outcome``, and around it ``reference`` (a callable
    that returns seconds), if one is given."""
    before = reference() if reference else 0.0
    start = perf_counter()
    yield
    outcome.job_seconds.append(perf_counter() - start)
    if reference:
        outcome.reference_seconds.append((before + reference()) / 2)


# ---------------------------------------------------------------------------
# verification sweeps


class SweepWorkload:
    def __init__(self, name, sweeps, workers=1, pinned=None) -> None:
        self.name = name
        self.sweeps = sweeps  # [(theorem id, max_n)]
        self.workers = workers
        self.pinned = pinned or {}  # theorem id -> exact instances_checked
        self.normal_form = "pool" if workers > 1 else "serial"

    def prepare(self, seed: int, workdir: Path):
        return None  # exhaustive sweeps take no seed

    def run_pass(self, api: Api, inputs, serial: bool, reference=None) -> Outcome:
        workers = 1 if serial else self.workers
        outcome = Outcome(outputs=[])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for theorem, max_n in self.sweeps:
                with timed_job(outcome, reference):
                    report = api.verify_theorem(theorem, max_n, workers=workers)
                    outcome.outputs.append(api.dumps(api.verification_document(report)))
                outcome.results.append(report)
        outcome.warnings = len(caught)
        outcome.instances = sum(r.instances_checked for r in outcome.results)
        outcome.sweep_seconds = sum(r.elapsed for r in outcome.results)
        return outcome

    def check(self, outcome: Outcome, inputs, checks: Checks) -> None:
        for (theorem, max_n), report in zip(self.sweeps, outcome.results):
            checks.expect(report.ok, f"{theorem} n<={max_n}: {len(report.violations)} violations")
            checks.expect(report.instances_checked > 0, f"{theorem} n<={max_n}: checked nothing")
            if theorem in self.pinned:
                checks.expect(
                    report.instances_checked == self.pinned[theorem],
                    f"{theorem} n<={max_n}: checked {report.instances_checked} instances, "
                    f"expected {self.pinned[theorem]}",
                )


# ---------------------------------------------------------------------------
# catalogs


class CatalogWorkload:
    normal_form = "serial"

    def __init__(self, name, catalogs, golden=None) -> None:
        self.name = name
        self.catalogs = catalogs  # [(n, k, balanced_only)]
        self.golden = golden or {}  # (n, k, balanced_only) -> path under the repo root

    def prepare(self, seed: int, workdir: Path):
        root = Path(__file__).resolve().parent.parent
        return {key: (root / path).read_text(encoding="utf-8") for key, path in self.golden.items()}

    def run_pass(self, api: Api, inputs, serial: bool, reference=None) -> Outcome:
        outcome = Outcome(outputs=[])
        for n, k, balanced_only in self.catalogs:
            with timed_job(outcome, reference):
                catalog = api.catalog_nullity_classes(n, k, balanced_only=balanced_only)
                outcome.outputs.append(api.dumps(api.catalog_document(catalog)))
            outcome.results.append(catalog)
        return outcome

    def check(self, outcome: Outcome, inputs, checks: Checks) -> None:
        for key, catalog, text in zip(self.catalogs, outcome.results, outcome.outputs):
            for entry in catalog.entries:
                w = entry.witness
                checks.expect(
                    w.order == catalog.order
                    and len(w.edges) == w.order + 1
                    and w.order - rank(adjacency_matrix(w)) == catalog.nullity,
                    f"catalog {key}: witness of {entry.code} does not revalidate",
                )
            if key in inputs:
                checks.expect(text == inputs[key], f"catalog {key}: bytes differ from {self.golden[key]}")


# ---------------------------------------------------------------------------
# one graph at a time through the CLI


def random_graph(rng: random.Random) -> tuple[int, list[tuple[int, int, int]], str]:
    """A connected signed graph with 4..10 vertices, as edges and as file text."""
    n = rng.randint(4, 10)
    kind = rng.choice(("tree", "unicyclic", "bicyclic", "dense"))
    labels = list(range(n))
    rng.shuffle(labels)
    pairs = set()
    for i in range(1, n):
        u, v = labels[i], labels[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    free = [p for p in combinations(range(n), 2) if p not in pairs]
    if kind == "dense":
        extra = rng.randint(3, len(free))
    else:
        extra = {"tree": 0, "unicyclic": 1, "bicyclic": 2}[kind]
    pairs.update(rng.sample(free, extra))
    edges = [(u, v, rng.choice((1, -1))) for u, v in sorted(pairs)]
    lines = [f"# {kind}", f"{n} {len(edges)}"]
    for u, v, s in rng.sample(edges, len(edges)):
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v} {'+' if s == 1 else '-'}")
    return n, edges, "\n".join(lines) + "\n"


def expected_stdout(command: str, g, text: str) -> str:
    """What the CLI must print, computed in-process from the library."""
    if command == "nullity":
        eta = nullity(g)
        return f"n={g.order} rank={g.order - eta} nullity={eta}\n"
    if command == "balance":
        witness = is_balanced(g)
        if witness.balanced:
            return f"balanced theta={documents.signs_text(witness.switching)}\n"
        return "unbalanced cycle=" + " ".join(map(str, witness.negative_cycle)) + "\n"
    if command == "classify":
        eta = nullity(g)
        base = bicyclic_base(g)
        bound = None
        if base is not None and not is_balanced(g).balanced:
            bound = unbalanced_bicyclic_verdict(g)
        payload = {
            "order": g.order,
            "rank": g.order - eta,
            "nullity": eta,
            "rank2": documents.verdict_dict(recognize_rank2(g)),
            "rank3": documents.verdict_dict(recognize_rank3(g)),
            "bicyclic_base": documents.base_dict(base),
            "unbalanced_bicyclic": documents.bound_verdict_dict(bound),
        }
        return documents.dumps(documents.document("classification", documents.text_digest(text), payload))
    if command == "reduce":
        reduced, trace = reduce(g)
        payload = {
            "input": documents.graph_dict(g),
            "reduced": documents.graph_dict(reduced),
            "steps": documents.trace_dict(trace),
        }
        return documents.dumps(documents.document("reduction", documents.text_digest(text), payload))
    raise ValueError(f"unknown command {command!r}")


@dataclass
class CliInputs:
    jobs: list[tuple[str, str]]  # (command, graph file path), in call order
    graphs: dict  # path -> (SignedGraph built from the generated edges, file text)
    env: dict
    expected: list[str] = field(default_factory=list)


class CliWorkload:
    normal_form = "subprocess"
    COMMANDS = ("nullity", "balance", "classify", "reduce")

    def __init__(self, name, files) -> None:
        self.name = name
        self.files = files  # graph files; every command runs on each

    def prepare(self, seed: int, workdir: Path) -> CliInputs:
        rng = random.Random(seed)
        folder = workdir / f"cli-inputs-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        graphs = {}
        for i in range(self.files):
            n, edges, text = random_graph(rng)
            path = folder / f"g{i:02d}.txt"
            path.write_text(text, encoding="utf-8")
            graphs[str(path)] = (build_graph(n, edges), text)
        jobs = [(command, path) for path in graphs for command in self.COMMANDS]
        rng.shuffle(jobs)
        return CliInputs(jobs=jobs, graphs=graphs, env=package_env())

    def run_pass(self, api: Api, inputs: CliInputs, serial: bool, reference=None) -> Outcome:
        outcome = Outcome(outputs=[])
        for command, path in inputs.jobs:
            with timed_job(outcome, reference):
                if serial:
                    buffer = io.StringIO()
                    with contextlib.redirect_stdout(buffer):
                        code = api.cli_main([command, path])
                    stdout = buffer.getvalue()
                else:
                    proc = subprocess.run(
                        [sys.executable, "-m", "signed_nullity.cli", command, path],
                        env=inputs.env,
                        stdin=subprocess.DEVNULL,
                        capture_output=True,
                        text=True,
                    )  # no timeout, which would quantize the call's measured time
                    code, stdout = proc.returncode, proc.stdout
            outcome.results.append(code)
            outcome.outputs.append(stdout)
        return outcome

    def check(self, outcome: Outcome, inputs: CliInputs, checks: Checks) -> None:
        if not inputs.expected:
            inputs.expected = [
                expected_stdout(command, *inputs.graphs[path]) for command, path in inputs.jobs
            ]
        for (command, path), code, stdout, expected in zip(
            inputs.jobs, outcome.results, outcome.outputs, inputs.expected
        ):
            name = Path(path).name
            checks.expect(code == 0, f"{command} {name}: exit code {code}")
            checks.expect(stdout == expected, f"{command} {name}: stdout differs from the library")


WORKLOADS = {
    w.name: w
    for w in (
        # lemma2.1i at n <= 7 checks every labeled tree once:
        # sum of n^(n-2) over n = 1..7 (Cayley)
        SweepWorkload(
            "labeled-pool",
            [("theorem2.4", 5), ("lemma2.1i", 7)],
            workers=2,
            pinned={"lemma2.1i": 18249},
        ),
        SweepWorkload(
            "bicyclic-n8",
            [("theorem3.1", 8), ("lemma2.5", 8)],
        ),
        CatalogWorkload(
            "catalog-n9",
            [(9, 3, False), (9, 4, False), (9, 5, False), (9, 5, True), (8, 5, True)],
            golden={(8, 5, True): "tests/golden/balanced_nullity_n8_k5.json"},
        ),
        CliWorkload(
            "cli-single",
            files=8,
        ),
    )
}
