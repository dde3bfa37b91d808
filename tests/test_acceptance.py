"""Acceptance suite: every criterion at its stated scale and budget.

Each test prints one PASS/FAIL line so the whole gate is readable from the
test output (run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they complete).
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

from signed_nullity import (
    adjacency_matrix,
    bicyclic_classes,
    build_graph,
    canonical_code,
    cycle_nullity_formula,
    is_balanced,
    nullity,
    rank,
    switch,
)
from signed_nullity import documents
from signed_nullity.verification import catalog_nullity_classes, verify_theorem
from oracles import brute_bicyclic_underlying, cycle_graph

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKERS = min(4, os.cpu_count() or 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_cycle_formula_agrees_with_kernel():
    start = time.perf_counter()
    failures = []
    cases = 0
    for length in range(3, 21):
        for balanced in (True, False):
            cases += 1
            g = cycle_graph(length, 0 if balanced else 1)
            if cycle_nullity_formula(length, balanced) != nullity(g):
                failures.append((length, balanced))
    elapsed = time.perf_counter() - start
    report(
        "A1",
        not failures and elapsed < 1.0,
        f"cycle nullity formula vs kernel, {cases} cases, {elapsed:.2f}s (budget 1s)",
    )


def test_a2_tree_formula_agrees_with_kernel():
    start = time.perf_counter()
    result = verify_theorem("lemma2.1i", 8, workers=WORKERS)
    elapsed = time.perf_counter() - start
    report(
        "A2",
        result.ok and result.instances_checked == 280393 and elapsed < 60,
        f"tree nullity formula over {result.instances_checked} labeled trees (n<=8), "
        f"{len(result.violations)} violations, {elapsed:.1f}s (budget 60s)",
    )


def test_a3_rank2_recognizer_exhaustive():
    start = time.perf_counter()
    result = verify_theorem("theorem2.3", 6, workers=WORKERS)
    elapsed = time.perf_counter() - start
    report(
        "A3",
        result.ok and elapsed < 120,
        f"rank-2 recognizer vs kernel over {result.instances_checked} signed graphs (n<=6), "
        f"{len(result.violations)} discrepancies, {elapsed:.1f}s (budget 120s)",
    )


def test_a4_rank3_recognizer_and_split_check_exhaustive():
    start = time.perf_counter()
    result = verify_theorem("theorem2.4", 6, workers=WORKERS)
    elapsed = time.perf_counter() - start
    report(
        "A4",
        result.ok,
        f"rank-3 recognizer vs kernel plus neighborhood split at rank<=3, "
        f"{result.instances_checked} signed graphs (n<=6), "
        f"{len(result.violations)} discrepancies, {elapsed:.1f}s",
    )


def test_a5_unbalanced_bicyclic_bound_and_extremal_case():
    start = time.perf_counter()
    result = verify_theorem("theorem3.1", 8, workers=WORKERS)
    elapsed = time.perf_counter() - start
    # the extremal class must actually occur: order 4, both triangles negative
    extremal = build_graph(4, [(0, 1, 1), (0, 2, -1), (0, 3, -1), (1, 2, 1), (1, 3, 1)])
    hits_extremal = nullity(extremal) == 1
    report(
        "A5",
        result.ok and hits_extremal and elapsed < 300,
        f"nullity <= n-3 for unbalanced bicyclic graphs, equality only at the "
        f"doubled-triangle class; {result.instances_checked} instances (n<=8), "
        f"{len(result.violations)} violations, {elapsed:.1f}s (budget 300s)",
    )


def test_a6_reductions_preserve_nullity():
    start = time.perf_counter()
    result = verify_theorem("lemma2.5", 8, workers=WORKERS)
    elapsed = time.perf_counter() - start
    report(
        "A6",
        result.ok,
        f"pendant deletions and special-path contractions preserve nullity over "
        f"{result.instances_checked} signed bicyclic graphs (n<=8), "
        f"{len(result.violations)} violations, {elapsed:.1f}s",
    )


def test_a7_pendant_and_special_path_bounds():
    start = time.perf_counter()
    connected = verify_theorem("corollary2.6", 6, workers=WORKERS)
    bicyclic = verify_theorem("corollary2.9", 8, workers=WORKERS)
    elapsed = time.perf_counter() - start
    report(
        "A7",
        connected.ok and bicyclic.ok,
        f"nullity <= n-4 bounds: {connected.instances_checked} pendant instances (n<=6), "
        f"{bicyclic.instances_checked} bicyclic instances (n<=8), "
        f"{len(connected.violations) + len(bicyclic.violations)} violations, {elapsed:.1f}s",
    )


def test_a8_switching_invariance_randomized():
    start = time.perf_counter()
    rng = random.Random(0x5167ED)
    trials = 10_000
    failures = 0
    for _ in range(trials):
        n = rng.randint(1, 10)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        edges = [
            (u, v, rng.choice((1, -1)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = build_graph(n, edges)
        theta = [rng.choice((1, -1)) for _ in range(n)]
        switched = switch(g, theta)
        if rank(adjacency_matrix(switched)) != rank(adjacency_matrix(g)):
            failures += 1
        elif is_balanced(switched).balanced != is_balanced(g).balanced:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        "A8",
        failures == 0 and elapsed < 30,
        f"rank and balance invariant under switching, {trials} random pairs (n<=10), "
        f"{failures} failures, {elapsed:.1f}s (budget 30s)",
    )


def test_a9_catalogs_deterministic_and_golden():
    start = time.perf_counter()
    problems = []
    for n in range(5, 9):
        for k in (4, 5):
            first = catalog_nullity_classes(n, k)
            again = catalog_nullity_classes(n, k)
            parallel = catalog_nullity_classes(n, k, workers=2)
            as_bytes = documents.dumps(documents.catalog_document(first))
            if as_bytes != documents.dumps(documents.catalog_document(again)):
                problems.append(f"({n},{k}) differs across runs")
            if as_bytes != documents.dumps(documents.catalog_document(parallel)):
                problems.append(f"({n},{k}) differs across worker counts")
            for entry in first.entries:
                if nullity(entry.witness) != n - k:
                    problems.append(f"({n},{k}) witness {entry.code} fails revalidation")
    expected_balanced_counts = {5: 2, 6: 5, 7: 3, 8: 3}
    for n in range(5, 9):
        catalog = catalog_nullity_classes(n, 5, balanced_only=True)
        produced = documents.dumps(documents.catalog_document(catalog))
        golden = (GOLDEN_DIR / f"balanced_nullity_n{n}_k5.json").read_text()
        if produced != golden:
            problems.append(f"balanced (n={n}, k=5) catalog deviates from golden file")
        if len(catalog.entries) != expected_balanced_counts[n]:
            problems.append(
                f"balanced (n={n}, k=5) entry count {len(catalog.entries)} != "
                f"{expected_balanced_counts[n]}"
            )
    elapsed = time.perf_counter() - start
    report(
        "A9",
        not problems,
        f"catalogs byte-identical across runs and workers, witnesses revalidate, "
        f"balanced k=5 catalogs match goldens; {'; '.join(problems) or 'no deviations'}, "
        f"{elapsed:.1f}s",
    )


def test_a10_generator_coverage_matches_brute_force():
    start = time.perf_counter()
    mismatches = []
    for n in (4, 5, 6):
        generated = {canonical_code(g) for g in bicyclic_classes(n).values()}
        brute = {canonical_code(g) for g in brute_bicyclic_underlying(n)}
        if generated != brute:
            mismatches.append(n)
    elapsed = time.perf_counter() - start
    report(
        "A10",
        not mismatches,
        f"bicyclic generator covers exactly the brute-force classes for n in 4..6, "
        f"mismatches at {mismatches or 'none'}, {elapsed:.1f}s",
    )
