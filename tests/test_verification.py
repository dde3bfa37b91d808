"""Verification sweeps and catalogs at small orders."""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

import warnings

import pytest

from signed_nullity import (
    RankClassVerdict,
    SignedGraph,
    adjacency_matrix,
    documents,
    is_connected,
    matching_number,
    nullity,
    parse_graph,
    rank,
    recognize_rank2,
    recognize_rank3,
)
from signed_nullity import verification
from signed_nullity.canonical import _canonize, canonical_form
from signed_nullity.enumeration import (
    base_graph,
    bicyclic_base_shapes,
    hung_classes,
    prufer_graph,
    prufer_pairs,
    prufer_sequences,
    signature_representatives,
)
from signed_nullity.graphs import cycle_sign, fundamental_cycles
from signed_nullity.rank import _eliminate
from signed_nullity.recognizers import bicyclic_base
from signed_nullity.verification import (
    CatalogEntry,
    NullityCatalog,
    TheoremReport,
    UsageError,
    _classes_by_order,
    _connected_classes,
    _extensions,
    _null_supports,
    _rank_at_most,
    available_theorems,
    bicyclic_classes,
    catalog_nullity_classes,
    verify_theorem,
)
from oracles import (
    IndexOnly,
    automorphism_count,
    brute_bicyclic_underlying,
    brute_matching_number,
    connected_components,
    connected_labeled_count,
    connected_labeled_graphs,
)


@pytest.fixture
def canonize_calls(monkeypatch) -> list:
    """Every graph the class builder canonizes from here on, in call order."""
    calls: list = []
    canonize = verification._canonize

    def counted(g):
        calls.append(g)
        return canonize(g)

    monkeypatch.setattr(verification, "_canonize", counted)
    return calls


@pytest.fixture
def forks(monkeypatch) -> tuple[list, list]:
    """The pids of the worker processes started from here on, and of those
    joined after they exited."""
    from multiprocessing.process import BaseProcess

    started: list = []
    joined: list = []
    start, join = BaseProcess.start, BaseProcess.join

    def counted_start(self):
        start(self)
        started.append(self.pid)

    def counted_join(self, timeout=None):
        join(self, timeout)
        if self.exitcode is not None:
            joined.append(self.pid)

    monkeypatch.setattr(BaseProcess, "start", counted_start)
    monkeypatch.setattr(BaseProcess, "join", counted_join)
    return started, joined


@pytest.fixture
def no_chunks(monkeypatch) -> None:
    """Fail any sweep or catalog that starts its chunks, so that a refusal
    is shown to come before any work (and a broken cap fails, not hangs)."""

    def refuse(fn, tasks, workers):
        raise AssertionError("a chunk was started")

    monkeypatch.setattr(verification, "_run_tasks", refuse)


# (sweep, min_n, max_n): the range of max_n each sweep accepts
SWEEP_ORDERS = [
    ("lemma2.1i", 1, 10),
    ("lemma2.1ii", 3, 128),
    ("theorem2.3", 1, 8),
    ("theorem2.4", 1, 8),
    ("corollary2.6", 1, 8),
    ("corollary2.9", 4, 12),
    ("theorem3.1", 4, 12),
    ("lemma2.5", 4, 12),
]


def _order(g: SignedGraph) -> int:
    return g.order


def _flipped(recognize):
    return lambda g: RankClassVerdict(matches=not recognize(g).matches)


# (sweep, max_n, names in verification to replace, a regex for each text the
# sweep must then report, and no other); together every text of every sweep
_BROKEN_SWEEPS = [
    (
        "lemma2.1i",
        4,
        {"_null_supports": lambda m: (0, set(), set())},
        [r"tree nullity formula disagrees with rank kernel"],
    ),
    (
        "lemma2.1i",
        4,
        {"_leaf_matching": lambda n, pairs: 0},
        [r"tree nullity formula disagrees with rank kernel"],
    ),
    (
        "lemma2.1i",
        4,
        {"_tree_block": lambda side, pairs: [[0] * len(side)]},
        [r"tree nullity formula disagrees with rank kernel"],
    ),
    (
        "lemma2.1i",
        4,
        {"_null_supports": lambda m: (_null_supports(m)[0], set(), set())},
        [r"tree nullity formula disagrees with rank kernel"],
    ),
    (
        "lemma2.1ii",
        4,
        {"nullity": _order},
        [
            r"balanced cycle formula disagrees with rank kernel",
            r"unbalanced cycle formula disagrees with rank kernel",
        ],
    ),
    (
        "theorem2.3",
        4,
        {"recognize_rank2": _flipped(recognize_rank2)},
        [r"rank-2 recognizer disagrees with rank kernel"],
    ),
    (
        "theorem2.4",
        4,
        {"recognize_rank3": _flipped(recognize_rank3)},
        [r"rank-3 recognizer disagrees with rank kernel"],
    ),
    (
        "theorem2.4",
        4,
        {"low_rank_neighborhood_check": lambda g, x: False},
        [r"neighborhood split check fails at vertices \[\d+(, \d+)+\] despite rank [23]"],
    ),
    ("corollary2.6", 5, {"nullity": _order}, [r"pendant vertex present but nullity exceeds n-4"]),
    (
        "corollary2.9",
        6,
        {"nullity": _order},
        [
            r"special path present but nullity exceeds n-4",
            r"pendant vertex present but nullity exceeds n-4",
        ],
    ),
    (
        "theorem3.1",
        5,
        {"nullity": lambda g: g.order - 2, "is_extremal_bicyclic": lambda g, base: True},
        [
            r"unbalanced bicyclic graph with nullity above n-3",
            r"extremal-shape verdict True but nullity is \d+",
        ],
    ),
    (
        "lemma2.5",
        6,
        {"nullity": _order},
        [
            r"pendant deletion \(\d+,\d+\) changed the nullity",
            r"contraction of special path \(\d+,\d+,\d+\) changed the nullity",
        ],
    ),
    # the edgeless graph of order n-2 has nullity n-2, above any bicyclic one
    (
        "lemma2.5",
        6,
        {"_delete_pair": lambda g, v, u: SignedGraph(g.order - 2, ())},
        [r"pendant deletion \(\d+,\d+\) changed the nullity"],
    ),
    (
        "lemma2.5",
        6,
        {"_contract": lambda g, p: SignedGraph(g.order - 2, ())},
        [r"contraction of special path \(\d+,\d+,\d+\) changed the nullity"],
    ),
]


class TestVerifyTheorem:
    def test_unknown_id_rejected(self):
        with pytest.raises(UsageError, match="unknown theorem id"):
            verify_theorem("theorem9.9", 5)

    @pytest.mark.parametrize("bad", [5, None, b"lemma2.1i"])
    def test_non_string_id_refused_before_any_work(self, no_chunks, bad):
        with pytest.raises(UsageError, match="theorem id must be a string"):
            verify_theorem(bad, 5)

    def test_ceiling_enforced(self, monkeypatch, no_chunks):
        # the cap is the sweep's own; the variable that once raised it is ignored
        monkeypatch.setenv("SIGNED_NULLITY_MAX_N", "12")
        with pytest.raises(UsageError, match=r"up to 8 \(its ceiling\), got 9"):
            verify_theorem("theorem2.3", 9)

    @pytest.mark.parametrize("theorem, min_n, max_n", SWEEP_ORDERS)
    def test_each_sweep_refuses_orders_outside_its_range_before_any_work(
        self, no_chunks, theorem, min_n, max_n
    ):
        sweep = verification._SWEEPS[theorem]
        assert (sweep.min_n, sweep.max_n) == (min_n, max_n)
        with pytest.raises(UsageError, match="ceiling"):
            verify_theorem(theorem, max_n + 1)
        with pytest.raises(UsageError, match=f"needs max_n >= {min_n}"):
            verify_theorem(theorem, min_n - 1)

    def test_every_sweep_has_a_pinned_range(self):
        assert sorted(theorem for theorem, _, _ in SWEEP_ORDERS) == sorted(verification._SWEEPS)

    def test_cycle_sweep_not_capped_by_ceiling(self):
        # lengths beyond every order cap of the graph sweeps
        report = verify_theorem("lemma2.1ii", 20)
        assert report.ok
        assert report.instances_checked == 36  # lengths 3..20, two classes each

    def test_bicyclic_sweep_needs_order_4(self):
        with pytest.raises(UsageError, match="needs max_n >= 4"):
            verify_theorem("theorem3.1", 3)

    def test_cycle_sweep_has_its_own_cap(self):
        with pytest.raises(UsageError, match="up to 128"):
            verify_theorem("lemma2.1ii", 200)

    def test_aliases_resolve(self):
        r1 = verify_theorem("tree-nullity", 4)
        r2 = verify_theorem("Lemma 2.1i", 4)
        assert r1.theorem == r2.theorem == "lemma2.1i"

    def test_tree_sweep_counts_and_passes(self):
        report = verify_theorem("lemma2.1i", 5)
        assert report.ok
        assert report.instances_checked == 1 + 1 + 3 + 16 + 125
        assert report.orders_checked == (1, 2, 3, 4, 5)

    def test_rank_sweeps_pass(self):
        assert verify_theorem("theorem2.3", 4).ok
        assert verify_theorem("theorem2.4", 4).ok

    def test_bound_sweeps_pass(self):
        assert verify_theorem("corollary2.6", 5).ok
        assert verify_theorem("corollary2.9", 7).ok

    def test_unbalanced_bicyclic_sweep_passes(self):
        report = verify_theorem("theorem3.1", 6)
        assert report.ok
        assert report.orders_checked == (4, 5, 6)

    def test_reduction_sweep_passes(self):
        report = verify_theorem("reductions", 6)
        assert report.theorem == "lemma2.5"
        assert report.ok

    def test_tree_chunks_fix_the_second_and_third_pruefer_symbols_from_order_7(self, monkeypatch):
        tasks = verification._tree_tasks(7)
        assert tasks[:6] == [(n,) for n in range(1, 7)]
        prefixes = sorted(args[1:] for args in tasks[6:])
        assert prefixes == [(a, b) for a in range(7) for b in range(7)]
        # every matched tree, as the pairs the matching reads
        matched: list[list[tuple[int, int]]] = []
        matching = verification._leaf_matching

        def recorded(n, pairs):
            matched.append(list(pairs))
            return matching(n, pairs)

        monkeypatch.setattr(verification, "_leaf_matching", recorded)
        counts = []
        for args in tasks:
            matched.clear()
            counts.append(verification._sweep_chunk(("lemma2.1i", args))[0])
            n, key = args[0], args[1:]
            expected = [prufer_pairs(n, seq) for seq in prufer_sequences(n) if seq[1 : 1 + len(key)] == key]
            assert sorted(matched) == sorted(expected)
        monkeypatch.undo()
        assert counts[6:] == [7**3] * 49
        assert sum(counts) == sum(n ** (n - 2) for n in range(2, 8)) + 1 == 18249
        serial, pooled = (verify_theorem("lemma2.1i", 7, workers=w) for w in (1, 2))
        assert documents.dumps(documents.verification_document(serial)) == documents.dumps(
            documents.verification_document(pooled)
        )

    def test_codes_with_one_suffix_are_its_tree_plus_a_leaf_ranked_off_its_null_space(self):
        # for s != m, the least vertex missing from sigma, (s,) + sigma decodes
        # to (m, s) and then the pairs of the tree sigma spans without m, the
        # first (m2, x); (m,) + sigma decodes to (m2, m), (m, x) and the rest,
        # the tree of s = m2 with m and m2 swapped; the full-matrix kernel is
        # the oracle for the ranks read off the tree sigma spans
        trees = 0
        for n in range(3, 8):
            for sigma in product(range(n), repeat=n - 3):
                m, m2 = sorted(set(range(n)).difference(sigma))[:2]
                rest = prufer_pairs(n, (n - 1,) + sigma)[1:]
                assert rest[0][0] == m2, (n, sigma)
                x = rest[0][1]
                ranks = verification._leaf_ranks(n, rest)
                for s in range(n):
                    pairs = prufer_pairs(n, (s,) + sigma)
                    if s == m:
                        assert pairs == [(m2, m), (m, x)] + rest[1:], (n, sigma)
                    else:
                        assert pairs == [(m, s)] + rest, (n, s, sigma)
                    full = rank(adjacency_matrix(prufer_graph(n, (s,) + sigma)))
                    assert 2 * ranks[m2 if s == m else s] == full, (n, s, sigma)
                    trees += 1
        assert trees == sum(n ** (n - 2) for n in range(3, 8)) == 18247

    def test_leaf_order_matching_is_the_matching_number(self):
        for n in range(1, 8):
            for seq in prufer_sequences(n):
                g = prufer_graph(n, seq)
                found = verification._leaf_matching(n, prufer_pairs(n, seq))
                assert found == matching_number(g), (n, seq)
                if n <= 6:
                    assert found == brute_matching_number(g), (n, seq)

    def test_tree_block_has_half_the_rank_of_the_adjacency_matrix(self):
        # the full-matrix kernel is the oracle for the block route
        trees = 0
        for n in range(1, 8):
            for seq in prufer_sequences(n):
                pairs = prufer_pairs(n, seq)
                side = verification._tree_sides(n, pairs)
                assert all(side[u] != side[v] for u, v in pairs), (n, seq)
                block = verification._tree_block(side, pairs)
                assert (len(block), len(block[0])) == (side.count(0), side.count(1))
                assert sum(map(sum, block)) == n - 1, (n, seq)
                full = rank(adjacency_matrix(prufer_graph(n, seq)))
                assert 2 * _eliminate(block) == full, (n, seq)
                trees += 1
        assert trees == 18249

    def test_parallel_results_identical(self):
        from signed_nullity import documents

        serial = verify_theorem("lemma2.5", 6)
        parallel = verify_theorem("lemma2.5", 6, workers=2)
        assert serial.instances_checked == parallel.instances_checked
        assert serial.violations == parallel.violations
        assert serial.orders_checked == parallel.orders_checked
        assert documents.dumps(documents.verification_document(serial)) == documents.dumps(
            documents.verification_document(parallel)
        )

    def test_pool_never_larger_than_the_chunk_count(self, forks):
        # the caller is one of the workers, so a run forks one child fewer
        started, _ = forks
        report = verify_theorem("lemma2.1ii", 4, workers=8)  # lengths 3 and 4: two chunks
        assert report.instances_checked == 4
        assert len(started) == 1
        assert catalog_nullity_classes(5, 3, workers=64).entries == ()  # four base shapes
        assert len(started) == 1 + 3
        assert verify_theorem("theorem2.4", 4, workers=8).ok  # one chunk, the build from K1
        assert len(started) == 1 + 3 + 0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(UsageError, match="workers"):
            verify_theorem("lemma2.1ii", 4, workers=workers)
        with pytest.raises(UsageError, match="workers"):
            catalog_nullity_classes(4, 3, workers=workers)

    @pytest.mark.parametrize("bad", [5.0, Fraction(5), "5", True])
    def test_non_integer_arguments_refused_before_any_work(self, no_chunks, bad):
        with pytest.raises(UsageError, match="max_n must be an integer"):
            verify_theorem("lemma2.1i", bad)
        with pytest.raises(UsageError, match="workers must be an integer"):
            verify_theorem("lemma2.1i", 5, workers=bad)

    def test_integer_like_arguments_run_as_ints(self):
        report = verify_theorem("lemma2.1i", IndexOnly(5), workers=IndexOnly(2))
        assert report == verify_theorem("lemma2.1i", 5)._replace(elapsed=report.elapsed)
        assert report.orders_checked == (1, 2, 3, 4, 5)

    def test_report_shape(self):
        report = verify_theorem("theorem3.1", 5)
        assert isinstance(report, TheoremReport)
        assert report.elapsed >= 0
        assert report.instances_checked > 0

    def test_order_9_bicyclic_sweep_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_theorem("corollary2.9", 9).ok

    def test_reduction_residues_satisfy_closed_forms(self):
        # pendant-deleting a bicyclic graph to its fixpoint leaves either a
        # bare cycle pair core or, never here, a forest; on forests and
        # cycles the closed-form nullities must agree with the kernel
        from signed_nullity import (
            cycle_nullity_formula,
            forest_nullity_formula,
            fundamental_cycles,
            is_balanced,
            reduce,
            signature_representatives,
        )

        residues = 0
        for underlying in (*bicyclic_classes(6).values(), *bicyclic_classes(7).values()):
            for rep in signature_representatives(underlying):
                residue, _ = reduce(rep)
                if not fundamental_cycles(residue):
                    assert forest_nullity_formula(residue) == nullity(residue)
                    residues += 1
                elif residue.order and all(
                    residue.degree(v) in (0, 2) for v in range(residue.order)
                ):
                    # disjoint cycles plus isolated vertices
                    from signed_nullity import induced_subgraph

                    total = 0
                    for comp in connected_components(residue):
                        part = induced_subgraph(residue, comp)
                        if len(comp) == 1:
                            total += 1
                            continue
                        balanced = is_balanced(part).balanced
                        total += cycle_nullity_formula(part.order, balanced)
                    assert total == nullity(residue)
                    residues += 1
        assert residues > 50

    def test_violations_are_built_sorted_and_replayable(self, monkeypatch):
        from signed_nullity import verification
        from signed_nullity.graphio import parse_graph

        clean = verify_theorem("lemma2.1i", 5)
        # a broken kernel: every tree with an edge now disagrees with the formula
        monkeypatch.setattr(verification, "_null_supports", lambda m: (0, set(), set()))
        report = verify_theorem("lemma2.1i", 5)
        assert report.instances_checked == clean.instances_checked
        assert len(report.violations) == report.instances_checked - 1
        keys = [(v.order, v.witness, v.detail) for v in report.violations]
        assert keys == sorted(keys)
        for v in report.violations:
            assert parse_graph(v.witness).order == v.order

    @pytest.mark.parametrize(
        "theorem,max_n,broken,texts",
        _BROKEN_SWEEPS,
        ids=[f"{case[0]}-{'-'.join(case[2])}" for case in _BROKEN_SWEEPS],
    )
    def test_a_broken_check_reports_each_of_its_texts(
        self, monkeypatch, theorem, max_n, broken, texts
    ):
        for name, replacement in broken.items():
            monkeypatch.setattr(verification, name, replacement)
        report = verify_theorem(theorem, max_n, workers=1)
        assert not report.ok
        details = {v.detail for v in report.violations}
        for text in texts:
            assert any(re.fullmatch(text, d) for d in details), (text, sorted(details))
        for detail in details:
            assert any(re.fullmatch(text, detail) for text in texts), detail
        for v in report.violations:
            assert parse_graph(v.witness).order == v.order

    def test_listing_covers_all_ids(self):
        ids = [key for key, _ in available_theorems()]
        assert ids == sorted(ids)
        assert "theorem3.1" in ids and "lemma2.5" in ids



def _no_child_left(started: list, joined: list) -> bool:
    return multiprocessing.active_children() == [] and set(joined) == set(started)


class TestForkJoinRunner:
    """``_run_tasks`` at two or more workers: the caller and its forked
    children claim tasks from one counter.  A barrier of one party per
    worker makes every worker hold one of the first tasks at once, so each
    test sees the caller and every child run a task."""

    @staticmethod
    def _barrier(parties: int):
        return multiprocessing.get_context("fork").Barrier(parties, timeout=20)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_task_runs_once_and_lands_at_its_index(self, forks, workers):
        # 3 workers exceed 2 cores; a lost update of the counter would run a
        # task twice or never
        barrier = self._barrier(workers)
        calls = multiprocessing.get_context("fork").Value("i", 0)

        def run(t):
            if t < workers:
                barrier.wait()
            with calls.get_lock():
                calls.value += 1
            return t, os.getpid()

        tasks = list(range(500))
        results = verification._run_tasks(run, tasks, workers)
        assert [t for t, _ in results] == tasks and calls.value == len(tasks)
        pids = {pid for _, pid in results[:workers]}
        assert len(pids) == workers and os.getpid() in pids
        assert len(forks[0]) == workers - 1 and _no_child_left(*forks)

    def test_a_child_exception_is_raised_with_its_traceback(self, forks):
        barrier, caller = self._barrier(2), os.getpid()

        def run(t):
            barrier.wait()
            if os.getpid() != caller:
                raise ValueError(f"fault in task {t}")
            return t

        with pytest.raises(ValueError, match="fault in task") as info:
            verification._run_tasks(run, [0, 1], 2)
        remote = str(info.value.__cause__)
        assert remote.startswith("Traceback") and 'raise ValueError(f"fault in task {t}")' in remote
        assert _no_child_left(*forks)

    def test_an_exception_that_does_not_pickle_still_sends_its_traceback(self, forks):
        barrier, caller = self._barrier(2), os.getpid()

        def run(t):
            barrier.wait()
            if os.getpid() != caller:
                error = ValueError("fault with a local function attached")
                error.hook = lambda: None  # a local function does not pickle
                raise error
            return t

        with pytest.raises(RuntimeError, match="does not pickle") as info:
            verification._run_tasks(run, [0, 1], 2)
        assert "ValueError: fault with a local function attached" in str(info.value.__cause__)
        assert _no_child_left(*forks)

    def test_a_dead_child_raises_worker_crashed(self, forks):
        barrier, caller = self._barrier(2), os.getpid()

        def run(t):
            barrier.wait()
            if os.getpid() != caller:
                os._exit(3)
            return t

        with pytest.raises(verification.WorkerCrashed, match="exited with code 3"):
            verification._run_tasks(run, [0, 1], 2)
        assert _no_child_left(*forks)

    def test_the_callers_exception_stops_every_child(self, forks):
        barrier, caller = self._barrier(3), os.getpid()

        def run(t):
            barrier.wait()
            if os.getpid() == caller:
                raise RuntimeError("fault in the caller's share")
            time.sleep(60)  # the runner terminates the children

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="caller's share"):
            verification._run_tasks(run, [0, 1, 2], 3)
        assert time.perf_counter() - start < 30
        assert len(forks[0]) == 2 and _no_child_left(*forks)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "theorem, max_n",
        [
            ("lemma2.1i", 7),
            ("lemma2.1ii", 8),
            ("theorem2.3", 5),
            ("theorem2.4", 5),
            ("corollary2.6", 5),
            ("corollary2.9", 7),
            ("theorem3.1", 7),
            ("lemma2.5", 7),
        ],
    )
    def test_sweep_documents_identical_to_serial(self, forks, theorem, max_n, workers):
        def document(w: int) -> str:
            return documents.dumps(documents.verification_document(verify_theorem(theorem, max_n, workers=w)))

        assert document(workers) == document(1)
        assert _no_child_left(*forks)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_order_6_catalogs_identical_to_serial(self, forks, workers):
        for k, balanced in product(range(3, 7), (False, True)):
            serial, parallel = (
                documents.dumps(documents.catalog_document(catalog_nullity_classes(6, k, balanced, workers=w)))
                for w in (1, workers)
            )
            assert parallel == serial, (k, balanced)
        assert forks[0] and _no_child_left(*forks)

class TestBicyclicClasses:
    @pytest.mark.parametrize(
        "n,count", [(4, 1), (5, 5), (6, 19), (7, 67), (8, 236), (9, 797)]  # OEIS A001435
    )
    def test_class_counts(self, n, count):
        assert len(bicyclic_classes(n)) == count

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_brute_force(self, n):
        # oracle: canonize every connected labeled graph with n+1 edges
        expected: dict = {}
        for g in brute_bicyclic_underlying(n):
            code, canon = canonical_form(g)
            expected.setdefault(code, canon)
        classes = bicyclic_classes(n)
        assert list(classes) == sorted(expected)
        assert classes == expected

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_one_canonical_graph_per_class(self, n):
        # with the pinned class counts, distinct valid classes are all of them
        codes = []
        for g in bicyclic_classes(n).values():
            assert g.order == n and len(g.edges) == n + 1
            assert is_connected(g)
            code, canon = canonical_form(g)
            assert canon == g
            codes.append(code)
        assert codes == sorted(set(codes))
        per_shape = [
            code
            for shape in bicyclic_base_shapes(n)
            for code in list(_classes_by_order(base_graph(shape), n))[-1]
        ]
        assert sorted(per_shape) == codes  # no class comes from two 2-core shapes

    def test_canonizer_calls_at_order_9(self, canonize_calls):
        # the classes are constructed, then each is canonized once; growing
        # them by leaves made 1,270 calls, and 2,545 before the anchors
        # were pruned by orbit and degree
        assert len(bicyclic_classes(9)) == 797
        assert len(canonize_calls) == 797

    def test_sweep_stream_is_the_class_list_of_each_order(self):
        # a sweep chunk walks one 2-core shape through every order up to
        # max_n; its graphs are not canonical, so their codes are compared
        by_order: dict = {}
        for shape in bicyclic_base_shapes(7):
            for g, _ in hung_classes(shape, 7):
                by_order.setdefault(g.order, []).append(_canonize(g)[0])
        assert sorted(by_order) == [4, 5, 6, 7]
        for n, codes in by_order.items():
            assert sorted(codes) == list(bicyclic_classes(n))

    @pytest.mark.parametrize("n", range(4, 11))
    def test_construction_gives_the_leaf_builder_classes(self, n):
        # two routes to the classes of each shape: the construction, with
        # no canonizer, and the leaf builder, which canonizes every graph
        for shape in bicyclic_base_shapes(n):
            *_, grown = _classes_by_order(base_graph(shape), n)
            codes = sorted(_canonize(g)[0] for g, _ in hung_classes(shape, n, n))
            assert codes == sorted(grown), shape  # each class once, none missing

    def test_bicyclic_sweeps_call_no_canonizer(self, monkeypatch):
        def refuse(g):
            raise AssertionError("a sweep canonized a graph")

        monkeypatch.setattr(verification, "_canonize", refuse)
        expected = {"theorem3.1": 984, "corollary2.9": 1272, "lemma2.5": 1312}
        for theorem, count in expected.items():
            report = verify_theorem(theorem, 8)
            assert report.ok and report.instances_checked == count, theorem


class TestConnectedClasses:
    def test_class_counts(self):
        # OEIS A001349, from one build through every order
        levels = _classes_by_order(SignedGraph(1, ()), 7)
        assert [len(level) for level in levels] == [1, 1, 2, 6, 21, 112, 853]

    def test_canonizer_calls_at_order_7(self, canonize_calls):
        # a new vertex with two or more neighbors joins every old leaf, or
        # its class comes from a leaf deletion; canonizing every such join
        # made 7,424 calls
        assert sum(g.order == 7 for g in _connected_classes(7)) == 853
        assert len(canonize_calls) == 5513

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_the_labeled_oracle(self, n):
        expected: dict = {}
        for g in connected_labeled_graphs(n):
            code, canon = canonical_form(g)
            expected.setdefault(code, canon)
        *_, level = _classes_by_order(SignedGraph(1, ()), n)
        assert level == expected

    def test_one_canonical_connected_graph_per_class(self):
        # the sweep stream: every order from K1 up, one build
        graphs = list(_connected_classes(6))
        for g in graphs:
            assert is_connected(g)
            assert canonical_form(g)[1] == g
        assert [g.order for g in graphs] == sorted(g.order for g in graphs)
        assert len(set(graphs)) == len(graphs) == 1 + 1 + 2 + 6 + 21 + 112

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_counts(self, workers):
        # sum over classes of 2^(m-n+1) switching classes each
        for theorem, count in (("theorem2.3", 4532), ("theorem2.4", 4532), ("corollary2.6", 410)):
            report = verify_theorem(theorem, 6, workers=workers)
            assert report.ok
            assert report.instances_checked == count


def _filtered_joins(g: SignedGraph, orbit_reps: tuple[int, ...], leaves_only: bool) -> list:
    """The reference for :func:`_extensions`: g plus a new vertex joined to
    every nonempty set of old vertices, kept by the filter it replaced."""
    n = g.order
    leaves = {v for v in g.vertices() if g.degree(v) == 1}
    kept = []
    for mask in range(1, 2**n):
        join = [v for v in range(n) if mask >> v & 1]
        h = SignedGraph(n + 1, tuple(sorted(g.edges + tuple((v, n, 1) for v in join))))
        if len(join) == 1:
            # an anchor whose new leaf could be the grown graph's canonical
            # position 0: its neighbor has the least degree among the
            # neighbors of the grown graph's leaves
            least = min(h.degree(h.neighbors(x)[0]) for x in h.vertices() if h.degree(x) == 1)
            keep = join[0] in orbit_reps and h.degree(join[0]) == least
        else:
            keep = not leaves_only and leaves <= set(join)
        if keep:
            kept.append(h)
    return kept


class TestExtensions:
    @pytest.mark.parametrize("leaves_only", [False, True])
    def test_matches_the_filter_over_every_join(self, leaves_only):
        # the connected classes to order 6 and the bicyclic ones of orders 4..8
        graphs = list(_connected_classes(6))
        for shape in bicyclic_base_shapes(8):
            for level in _classes_by_order(base_graph(shape), 8):
                graphs += level.values()
        for g in graphs:
            _, canon, orbit_reps = _canonize(g)
            assert canon == g
            grown = sorted(h.edges for h in _extensions(g, orbit_reps, leaves_only))
            expected = sorted(h.edges for h in _filtered_joins(g, orbit_reps, leaves_only))
            assert grown == expected, g


class TestCountingCertificate:
    """n!/|Aut(G)| labelings per class: the sums over a stream's classes of
    each order must give the labeled counts, so no class is missing."""

    @staticmethod
    def _labeled_sums(graphs, weight=lambda g: 1) -> dict[int, int]:
        sums: dict[int, int] = {}
        for g in graphs:
            labelings = factorial(g.order) // automorphism_count(g)
            sums[g.order] = sums.get(g.order, 0) + labelings * weight(g)
        return sums

    def test_connected_stream(self):
        graphs = list(_connected_classes(6))
        labeled = self._labeled_sums(graphs)
        assert [labeled[n] for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]
        # each class has 2^(m-n+1) switching classes on every labeling
        switching = self._labeled_sums(graphs, lambda g: 2 ** (len(g.edges) - g.order + 1))
        assert [switching[n] for n in range(1, 7)] == [1, 1, 5, 78, 3453, 436944]
        assert sum(switching.values()) == 440482  # the instances of the old labeled sweeps

    def test_bicyclic_construction(self):
        # |Aut| comes with each constructed class, with no search; the sums
        # must be Wright's counts of connected labeled graphs with n+1 edges
        labeled: dict[int, int] = {}
        for shape in bicyclic_base_shapes(12):
            for g, automorphisms in hung_classes(shape, 12):
                labeled[g.order] = labeled.get(g.order, 0) + factorial(g.order) // automorphisms
        assert labeled == {n: connected_labeled_count(n, n + 1) for n in range(4, 13)}
        assert [labeled[n] for n in (4, 5, 12)] == [6, 205, 5720327205120]

    def test_bicyclic_automorphism_counts(self):
        for shape in bicyclic_base_shapes(7):
            for g, automorphisms in hung_classes(shape, 7):
                assert automorphisms == automorphism_count(g), g


def _unpruned_catalogs(n: int) -> dict[tuple[int, bool], NullityCatalog]:
    """Every catalog of order n, k = 3..n and both balanced_only values,
    from the full class list: every switching class of every class."""
    hits: dict[tuple[int, bool], list[CatalogEntry]] = {
        (k, balanced): [] for k in range(3, n + 1) for balanced in (False, True)
    }
    for code, canon in bicyclic_classes(n).items():
        c1, c2 = fundamental_cycles(canon)
        edges1, edges2 = ({frozenset(e) for e in zip(c, c[1:] + c[:1])} for c in (c1, c2))
        by_rank: dict[int, list] = {}
        for rep in signature_representatives(canon):
            s1, s2 = cycle_sign(rep, c1), cycle_sign(rep, c2)
            profile = tuple(
                sorted(((len(c1), s1), (len(c2), s2), (len(edges1 ^ edges2), s1 * s2)))
            )
            by_rank.setdefault(n - nullity(rep), []).append((profile, rep, s1 == s2 == 1))
        for (k, balanced), entries in hits.items():
            achieved = [(p, rep) for p, rep, bal in by_rank.get(k, []) if bal or not balanced]
            if achieved:
                profiles = tuple(sorted({p for p, _ in achieved}))
                witness = SignedGraph(n, achieved[0][1].edges)
                entries.append(
                    CatalogEntry(code, bicyclic_base(canon), profiles, len(achieved), witness)
                )
    return {
        (k, balanced): NullityCatalog(n, k, n - k, balanced, tuple(entries))
        for (k, balanced), entries in hits.items()
    }


class TestRankPrunedCatalogs:
    """The catalog build drops a class once every switching class has rank
    above k; no entry may be lost, so it must equal the unpruned catalog."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_the_unpruned_oracle(self, n):
        for (k, balanced), expected in _unpruned_catalogs(n).items():
            catalog = catalog_nullity_classes(n, k, balanced_only=balanced)
            assert documents.dumps(documents.catalog_document(catalog)) == documents.dumps(
                documents.catalog_document(expected)
            ), (n, k, balanced)
            assert catalog == expected

    def test_canonizer_calls_at_order_9(self, canonize_calls):
        # bicyclic_classes(9) takes 1,270 calls (pinned above); the rank test
        # runs before the canonizer, so a dropped graph is never canonized
        assert len(catalog_nullity_classes(9, 4).entries) == 10
        assert len(canonize_calls) == 39

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_keep_changes_nothing_when_k_is_n(self, n, monkeypatch):
        # every order is at most k, so the test never runs a rank
        def no_rank(g):
            raise AssertionError("the keep test ran a rank")

        monkeypatch.setattr(verification, "nullity", no_rank)
        for balanced in (False, True):
            keep = _rank_at_most(n, balanced)
            for shape in bicyclic_base_shapes(n):
                root = base_graph(shape)
                assert list(_classes_by_order(root, n, keep)) == list(
                    _classes_by_order(root, n)
                )

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_top_level_is_the_unpruned_one_cut_to_rank_at_most_k(self, n):
        # one rule at every order above k, the top one included: a class of
        # order n stays exactly when a switching class (the balanced one,
        # all-positive, when balanced_only) has rank at most k
        for shape in bicyclic_base_shapes(n):
            root = base_graph(shape)
            *_, top = _classes_by_order(root, n)
            ranks = {
                code: [
                    (n - nullity(rep), rep.is_all_positive())
                    for rep in signature_representatives(canon)
                ]
                for code, canon in top.items()
            }
            for k in range(3, n + 1):
                for balanced in (False, True):
                    *_, kept = _classes_by_order(root, n, _rank_at_most(k, balanced))
                    expected = {
                        code: canon
                        for code, canon in top.items()
                        if any(r <= k for r, positive in ranks[code] if positive or not balanced)
                    }
                    assert kept == expected, (shape, k, balanced)

    def test_only_kept_graphs_are_canonized(self, canonize_calls):
        catalog_nullity_classes(9, 4)
        keep = _rank_at_most(4, False)
        assert canonize_calls and all(keep(g) for g in canonize_calls)

    def test_high_rank_root_is_dropped_at_once(self, canonize_calls):
        # the bowtie's switching classes have ranks 4 and 5; the bare (2,2,2)
        # theta, K2,3, has rank 2 when balanced and a leaf adds 2 to it
        bowtie = base_graph(("infinity", 3, 3, 1))
        levels = _classes_by_order(bowtie, 8, _rank_at_most(3, False))
        assert [len(level) for level in levels] == [0, 0, 0, 0]
        assert canonize_calls == []
        k23 = base_graph(("theta", 2, 2, 2))
        levels = _classes_by_order(k23, 8, _rank_at_most(3, True))
        assert [len(level) for level in levels] == [1, 0, 0, 0]


class TestCatalogs:
    def test_nullity_n_minus_3_only_at_order_4(self):
        catalog = catalog_nullity_classes(4, 3)
        assert len(catalog.entries) == 1
        entry = catalog.entries[0]
        assert (entry.base.kind, entry.base.p, entry.base.q, entry.base.l) == ("theta", 2, 2, 1)
        # two achieving classes: all-positive (complete tripartite with uniform
        # rows) and both triangles negative; the unbalanced one is unique
        assert entry.achieving_classes == 2
        assert ((3, -1), (3, -1), (4, 1)) in entry.profiles
        assert ((3, 1), (3, 1), (4, 1)) in entry.profiles
        unbalanced = [p for p in entry.profiles if any(s == -1 for _, s in p)]
        assert unbalanced == [((3, -1), (3, -1), (4, 1))]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_no_nullity_n_minus_3_beyond_order_4(self, n):
        assert catalog_nullity_classes(n, 3).entries == ()

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_third_cycle_length_is_read_off_the_base(self, n):
        # a catalog takes the length of the edge-set sum of the two
        # fundamental cycles from the base's three cycle lengths
        for g in bicyclic_classes(n).values():
            c1, c2 = fundamental_cycles(g)
            edges1, edges2 = ({frozenset(e) for e in zip(c, c[1:] + c[:1])} for c in (c1, c2))
            assert len(edges1 ^ edges2) == sum(bicyclic_base(g).cycle_lengths()) - len(c1) - len(c2), g

    def test_entry_witnesses_revalidate(self):
        catalog = catalog_nullity_classes(6, 4)
        assert catalog.nullity == 2
        for entry in catalog.entries:
            # a fresh graph, not a representative sharing its class's table
            assert set(vars(entry.witness)) == {"order", "edges"}
            assert nullity(entry.witness) == 2

    def test_bare_theta321_unbalanced_profile(self):
        # the unique unbalanced signature class reaching nullity n-4 on the
        # bare (3,2,1) theta core has its triangle negative, quadrangle positive
        catalog = catalog_nullity_classes(5, 4)
        bare = [
            e
            for e in catalog.entries
            if (e.base.kind, e.base.p, e.base.q, e.base.l) == ("theta", 3, 2, 1)
            and len(e.base.base_vertices) == 5
        ]
        assert len(bare) == 1
        unbalanced = [p for p in bare[0].profiles if any(s == -1 for _, s in p)]
        assert unbalanced == [((3, -1), (4, 1), (5, -1))]

    def test_balanced_only_filter(self):
        full = catalog_nullity_classes(5, 4)
        balanced = catalog_nullity_classes(5, 4, balanced_only=True)
        assert {e.code for e in balanced.entries} <= {e.code for e in full.entries}
        for entry in balanced.entries:
            assert entry.achieving_classes == 1
            (profile,) = entry.profiles
            assert all(s == 1 for _, s in profile)
            assert entry.witness.is_all_positive()

    def test_deterministic_across_runs_and_workers(self):
        a = catalog_nullity_classes(6, 5)
        b = catalog_nullity_classes(6, 5)
        c = catalog_nullity_classes(6, 5, workers=2)
        assert a == b == c

    def test_bad_parameters_rejected(self):
        with pytest.raises(UsageError):
            catalog_nullity_classes(5, 2)
        with pytest.raises(UsageError):
            catalog_nullity_classes(5, 6)
        with pytest.raises(UsageError):
            catalog_nullity_classes(3, 3)

    @pytest.mark.parametrize("bad", [4.0, Fraction(4), "4", True])
    def test_non_integer_arguments_refused_before_any_work(self, no_chunks, bad):
        with pytest.raises(UsageError, match="k must be an integer"):
            catalog_nullity_classes(6, bad)
        with pytest.raises(UsageError, match="n must be an integer"):
            catalog_nullity_classes(bad, 4)
        with pytest.raises(UsageError, match="workers must be an integer"):
            catalog_nullity_classes(6, 4, workers=bad)
        with pytest.raises(UsageError, match="n must be an integer"):
            bicyclic_classes(bad)

    @pytest.mark.parametrize("bad", ["no", "", None, 1, 0])
    def test_non_bool_balanced_only_refused_before_any_work(self, no_chunks, bad):
        with pytest.raises(UsageError, match="balanced_only must be True or False"):
            catalog_nullity_classes(6, 4, balanced_only=bad)

    def test_numpy_bool_balanced_only_refused(self, no_chunks):
        np = pytest.importorskip("numpy")
        for bad in (np.bool_(True), np.bool_(False)):
            with pytest.raises(UsageError, match="balanced_only must be True or False"):
                catalog_nullity_classes(6, 4, balanced_only=bad)

    def test_bool_balanced_only_keeps_its_bytes(self):
        expected = _unpruned_catalogs(6)
        for balanced in (False, True):
            text = documents.dumps(
                documents.catalog_document(catalog_nullity_classes(6, 5, balanced_only=balanced))
            )
            assert text == documents.dumps(documents.catalog_document(expected[(5, balanced)]))
            assert f'"balanced_only": {str(balanced).lower()},' in text
            if balanced:
                golden = Path(__file__).parent / "golden" / "balanced_nullity_n6_k5.json"
                assert text.encode() == golden.read_bytes()

    def test_integer_like_arguments_give_the_int_document(self):
        catalog = catalog_nullity_classes(IndexOnly(6), IndexOnly(4), workers=IndexOnly(1))
        assert type(catalog.k) is int and type(catalog.nullity) is int
        assert documents.dumps(documents.catalog_document(catalog)) == documents.dumps(
            documents.catalog_document(catalog_nullity_classes(6, 4))
        )

    def test_ceiling_enforced(self, no_chunks):
        with pytest.raises(UsageError, match=r"4 up to 12 \(their ceiling\), got 13"):
            catalog_nullity_classes(13, 4)
        with pytest.raises(UsageError, match="ceiling"):
            bicyclic_classes(13)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_order_9_catalog_matches_golden(self, workers):
        # 186 entries, each with its code, written by the command-line
        # catalog before the class builder pruned its leaf anchors
        golden = (Path(__file__).parent / "golden" / "nullity_n9_k6.json").read_bytes()
        catalog = catalog_nullity_classes(9, 6, workers=workers)
        assert documents.dumps(documents.catalog_document(catalog)).encode() == golden
