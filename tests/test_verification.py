"""Verification sweeps and catalogs at small orders."""

from __future__ import annotations

import pytest

from signed_nullity import SignedGraph, is_connected, nullity
from signed_nullity.canonical import canonical_form
from signed_nullity.enumeration import bicyclic_base_shapes
from signed_nullity.verification import (
    TheoremReport,
    _classes_by_order,
    _connected_classes,
    _shape_class_edges,
    _shape_classes,
    available_theorems,
    bicyclic_classes,
    bicyclic_underlying,
    catalog_nullity_classes,
    verify_theorem,
)
from oracles import brute_bicyclic_underlying, connected_labeled_graphs


class TestVerifyTheorem:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            verify_theorem("theorem9.9", 5)

    def test_ceiling_enforced(self, monkeypatch):
        monkeypatch.setenv("SIGNED_NULLITY_MAX_N", "6")
        with pytest.raises(ValueError, match="ceiling"):
            verify_theorem("theorem3.1", 7)

    def test_cycle_sweep_not_capped_by_ceiling(self, monkeypatch):
        monkeypatch.setenv("SIGNED_NULLITY_MAX_N", "6")
        report = verify_theorem("lemma2.1ii", 20)
        assert report.ok
        assert report.instances_checked == 36  # lengths 3..20, two classes each

    def test_cycle_sweep_has_its_own_cap(self):
        with pytest.raises(ValueError, match="up to 128"):
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

    def test_pool_never_larger_than_the_chunk_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        report = verify_theorem("lemma2.1ii", 4, workers=8)  # lengths 3 and 4: two chunks
        assert report.instances_checked == 4
        assert len(bicyclic_classes(5, workers=64)) == 5  # four base shapes: four chunks
        assert sizes == [2, 4]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            verify_theorem("lemma2.1ii", 4, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            catalog_nullity_classes(4, 3, workers=workers)

    def test_report_shape(self):
        report = verify_theorem("theorem3.1", 5)
        assert isinstance(report, TheoremReport)
        assert report.elapsed >= 0
        assert report.instances_checked > 0

    def test_slow_range_warns(self):
        with pytest.warns(UserWarning, match="beyond the fast range"):
            verify_theorem("corollary2.9", 9)

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
        for underlying in (*bicyclic_underlying(6), *bicyclic_underlying(7)):
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
                    from signed_nullity.graphs import connected_components

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
        monkeypatch.setattr(verification, "nullity", lambda g: g.order)
        report = verify_theorem("lemma2.1i", 5)
        assert report.instances_checked == clean.instances_checked
        assert len(report.violations) == report.instances_checked - 1
        keys = [(v.order, v.witness, v.detail) for v in report.violations]
        assert keys == sorted(keys)
        for v in report.violations:
            assert parse_graph(v.witness).order == v.order

    def test_listing_covers_all_ids(self):
        ids = [key for key, _ in available_theorems()]
        assert ids == sorted(ids)
        assert "theorem3.1" in ids and "lemma2.5" in ids


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
        for g in bicyclic_underlying(n):
            assert g.order == n and len(g.edges) == n + 1
            assert is_connected(g)
            code, canon = canonical_form(g)
            assert canon == g
            codes.append(code)
        assert codes == sorted(set(codes))
        per_shape = [
            code for shape in bicyclic_base_shapes(n) for code, _ in _shape_class_edges((shape, n))
        ]
        assert sorted(per_shape) == codes  # no class comes from two 2-core shapes

    def test_sweep_stream_is_the_class_list_of_each_order(self):
        # a sweep chunk walks one 2-core shape through every order up to max_n
        by_order: dict = {}
        for shape in bicyclic_base_shapes(7):
            for g in _shape_classes(shape, 7):
                by_order.setdefault(g.order, []).append(g)
        assert sorted(by_order) == [4, 5, 6, 7]
        for n, graphs in by_order.items():
            classes = bicyclic_classes(n)
            assert len(graphs) == len(classes)
            assert set(graphs) == set(classes.values())

    def test_parallel_identical(self):
        assert bicyclic_classes(6) == bicyclic_classes(6, workers=2)


class TestConnectedClasses:
    def test_class_counts(self):
        # OEIS A001349, from one build through every order
        levels = _classes_by_order(SignedGraph(1, ()), 7, 7)
        assert [len(level) for level in levels] == [1, 1, 2, 6, 21, 112, 853]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_the_labeled_oracle(self, n):
        expected: dict = {}
        for g in connected_labeled_graphs(n):
            code, canon = canonical_form(g)
            expected.setdefault(code, canon)
        *_, level = _classes_by_order(SignedGraph(1, ()), n, n)
        assert level == expected

    def test_one_canonical_connected_graph_per_class(self):
        graphs = list(_connected_classes(6))
        for g in graphs:
            assert g.order == 6 and is_connected(g)
            assert canonical_form(g)[1] == g
        assert len(set(graphs)) == len(graphs) == 112

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_counts(self, workers):
        # sum over classes of 2^(m-n+1) switching classes each
        for theorem, count in (("theorem2.3", 4532), ("theorem2.4", 4532), ("corollary2.6", 410)):
            report = verify_theorem(theorem, 6, workers=workers)
            assert report.ok
            assert report.instances_checked == count


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

    def test_entry_witnesses_revalidate(self):
        catalog = catalog_nullity_classes(6, 4)
        assert catalog.nullity == 2
        for entry in catalog.entries:
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
        with pytest.raises(ValueError):
            catalog_nullity_classes(5, 2)
        with pytest.raises(ValueError):
            catalog_nullity_classes(5, 6)
        with pytest.raises(ValueError):
            catalog_nullity_classes(3, 3)

    def test_ceiling_enforced(self, monkeypatch):
        monkeypatch.setenv("SIGNED_NULLITY_MAX_N", "5")
        with pytest.raises(ValueError, match="ceiling"):
            catalog_nullity_classes(6, 4)
