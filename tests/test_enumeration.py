"""Generators: labeled trees, bicyclic classes, switching-class representatives."""

from __future__ import annotations

import pytest

from signed_nullity import (
    bicyclic_base,
    bicyclic_underlying,
    build_graph,
    canonical_code,
    is_balanced,
    is_connected,
    labeled_trees,
    signature_representatives,
    switching_equivalent,
)
from signed_nullity.enumeration import (
    CEILING_ENV_VAR,
    base_graph,
    bicyclic_base_shapes,
    check_order,
    enumeration_ceiling,
)
from oracles import brute_bicyclic_underlying, connected_labeled_graphs, cycle_graph, path_graph


class TestLabeledTrees:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_cayley_counts(self, n, count):
        assert sum(1 for _ in labeled_trees(n)) == count

    def test_all_distinct_and_acyclic(self):
        seen = set()
        for g in labeled_trees(5):
            assert g.order == 5 and len(g.edges) == 4
            assert is_connected(g)
            assert g.is_all_positive()
            seen.add(g.edges)
        assert len(seen) == 125

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            list(labeled_trees(0))


class TestBicyclicUnderlying:
    def test_n4_single_class(self):
        classes = {canonical_code(g) for g in bicyclic_underlying(4)}
        assert len(classes) == 1

    @pytest.mark.parametrize("n,count", [(4, 1), (5, 5), (6, 19)])
    def test_class_counts_match_brute_force(self, n, count):
        brute = {canonical_code(g) for g in brute_bicyclic_underlying(n)}
        gen = {canonical_code(g) for g in bicyclic_underlying(n)}
        assert gen == brute
        assert len(gen) == count

    def test_every_emitted_graph_is_bicyclic(self):
        for g in bicyclic_underlying(6):
            assert g.order == 6
            assert len(g.edges) == 7
            assert is_connected(g)
            assert bicyclic_base(g) is not None

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            list(bicyclic_underlying(3))


class TestBaseShapes:
    def test_base_graphs_classify_as_their_shape(self):
        for shape in bicyclic_base_shapes(9):
            g = base_graph(shape)
            base = bicyclic_base(g)
            assert base is not None
            kind, p, q, l = shape
            assert (base.kind, base.p, base.q, base.l) == (kind, p, q, l), shape

    def test_shape_orders(self):
        for shape in bicyclic_base_shapes(8):
            g = base_graph(shape)
            assert len(g.edges) == g.order + 1

    def test_fundamental_cycles_realize_base_cycle_lengths(self):
        from signed_nullity import fundamental_cycles

        for shape in bicyclic_base_shapes(8):
            g = base_graph(shape)
            base = bicyclic_base(g)
            c1, c2 = fundamental_cycles(g)
            edges1 = {frozenset((c1[i], c1[(i + 1) % len(c1)])) for i in range(len(c1))}
            edges2 = {frozenset((c2[i], c2[(i + 1) % len(c2)])) for i in range(len(c2))}
            lengths = sorted((len(c1), len(c2), len(edges1 ^ edges2)))
            assert tuple(lengths) == tuple(sorted(base.cycle_lengths()))


class TestSignatureRepresentatives:
    def test_tree_single_representative(self):
        reps = list(signature_representatives(path_graph(4)))
        assert len(reps) == 1
        assert reps[0].is_all_positive()

    def test_cycle_two_representatives(self):
        reps = list(signature_representatives(cycle_graph(5)))
        assert len(reps) == 2
        balances = sorted(
            sum(1 for _, _, s in g.edges if s == -1) for g in reps
        )
        assert balances == [0, 1]

    def test_bicyclic_four_representatives(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)])
        reps = list(signature_representatives(g))
        assert len(reps) == 4

    def test_pairwise_inequivalent(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        reps = list(signature_representatives(g))
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert switching_equivalent(r1, r2) is None

    def test_every_signature_equivalent_to_exactly_one(self):
        import itertools

        g = cycle_graph(4)
        reps = list(signature_representatives(g))
        for signs in itertools.product((1, -1), repeat=4):
            signed = build_graph(4, [(u, v, s) for (u, v, _), s in zip(g.edges, signs)])
            hits = [r for r in reps if switching_equivalent(signed, r) is not None]
            assert len(hits) == 1

    def test_only_the_all_positive_representative_is_balanced(self):
        # a spanning tree is fixed positive, so the non-tree signs are the
        # fundamental cycle signs: balanced exactly when all are positive
        graphs = [g for n in range(4, 8) for g in bicyclic_underlying(n)]
        graphs += connected_labeled_graphs(5)
        for g in graphs:
            balanced = [rep for rep in signature_representatives(g) if is_balanced(rep).balanced]
            assert len(balanced) == 1
            assert balanced[0].is_all_positive()

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError, match="connected"):
            list(signature_representatives(g))


class TestConnectedLabeledGraphs:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)])
    def test_known_counts(self, n, count):
        assert sum(1 for _ in connected_labeled_graphs(n)) == count

    def test_all_connected(self):
        for g in connected_labeled_graphs(4):
            assert is_connected(g)


class TestCeiling:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
        assert enumeration_ceiling() == 10
        check_order(10)
        with pytest.raises(ValueError, match="ceiling"):
            check_order(11)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "6")
        assert enumeration_ceiling() == 6
        with pytest.raises(ValueError, match="ceiling"):
            check_order(7)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "many")
        with pytest.raises(ValueError, match="integer"):
            enumeration_ceiling()
