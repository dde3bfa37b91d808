"""Generators: labeled trees, bicyclic classes, switching-class representatives."""

from __future__ import annotations

from itertools import product

import pytest

from signed_nullity import (
    SignedGraph,
    bicyclic_base,
    bicyclic_classes,
    build_graph,
    canonical_code,
    is_balanced,
    is_connected,
    signature_representatives,
    switching_equivalent,
)
from signed_nullity.enumeration import (
    _automorphisms,
    _tree_layout,
    base_graph,
    bicyclic_base_shapes,
    hung_classes,
    hung_switching_classes,
    prufer_graph,
    rooted_trees,
)
from signed_nullity.graphs import cycle_sign, fundamental_cycles
from signed_nullity.recognizers import shape_order
from oracles import (
    automorphism_count,
    brute_bicyclic_underlying,
    connected_labeled_graphs,
    cycle_graph,
    path_graph,
)


class TestLabeledTrees:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)]
    )
    def test_cayley_counts(self, n, count):
        # n^(n-2) pairwise distinct trees: every Pruefer code is decoded to its own tree
        trees = [prufer_graph(n, seq).edges for seq in product(range(n), repeat=max(n - 2, 0))]
        assert len(trees) == len(set(trees)) == count

    def test_all_distinct_and_acyclic(self):
        seen = set()
        for seq in product(range(5), repeat=3):
            g = prufer_graph(5, seq)
            assert g.order == 5 and len(g.edges) == 4
            assert is_connected(g)
            assert g.is_all_positive()
            seen.add(g.edges)
        assert len(seen) == 125


class TestBicyclicUnderlying:
    def test_n4_single_class(self):
        classes = {canonical_code(g) for g in bicyclic_classes(4).values()}
        assert len(classes) == 1

    @pytest.mark.parametrize("n,count", [(4, 1), (5, 5), (6, 19)])
    def test_class_counts_match_brute_force(self, n, count):
        brute = {canonical_code(g) for g in brute_bicyclic_underlying(n)}
        gen = {canonical_code(g) for g in bicyclic_classes(n).values()}
        assert gen == brute
        assert len(gen) == count

    def test_every_emitted_graph_is_bicyclic(self):
        for g in bicyclic_classes(6).values():
            assert g.order == 6
            assert len(g.edges) == 7
            assert is_connected(g)
            assert bicyclic_base(g) is not None

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            bicyclic_classes(3)


class TestBaseShapes:
    def test_shape_counts(self):
        counts = [len(bicyclic_base_shapes(n)) for n in range(17)]
        assert counts == [0, 0, 0, 0, 1, 4, 9, 17, 29, 45, 66, 93, 126, 166, 214, 270, 335]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_shapes_of_order_n_are_those_of_the_brute_force_cores(self, n):
        cores = [
            g for g in brute_bicyclic_underlying(n) if all(g.degree(v) >= 2 for v in range(n))
        ]
        found = {(b.kind, b.p, b.q, b.l) for b in map(bicyclic_base, cores)}
        assert set(bicyclic_base_shapes(n)) - set(bicyclic_base_shapes(n - 1)) == found

    def test_base_graphs_classify_as_their_shape(self):
        for shape in bicyclic_base_shapes(16):
            g = base_graph(shape)
            base = bicyclic_base(g)
            assert base is not None
            kind, p, q, l = shape
            assert (base.kind, base.p, base.q, base.l) == (kind, p, q, l), shape

    def test_shape_orders(self):
        for shape in bicyclic_base_shapes(16):
            g = base_graph(shape)
            assert g.order == shape_order(*shape), shape
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
        graphs = [g for n in range(4, 8) for g in bicyclic_classes(n).values()]
        graphs += connected_labeled_graphs(5)
        for g in graphs:
            balanced = [rep for rep in signature_representatives(g) if is_balanced(rep).balanced]
            assert len(balanced) == 1
            assert balanced[0].is_all_positive()

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError, match="connected"):
            list(signature_representatives(g))

    def test_representatives_share_the_sign_free_neighbor_table(self):
        graphs = [g for n in range(4, 8) for g in bicyclic_classes(n).values()]
        graphs += connected_labeled_graphs(5)
        for g in graphs:
            for rep in signature_representatives(g):
                assert rep._sorted_neighbors is g._sorted_neighbors
                assert rep._sorted_neighbors == build_graph(rep.order, rep.edges)._sorted_neighbors


class TestRootedTrees:
    def test_counts_are_oeis_a000081(self):
        counts = [len(trees) for trees in rooted_trees(12)]
        assert counts == [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]

    def test_each_tree_once_and_sorted(self):
        for trees in rooted_trees(9):
            assert trees == sorted(set(trees))
            for tree in trees:
                assert tree == tuple(sorted(tree))

    def test_layout_lists_each_vertex_before_its_parent(self):
        for size, trees in enumerate(rooted_trees(8)):
            for tree in trees:
                parents, _ = _tree_layout(tree)
                assert len(parents) == size - 1
                assert all(v < p <= size - 1 for v, p in enumerate(parents))

    def test_automorphism_counts_match_the_oracle(self):
        # the automorphisms of a rooted tree are those of its graph that fix the root
        for trees in rooted_trees(7):
            for tree in trees:
                parents, count = _tree_layout(tree)
                root = len(parents)
                g = build_graph(root + 1, [(v, p, 1) for v, p in enumerate(parents)])
                assert count == automorphism_count(g, fixed=(root,)), tree


class TestHungClasses:
    def test_core_automorphisms_match_the_oracle(self):
        for shape in bicyclic_base_shapes(8):
            core = base_graph(shape)
            found = _automorphisms(core)
            assert len(set(found)) == len(found) == automorphism_count(core), shape
            edges = {(u, v) for u, v, _ in core.edges}
            for sigma in found:
                assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges

    def test_at_most_12_core_automorphisms_to_order_16(self):
        counts = {shape: len(_automorphisms(base_graph(shape))) for shape in bicyclic_base_shapes(16)}
        assert max(counts.values()) == counts[("theta", 5, 5, 5)] == 12

    def test_graphs_are_labeled_leaves_up_with_the_core_last(self):
        for shape in bicyclic_base_shapes(8):
            core = base_graph(shape)
            k = core.order
            for g, _ in hung_classes(shape, 8):
                t = g.order - k
                assert len(g.edges) == g.order + 1 and is_connected(g)
                assert SignedGraph(g.order, g.edges) == g  # the checks _trusted skips
                assert g.edges[t:] == tuple((t + u, t + v, 1) for u, v, _ in core.edges)
                # every tree vertex has one edge to a later label, its parent
                assert [u for u, _, _ in g.edges[:t]] == list(range(t))


    def test_core_switching_classes_are_one_per_switching_class_to_order_9(self):
        assert _core_switching_classes_against_the_representatives(4, 9) == 1125


def _core_switching_classes_against_the_representatives(min_n: int, max_n: int) -> int:
    """The number of classes of orders min_n..max_n whose switching classes,
    read off the core by :func:`hung_switching_classes`, are the all-positive
    graph first, then one graph for each other pair of fundamental-cycle
    signs, each switching-equivalent to exactly one
    :func:`signature_representatives` graph."""
    classes = 0
    for shape in bicyclic_base_shapes(max_n):
        switching_classes = hung_switching_classes(shape)
        for g, _ in hung_classes(shape, max_n, min_n):
            cycles = fundamental_cycles(g)
            found = list(switching_classes(g))
            assert found[0] == g and g.is_all_positive(), g
            pairs = {tuple(cycle_sign(h, c) for c in cycles) for h in found}
            assert len(pairs) == len(found) == 4, (g, found)
            reps = list(signature_representatives(g))
            for h in found:
                assert sum(switching_equivalent(h, rep) is not None for rep in reps) == 1, (g, h)
            classes += 1
    return classes


class TestConnectedLabeledGraphs:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)])
    def test_known_counts(self, n, count):
        assert sum(1 for _ in connected_labeled_graphs(n)) == count

    def test_all_connected(self):
        for g in connected_labeled_graphs(4):
            assert is_connected(g)

