"""Core signed-graph operations: construction, switching, balance."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest

from signed_nullity import (
    SignedGraph,
    adjacency_matrix,
    bicyclic_underlying,
    build_graph,
    canonical_form,
    contract_special_path,
    cycle_sign,
    delete_pendant_pair,
    disjoint_union,
    find_pendants,
    find_special_paths,
    fundamental_cycles,
    induced_subgraph,
    is_balanced,
    is_connected,
    labeled_trees,
    normalize_special_path,
    rewire_special_path,
    signature_representatives,
    switch,
    switching_equivalent,
)
from signed_nullity.enumeration import base_graph, bicyclic_base_shapes, vertex_extensions
from signed_nullity.verification import _connected_classes, bicyclic_classes
from oracles import connected_labeled_graphs, cycle_graph, path_graph


class TestBuildGraph:
    def test_k2_positive(self):
        g = build_graph(2, [(0, 1, 1)])
        assert g.order == 2
        assert g.edges == ((0, 1, 1),)

    def test_three_isolated_vertices(self):
        g = build_graph(3, [])
        assert g.order == 3
        assert g.edges == ()

    def test_duplicate_edge_rejected_even_with_other_sign(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(3, [(0, 1, 1), (1, 0, -1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(0, 0, 1)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 2, 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            build_graph(2, [(0, 1, 2)])
        # the bad sign sits on a duplicated pair, so sorting must not compare it
        with pytest.raises(ValueError, match="sign"):
            build_graph(2, [(0, 1, 1), (1, 0, "x")])

    def test_normalizes_endpoint_order(self):
        g = build_graph(3, [(2, 0, -1), (1, 0, 1)])
        assert g.edges == ((0, 1, 1), (0, 2, -1))

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError, match="not sorted"):
            SignedGraph(3, ((0, 2, 1), (0, 1, 1)))


class TestAdjacencyMatrix:
    def test_k2_positive(self):
        assert adjacency_matrix(build_graph(2, [(0, 1, 1)])) == [[0, 1], [1, 0]]

    def test_k2_negative(self):
        assert adjacency_matrix(build_graph(2, [(0, 1, -1)])) == [[0, -1], [-1, 0]]

    def test_edgeless(self):
        assert adjacency_matrix(build_graph(3, [])) == [[0] * 3 for _ in range(3)]

    def test_symmetric_zero_diagonal(self):
        g = build_graph(4, [(0, 1, 1), (1, 2, -1), (0, 3, -1)])
        m = adjacency_matrix(g)
        for i in range(4):
            assert m[i][i] == 0
            for j in range(4):
                assert m[i][j] == m[j][i]


class TestCycleSign:
    def test_all_positive_triangle(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert cycle_sign(g, (0, 1, 2)) == 1

    def test_one_negative_edge_triangle(self):
        g = build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        assert cycle_sign(g, (0, 1, 2)) == -1

    def test_two_negative_edges_c4(self):
        g = cycle_graph(4, negatives=2)
        assert cycle_sign(g, (0, 1, 2, 3)) == 1

    def test_non_cycle_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            cycle_sign(g, (0, 1, 3))

    def test_repeated_vertex_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="distinct"):
            cycle_sign(g, (0, 1, 0))


class TestSwitch:
    def test_identity_switching(self):
        g = cycle_graph(5, negatives=2)
        assert switch(g, (1,) * 5) == g

    def test_k2_negative_to_positive(self):
        g = build_graph(2, [(0, 1, -1)])
        assert switch(g, (-1, 1)) == build_graph(2, [(0, 1, 1)])

    def test_c4_two_negatives_to_all_positive(self):
        # negative edges 01 and 12; flipping vertex 1 clears both
        g = build_graph(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1)])
        assert switch(g, (1, -1, 1, 1)).is_all_positive()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            switch(cycle_graph(4), (1, 1, 1))

    def test_involution(self):
        g = cycle_graph(6, negatives=3)
        theta = (1, -1, -1, 1, -1, 1)
        assert switch(switch(g, theta), theta) == g


class TestIsBalanced:
    def test_all_positive_is_balanced_with_trivial_witness(self):
        g = cycle_graph(5)
        w = is_balanced(g)
        assert w.balanced
        assert w.switching == (1,) * 5

    def test_one_negative_triangle_unbalanced_with_that_triangle(self):
        g = build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        w = is_balanced(g)
        assert not w.balanced
        assert sorted(w.negative_cycle) == [0, 1, 2]
        assert cycle_sign(g, w.negative_cycle) == -1

    def test_c4_two_adjacent_negatives_balanced(self):
        g = build_graph(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1)])
        w = is_balanced(g)
        assert w.balanced
        assert w.switching == (1, -1, 1, 1)
        assert switch(g, w.switching).is_all_positive()

    def test_witnesses_always_validate(self):
        for negatives in range(6):
            g = cycle_graph(6, negatives)
            w = is_balanced(g)
            if w.balanced:
                assert switch(g, w.switching).is_all_positive()
            else:
                assert cycle_sign(g, w.negative_cycle) == -1

    def test_disconnected_graph(self):
        g = disjoint_union(cycle_graph(3, 1), cycle_graph(4))
        w = is_balanced(g)
        assert not w.balanced
        assert set(w.negative_cycle) == {0, 1, 2}


class TestFundamentalCycles:
    def test_tree_has_none(self):
        assert fundamental_cycles(path_graph(5)) == []

    def test_c5_single_cycle(self):
        cycles = fundamental_cycles(cycle_graph(5))
        assert len(cycles) == 1
        assert len(cycles[0]) == 5

    def test_theta_221_two_cycles(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)])
        cycles = fundamental_cycles(g)
        assert len(cycles) == 2  # |E| - n + 1 = 5 - 4 + 1

    def test_count_for_disconnected(self):
        g = disjoint_union(cycle_graph(3), path_graph(3))
        assert len(fundamental_cycles(g)) == 1

    def test_each_cycle_closes_in_graph(self):
        g = build_graph(5, [(0, 1, 1), (0, 2, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1), (2, 4, 1)])
        for c in fundamental_cycles(g):
            cycle_sign(g, c)  # validates edge-by-edge


class TestSwitchingEquivalent:
    def test_graph_to_itself(self):
        g = cycle_graph(4, 1)
        assert switching_equivalent(g, g) == (1, 1, 1, 1)

    def test_k2_negative_vs_positive(self):
        # forced on trees up to a global flip; the root always gets +1 here
        g1 = build_graph(2, [(0, 1, -1)])
        g2 = build_graph(2, [(0, 1, 1)])
        theta = switching_equivalent(g1, g2)
        assert theta == (1, -1)
        assert switch(g1, theta) == g2

    def test_unbalanced_vs_balanced_triangle_inequivalent(self):
        g1 = build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        g2 = build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert switching_equivalent(g1, g2) is None

    def test_different_underlying_rejected(self):
        with pytest.raises(ValueError, match="underlying"):
            switching_equivalent(path_graph(3), cycle_graph(3))
        with pytest.raises(ValueError, match="underlying"):  # same edges, one more vertex
            switching_equivalent(path_graph(3), build_graph(4, path_graph(3).edges))

    def test_found_theta_actually_switches(self):
        g1 = cycle_graph(6, 2)
        g2 = cycle_graph(6, 0)
        theta = switching_equivalent(g1, g2)
        assert theta is not None
        assert switch(g1, theta) == g2


class TestHelpers:
    def test_induced_subgraph_relabels_densely(self):
        g = build_graph(5, [(0, 2, -1), (2, 4, 1), (1, 3, 1)])
        h = induced_subgraph(g, [0, 2, 4])
        assert h == build_graph(3, [(0, 1, -1), (1, 2, 1)])

    def test_connectivity(self):
        assert is_connected(cycle_graph(4))
        assert not is_connected(disjoint_union(path_graph(2), path_graph(2)))

    def test_neighbors_ascending_and_complete(self):
        g = build_graph(4, [(3, 1, 1), (2, 0, -1), (1, 0, 1), (3, 0, 1)])
        assert [g.neighbors(v) for v in g.vertices()] == [(1, 2, 3), (0, 3), (0,), (0, 1)]
        for g in connected_labeled_graphs(5):
            for v in g.vertices():
                expected = sorted({u for e in g.edges if v in e[:2] for u in e[:2]} - {v})
                assert g.neighbors(v) == tuple(expected)


def _generated_graphs():
    """Graphs from every generator that builds its output unchecked."""
    for n in (1, 2, 5):
        yield from labeled_trees(n)
    for g in _connected_classes(5):
        yield g
        yield from vertex_extensions(g, 5)
    for shape in bicyclic_base_shapes(7):
        yield base_graph(shape)
    for n in (6, 7):
        for g in bicyclic_underlying(n):
            yield g
            yield from signature_representatives(g)


def _transformed(g, other):
    """Outputs of every transformation that builds its result unchecked."""
    yield g.underlying()
    yield switch(g, tuple(-1 if v % 3 == 1 else 1 for v in range(g.order)))
    yield induced_subgraph(g, range(0, g.order, 2))
    yield disjoint_union(g, other)
    for v, u in find_pendants(g):
        yield delete_pendant_pair(g, v, u)
    for p in find_special_paths(g):
        h, _ = normalize_special_path(g, p)
        yield contract_special_path(h, p)
        for v in h.neighbors(p.v1):
            if v != p.v2 and not h.has_edge(v, p.v3):
                yield rewire_special_path(h, p, v)


class TestUncheckedConstruction:
    """Graphs built inside the package skip the constructor's check, so each
    one must pass the public validating path unchanged."""

    @staticmethod
    def _assert_valid(graphs):
        count = 0
        for g in graphs:
            rebuilt = build_graph(g.order, g.edges)
            assert g == rebuilt and hash(g) == hash(rebuilt)
            count += 1
        return count

    def test_generators(self):
        assert self._assert_valid(_generated_graphs()) > 1000

    def test_canonical_forms_and_classes(self):
        graphs = [SignedGraph(0, ())] + list(_generated_graphs())
        assert self._assert_valid(canonical_form(g)[1] for g in graphs) == len(graphs)
        assert self._assert_valid(bicyclic_classes(6).values()) == 19

    def test_transformations(self):
        graphs = list(_generated_graphs())
        pairs = zip(graphs, graphs[1:] + graphs[:1])
        outputs = (h for g, other in pairs for h in _transformed(g, other))
        assert self._assert_valid(outputs) > 5 * len(graphs)

    def test_behaves_like_a_checked_graph(self):
        g = next(signature_representatives(next(bicyclic_underlying(5))))
        assert g.degree(0) == build_graph(g.order, g.edges).degree(0)
        assert pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(FrozenInstanceError):
            g.order = 3
