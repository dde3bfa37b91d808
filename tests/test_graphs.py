"""Core signed-graph operations: construction, switching, balance."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from signed_nullity import (
    SignedGraph,
    adjacency_matrix,
    build_graph,
    canonical_form,
    contract_special_path,
    cycle_sign,
    delete_pendant_pair,
    find_pendants,
    find_special_paths,
    fundamental_cycles,
    induced_subgraph,
    is_balanced,
    is_connected,
    normalize_special_path,
    nullity,
    parse_graph,
    recognize_rank3,
    rewire_special_path,
    serialize_graph,
    signature_representatives,
    switch,
    switching_equivalent,
)
from signed_nullity.enumeration import base_graph, bicyclic_base_shapes, prufer_graph
from signed_nullity.graphs import _spanning_forest
from signed_nullity.verification import _connected_classes, _extensions, _grown, bicyclic_classes
from oracles import IndexOnly, connected_labeled_graphs, cycle_graph, disjoint_union, path_graph


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
        with pytest.raises(ValueError, match="non-negative"):
            SignedGraph(-1, ())
        with pytest.raises(ValueError, match="not normalized"):
            SignedGraph(2, ((1, 0, 1),))

    def test_direct_construction_stores_a_tuple_of_the_checked_edges(self):
        # a generator would be stored used up, a list would leave the graph
        # unhashable and open to later changes, and list-shaped edges would
        # break the sign lookup
        expected = SignedGraph(3, ((0, 1, 1), (1, 2, 1)))
        source = [(0, 1, 1), (1, 2, 1)]
        shaped = [[0, 1, 1], [1, 2, 1]]
        built = [
            SignedGraph(3, ((u, u + 1, 1) for u in range(2))),
            SignedGraph(3, source),
            SignedGraph(3, shaped),
        ]
        source.append((0, 2, -1))
        shaped[0][2] = -1
        for g in built:
            assert g == expected and hash(g) == hash(expected), g
            assert g.edges == ((0, 1, 1), (1, 2, 1)) and type(g.edges) is tuple
            assert all(type(e) is tuple for e in g.edges)
            assert nullity(g) == 1 and g.has_edge(0, 1)


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
        with pytest.raises(ValueError, match="at least 3 vertices"):
            cycle_sign(g, (0, 1))

    def test_repeated_vertex_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="distinct"):
            cycle_sign(g, (0, 1, 0))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_vertex_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            cycle_sign(cycle_graph(5), (bad, 0, 1))


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

    def test_shares_the_sign_free_neighbor_table(self):
        # switching keeps the underlying graph, so the result reuses the
        # input's table, and that table is the one a fresh build gives
        for g in _generated_graphs():
            theta = tuple(-1 if v % 2 else 1 for v in range(g.order))
            for h in (switch(g, theta), g.underlying()):
                assert h._sorted_neighbors is g._sorted_neighbors
                assert h._sorted_neighbors == build_graph(h.order, h.edges)._sorted_neighbors


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
    def test_spanning_forest_gives_the_positions_of_its_non_tree_edges(self):
        # uv is a tree edge exactly when one end is the other's parent; on
        # the path 0-2-1 the child 1 has a lower id than its parent 2
        graphs = [build_graph(3, [(0, 2, 1), (1, 2, 1)]), disjoint_union(cycle_graph(4), cycle_graph(3))]
        for g in graphs + connected_labeled_graphs(5):
            parent, _, non_tree = _spanning_forest(g)
            tree = {(min(v, p), max(v, p)) for v, p in enumerate(parent) if p >= 0}
            assert non_tree == [i for i, (u, v, _) in enumerate(g.edges) if (u, v) not in tree]
            assert len(non_tree) == len(g.edges) - g.order + parent.count(-1)

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
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            induced_subgraph(g, [0, 5])

    @pytest.mark.parametrize("v", [2.0, True, "2"])
    def test_induced_subgraph_refuses_a_non_int_id(self, v):
        g = build_graph(5, [(0, 2, -1), (2, 4, 1), (1, 3, 1)])
        with pytest.raises(ValueError, match=f"vertex {v!r} out of range"):
            induced_subgraph(g, [0, v])

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
        yield from (prufer_graph(n, seq) for seq in product(range(n), repeat=max(n - 2, 0)))
    for g in _connected_classes(5):
        yield g
        yield from (_grown(g, join) for join in _extensions(g, tuple(g.vertices()), leaves_only=False))
    for shape in bicyclic_base_shapes(7):
        yield base_graph(shape)
    for n in (6, 7):
        for g in bicyclic_classes(n).values():
            yield g
            yield from signature_representatives(g)


def _transformed(g):
    """Outputs of every transformation that builds its result unchecked."""
    yield g.underlying()
    yield switch(g, tuple(-1 if v % 3 == 1 else 1 for v in range(g.order)))
    yield induced_subgraph(g, range(0, g.order, 2))
    for v, u in find_pendants(g):
        yield delete_pendant_pair(g, v, u)
    for p in find_special_paths(g):
        h, _ = normalize_special_path(g, p)
        yield contract_special_path(h, p)
        for v in h.neighbors(p.v1):
            if v != p.v2 and not h.has_edge(v, p.v3):
                yield rewire_special_path(h, p, v)


class TestVertexIds:
    # on C5 a negative id used to read vertex order + id: has_edge(-1, 0)
    # was True and neighbors(-2) was (2, 4)
    @pytest.mark.parametrize("bad", [-1, -2, 5, 6])
    def test_every_accessor_rejects_ids_out_of_range(self, bad):
        g = cycle_graph(5)
        accessors = [
            lambda: g.neighbors(bad),
            lambda: g.degree(bad),
            lambda: g.has_edge(bad, 0),
            lambda: g.has_edge(0, bad),
            lambda: g.sign_of(bad, 0),
            lambda: g.sign_of(0, bad),
        ]
        for call in accessors:
            with pytest.raises(ValueError, match="out of range"):
                call()

    def test_ids_in_range_unchanged(self):
        g = cycle_graph(5)
        assert g.neighbors(0) == (1, 4) and g.degree(4) == 2
        assert g.has_edge(4, 0) and not g.has_edge(0, 2)
        assert g.sign_of(0, 4) == 1

    def test_readers_derive_no_table_but_the_neighbor_lists(self):
        # signs are read from the sorted edge tuple, so the sign-free
        # neighbor lists are the only table a graph ever caches
        g = cycle_graph(5, negatives=1)
        assert [g.degree(v) for v in range(5)] == [2] * 5
        assert g.neighbors(0) == (1, 4)
        assert g.has_edge(4, 0) and not g.has_edge(1, 1)
        assert g.sign_of(1, 0) == -1
        assert cycle_sign(g, range(5)) == -1
        assert not is_balanced(g).balanced
        assert not recognize_rank3(g).matches
        assert set(vars(g)) <= {"order", "edges", "_sorted_neighbors"}
        k222 = build_graph(6, [(u, v, 1) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2])
        assert recognize_rank3(k222).matches
        assert set(vars(k222)) <= {"order", "edges", "_sorted_neighbors"}


class TestIntegerIds:
    # each of these was accepted: True equaled 1 but serialized as "True",
    # 1.5 broke nullity with a TypeError, and order 2.0 wrote the header "2.0 1"
    @pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1"])
    def test_build_graph_refuses_an_endpoint_that_is_not_an_integer(self, bad):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            build_graph(3, [(0, bad, 1), (1, 2, 1)])
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            build_graph(3, [(0, 2, 1), (bad, 2, -1)])

    @pytest.mark.parametrize("bad", [True, 2.0, "2", IndexOnly(2)])
    def test_an_order_that_is_not_an_int_is_refused(self, bad):
        with pytest.raises(ValueError, match="order must be a non-negative integer"):
            SignedGraph(bad, ())
        if not isinstance(bad, IndexOnly):
            with pytest.raises(ValueError, match="order must be an integer"):
                build_graph(bad, [])

    @pytest.mark.parametrize("bad", [True, 1.0, "1", IndexOnly(1)])
    def test_the_constructor_takes_python_ints_only(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            SignedGraph(3, ((0, bad, 1),))
        with pytest.raises(ValueError, match="out of range"):
            SignedGraph(3, ((bad, 2, 1),))

    @pytest.mark.parametrize("bad", [True, 1.0, "1", IndexOnly(1)])
    def test_every_accessor_refuses_an_id_that_is_not_an_int(self, bad):
        # sign_of(0, 1.0) used to return 1
        g = cycle_graph(5)
        accessors = [
            lambda: g.neighbors(bad),
            lambda: g.degree(bad),
            lambda: g.has_edge(bad, 0),
            lambda: g.has_edge(0, bad),
            lambda: g.sign_of(bad, 0),
            lambda: g.sign_of(0, bad),
        ]
        for call in accessors:
            with pytest.raises(ValueError, match="out of range"):
                call()

    def test_index_integers_are_stored_as_python_ints(self):
        g = build_graph(IndexOnly(3), [(IndexOnly(2), IndexOnly(0), -1), (1, IndexOnly(2), 1)])
        assert g == build_graph(3, [(0, 2, -1), (1, 2, 1)])
        assert type(g.order) is int and all(type(x) is int for e in g.edges for x in e)
        assert serialize_graph(g) == "3 2\n0 2 -\n1 2 +\n"

    def test_numpy_integers_are_stored_as_python_ints(self):
        np = pytest.importorskip("numpy")
        g = build_graph(np.int64(3), [(np.int64(2), np.int32(0), 1)])
        assert type(g.order) is int and all(type(x) is int for x in g.edges[0][:2])
        assert parse_graph(serialize_graph(g)) == g == build_graph(3, [(0, 2, 1)])
        with pytest.raises(ValueError):
            build_graph(3, [(np.bool_(True), 2, 1)])



class TestIntegerSigns:
    # each of these was accepted: a sign of 1.0 put floats into the matrix
    # that nullity eliminates with floor divisions, and True stood for +1
    @pytest.mark.parametrize("bad", [1.0, -1.0, True, False, "+", 2, 0])
    def test_build_graph_refuses_a_sign_that_is_not_an_int_unit(self, bad):
        with pytest.raises(ValueError, match="edge sign must be the int"):
            build_graph(3, [(0, 1, bad), (1, 2, -1)])

    @pytest.mark.parametrize("bad", [1.0, True, IndexOnly(1)])
    def test_the_constructor_takes_python_int_signs_only(self, bad):
        with pytest.raises(ValueError, match="edge sign must be the int"):
            SignedGraph(2, ((0, 1, bad),))

    @pytest.mark.parametrize("bad", [1.0, -1.0, True, "1"])
    def test_switch_refuses_an_entry_that_is_not_an_int_unit(self, bad):
        with pytest.raises(ValueError, match="edge sign must be the int"):
            switch(cycle_graph(3), (1, bad, 1))

    def test_integer_like_signs_are_stored_as_python_ints(self):
        g = build_graph(3, [(0, 1, IndexOnly(1)), (1, 2, IndexOnly(-1))])
        assert g == build_graph(3, [(0, 1, 1), (1, 2, -1)])
        assert all(type(s) is int for *_, s in g.edges)
        h = switch(g, (IndexOnly(-1), 1, 1))
        assert h == build_graph(3, [(0, 1, -1), (1, 2, -1)])
        assert all(type(s) is int for *_, s in h.edges)

    def test_numpy_signs_are_stored_as_python_ints(self):
        np = pytest.importorskip("numpy")
        g = build_graph(3, [(0, 1, np.int64(1)), (1, 2, np.int8(-1))])
        assert all(type(s) is int for *_, s in g.edges)
        assert serialize_graph(g) == "3 2\n0 1 +\n1 2 -\n"
        assert all(type(s) is int for *_, s in switch(g, np.array([1, -1, 1])).edges)
        with pytest.raises(ValueError, match="edge sign must be the int"):
            build_graph(2, [(0, 1, np.float64(1.0))])
        with pytest.raises(ValueError, match="edge sign must be the int"):
            build_graph(2, [(0, 1, np.bool_(True))])

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
        outputs = (h for g in graphs for h in _transformed(g))
        assert self._assert_valid(outputs) > 5 * len(graphs)

    def test_behaves_like_a_checked_graph(self):
        g = next(signature_representatives(next(iter(bicyclic_classes(5).values()))))
        assert g.degree(0) == build_graph(g.order, g.edges).degree(0)
        assert pickle.loads(pickle.dumps(g)) == g
        with pytest.raises(FrozenInstanceError):
            g.order = 3
