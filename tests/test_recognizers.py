"""Rank-class recognizers, bicyclic base classification, extremal verdicts."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from signed_nullity import (
    BicyclicBase,
    SignedGraph,
    adjacency_matrix,
    bicyclic_base,
    build_graph,
    is_balanced,
    low_rank_neighborhood_check,
    nullity,
    rank,
    recognize_rank2,
    recognize_rank3,
    switch,
    unbalanced_bicyclic_verdict,
)
from signed_nullity.enumeration import bicyclic_base_shapes, hung_classes
from signed_nullity.recognizers import _two_core, shape_order
from oracles import complement_parts, cycle_graph, disjoint_union, path_graph, two_core


def complete_bipartite(a: int, b: int):
    return build_graph(a + b, [(i, a + j, 1) for i in range(a) for j in range(b)])


def doubled_triangle(s_hub=1, s1a=1, s1b=1, s2a=1, s2b=1):
    """theta(2,2,1): hubs 0,1 adjacent, midpoints 2 and 3."""
    return build_graph(
        4, [(0, 1, s_hub), (0, 2, s1a), (1, 2, s1b), (0, 3, s2a), (1, 3, s2b)]
    )


def infinity_two_triangles():
    """Two triangles sharing vertex 0."""
    return build_graph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (3, 4, 1)])


class TestRecognizeRank2:
    def test_balanced_k23_plus_isolated(self):
        g = disjoint_union(complete_bipartite(2, 3), build_graph(2, []))
        verdict = recognize_rank2(g)
        assert verdict.matches
        assert nullity(g) == 7 - 2
        assert sorted(map(sorted, verdict.parts)) == [[0, 1], [2, 3, 4]]

    def test_unbalanced_c4_no_match(self):
        g = cycle_graph(4, 1)
        verdict = recognize_rank2(g)
        assert not verdict.matches
        assert verdict.reason == "unbalanced"
        assert rank(adjacency_matrix(g)) == 4

    def test_edgeless_no_match(self):
        verdict = recognize_rank2(build_graph(3, []))
        assert not verdict.matches
        assert verdict.reason == "edgeless"

    def test_triangle_no_match(self):
        verdict = recognize_rank2(cycle_graph(3))
        assert not verdict.matches
        assert verdict.reason == "not-complete-multipartite"

    def test_certificate_revalidates(self):
        g = switch(complete_bipartite(2, 2), (1, -1, 1, -1))
        verdict = recognize_rank2(g)
        assert verdict.matches
        switched = switch(g, verdict.switching)
        assert all(s == 1 for u, v, s in switched.edges)

    def test_k2_matches(self):
        assert recognize_rank2(build_graph(2, [(0, 1, -1)])).matches


class TestRecognizeRank3:
    def test_positive_triangle_plus_isolated(self):
        g = disjoint_union(cycle_graph(3), build_graph(2, []))
        verdict = recognize_rank3(g)
        assert verdict.matches
        assert rank(adjacency_matrix(g)) == 3

    def test_doubled_triangle_both_unbalanced_matches(self):
        g = doubled_triangle(s1a=-1, s2a=-1)  # both triangles negative
        assert recognize_rank3(g).matches
        assert rank(adjacency_matrix(g)) == 3

    def test_mixed_balance_doubled_triangle_no_match(self):
        g = doubled_triangle(s1a=-1)  # one negative, one positive triangle
        verdict = recognize_rank3(g)
        assert not verdict.matches
        assert verdict.reason == "neighborhood-mismatch"
        assert rank(adjacency_matrix(g)) == 4

    def test_bipartite_no_match(self):
        verdict = recognize_rank3(complete_bipartite(2, 2))
        assert not verdict.matches
        assert verdict.reason == "not-complete-multipartite"

    def test_matches_is_switching_invariant(self):
        g = doubled_triangle()  # balanced, rank 3
        assert recognize_rank3(g).matches
        for theta in itertools.product((1, -1), repeat=4):
            assert recognize_rank3(switch(g, theta)).matches

    def test_neighborhoods_reported_for_reference_vertices(self):
        g = doubled_triangle(s1a=-1, s2a=-1)
        verdict = recognize_rank3(g)
        assert verdict.neighborhoods is not None
        for part, (pos, neg) in zip(verdict.parts, verdict.neighborhoods):
            ref = part[0]
            assert set(pos) == {w for w in g.neighbors(ref) if g.sign_of(ref, w) == 1}
            assert set(neg) == {w for w in g.neighbors(ref) if g.sign_of(ref, w) == -1}


def reference_verdict(g, k):
    """(reason, parts) of a k-partite recognizer, with the parts read from
    complement components and the sign condition from whole matrix rows."""
    support = [v for v in range(g.order) if g.degree(v) > 0]
    if not support:
        return "edgeless", None
    parts = complement_parts(g, support)
    if parts is None or len(parts) != k:
        return "not-complete-multipartite", None
    if k == 2 and not is_balanced(g).balanced:
        return "unbalanced", None
    rows = adjacency_matrix(g)
    if k == 3 and any(rows[u] not in (rows[p[0]], [-x for x in rows[p[0]]]) for p in parts for u in p):
        return "neighborhood-mismatch", None
    return None, tuple(parts)


def assert_matches_reference(g):
    for recognize, k in ((recognize_rank2, 2), (recognize_rank3, 3)):
        verdict = recognize(g)
        assert (verdict.reason, verdict.parts) == reference_verdict(g, k), (g, k)
        assert verdict.matches == (verdict.reason is None)


class TestAgainstComplementComponents:
    def test_every_signed_graph_up_to_order_5(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for m in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, m):
                    for signs in itertools.product((1, -1), repeat=m):
                        edges = tuple((u, v, s) for (u, v), s in zip(chosen, signs))
                        assert_matches_reference(SignedGraph(n, edges))


@st.composite
def near_multipartite_graphs(draw):
    """A complete multipartite graph on two to four parts plus at least one
    isolated vertex, 9 vertices at most, signed by part pair and switched
    (or signed at random), with up to two vertex pairs toggled, relabeled."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda s: sum(s) <= 8))
    support = sum(sizes)
    isolated = draw(st.integers(1, 9 - support))
    part_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    pair_sign = draw(st.lists(st.sampled_from((1, -1)), min_size=16, max_size=16))
    theta = draw(st.lists(st.sampled_from((1, -1)), min_size=support, max_size=support))
    noise = draw(st.booleans())
    adjacency = {}
    for u, v in itertools.combinations(range(support), 2):
        if part_of[u] != part_of[v]:
            s = pair_sign[4 * part_of[u] + part_of[v]] * theta[u] * theta[v]
            adjacency[u, v] = draw(st.sampled_from((1, -1))) if noise else s
    pairs = list(itertools.combinations(range(support), 2))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        if adjacency.pop((u, v), None) is None:
            adjacency[u, v] = 1
    order = support + isolated
    perm = draw(st.permutations(range(order)))
    return build_graph(order, [(perm[u], perm[v], s) for (u, v), s in adjacency.items()])


@settings(max_examples=300, deadline=None)
@given(near_multipartite_graphs())
def test_recognizers_match_complement_components_with_isolated_vertices(g):
    assert_matches_reference(g)


class TestLowRankNeighborhoodCheck:
    def test_balanced_k23_every_vertex(self):
        g = complete_bipartite(2, 3)
        assert all(low_rank_neighborhood_check(g, x) for x in range(5))

    def test_p4_end_vertex_fails(self):
        assert not low_rank_neighborhood_check(path_graph(4), 0)
        assert rank(adjacency_matrix(path_graph(4))) == 4

    def test_triangle_any_vertex(self):
        g = cycle_graph(3)
        assert all(low_rank_neighborhood_check(g, x) for x in range(3))

    def test_isolated_vertex_rejected(self):
        g = disjoint_union(cycle_graph(3), build_graph(1, []))
        with pytest.raises(ValueError, match="isolated"):
            low_rank_neighborhood_check(g, 0)

    @pytest.mark.parametrize("x", [-1, 3, 1.0, True, "1"])
    def test_vertex_out_of_range_rejected(self, x):
        with pytest.raises(ValueError, match=f"vertex {x!r} out of range"):
            low_rank_neighborhood_check(cycle_graph(3), x)


class TestBicyclicBase:
    def test_two_triangles_sharing_vertex(self):
        base = bicyclic_base(infinity_two_triangles())
        assert base is not None
        assert (base.kind, base.p, base.q, base.l) == ("infinity", 3, 3, 1)
        assert base.base_vertices == (0, 1, 2, 3, 4)

    def test_k4_minus_edge_is_theta221(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)])
        base = bicyclic_base(g)
        assert (base.kind, base.p, base.q, base.l) == ("theta", 2, 2, 1)

    def test_unicyclic_is_absent(self):
        assert bicyclic_base(cycle_graph(5)) is None

    def test_disconnected_is_absent(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        assert bicyclic_base(g) is None

    def test_attached_trees_are_stripped(self):
        g = build_graph(
            7,
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1), (1, 4, -1), (4, 5, 1), (4, 6, 1)],
        )
        base = bicyclic_base(g)
        assert (base.kind, base.p, base.q, base.l) == ("theta", 2, 2, 1)
        assert base.base_vertices == (0, 1, 2, 3)

    def test_infinity_with_long_bridge(self):
        # triangles at 0 and 1 joined by the 2-edge path 0-6-1
        g = build_graph(
            7,
            [(0, 2, 1), (0, 3, 1), (2, 3, 1), (1, 4, 1), (1, 5, 1), (4, 5, 1), (0, 6, 1), (1, 6, 1)],
        )
        base = bicyclic_base(g)
        assert (base.kind, base.p, base.q, base.l) == ("infinity", 3, 3, 3)

    def test_theta_parameters_sorted(self):
        edges = [(0, 2, 1), (2, 1, 1), (0, 3, 1), (3, 4, 1), (4, 1, 1), (0, 1, 1)]
        base = bicyclic_base(build_graph(5, edges))
        assert (base.kind, base.p, base.q, base.l) == ("theta", 3, 2, 1)
        assert base.cycle_lengths() == (3, 4, 5)

    def test_cycle_lengths_infinity(self):
        base = bicyclic_base(infinity_two_triangles())
        assert base.cycle_lengths() == (3, 3, 6)

    @pytest.mark.parametrize(
        "kind,p,q,l",
        [("infinity", 2, 3, 1), ("infinity", 4, 3, 1), ("infinity", 3, 3, 0),
         ("theta", 1, 1, 1), ("theta", 2, 3, 1), ("theta", 3, 2, 0), ("star", 3, 3, 1),
         # a document would render these as 3.0 or true
         ("infinity", 3, 3.0, 1), ("infinity", 3, 3, True), ("theta", 3.0, 2, 1), ("theta", 2, 2, True)],
    )
    def test_invalid_parameters_rejected(self, kind, p, q, l):
        with pytest.raises(ValueError, match="invalid|unknown"):
            BicyclicBase(kind, p, q, l, ())
        with pytest.raises(ValueError, match="invalid|unknown"):
            BicyclicBase("theta", 2, 2, 1, ())._replace(kind=kind, p=p, q=q, l=l)

    def test_every_class_to_order_9_round_trips_its_shape(self):
        assert _bicyclic_base_round_trips(4, 9, seed=20120) == {4: 1, 5: 5, 6: 19, 7: 67, 8: 236, 9: 797}

    def test_two_core_is_the_strip_on_random_connected_graphs(self):
        # the strip deletes every vertex of degree at most 1 until none is
        # left, so a tree, K2 included, has an empty core
        rng = random.Random(2012)
        trees = 0
        for _ in range(600):
            n = rng.randint(2, 10)
            pairs = {(rng.randrange(v), v) for v in range(1, n)}  # a random tree
            extra = rng.choice((0, 0, 1, 2, 3, n))
            while len(pairs) < min(n - 1 + extra, n * (n - 1) // 2):
                pairs.add(tuple(sorted(rng.sample(range(n), 2))))
            perm = list(range(n))
            rng.shuffle(perm)
            g = build_graph(n, [(perm[u], perm[v], rng.choice((1, -1))) for u, v in pairs])
            core = _two_core(g)
            assert tuple(core) == two_core(g), g
            if len(pairs) == n - 1:
                assert core == []
                trees += 1
        assert trees > 150

    def test_counts_reconstruct(self):
        g = build_graph(
            7,
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1), (1, 4, -1), (4, 5, 1), (4, 6, 1)],
        )
        base = bicyclic_base(g)
        stripped = g.order - len(base.base_vertices)
        base_edges = len(base.base_vertices) + 1
        assert base_edges + stripped == len(g.edges)


def _bicyclic_base_round_trips(min_n: int, max_n: int, seed: int) -> dict[int, int]:
    """Check ``bicyclic_base`` on every constructed bicyclic class of order
    min_n..max_n.  The construction is the second route: it hangs trees on
    the core of a known shape and gives the core the top labels, so on its
    own labels the base names the shape and those labels, which the
    ``two_core`` oracle finds too.  Relabeled and re-signed at random from
    ``seed``, the graph keeps its shape and the core's new labels.  Returns
    the number of classes of each order."""
    rng = random.Random(seed)
    counts: dict[int, int] = {}
    for shape in bicyclic_base_shapes(max_n):
        k = shape_order(*shape)
        for g, _ in hung_classes(shape, max_n, min_n):
            core = tuple(range(g.order - k, g.order))
            base = bicyclic_base(g)
            assert (base.kind, base.p, base.q, base.l) == shape, (shape, g)
            assert base.base_vertices == two_core(g) == core, (shape, g)
            perm = list(range(g.order))
            rng.shuffle(perm)
            h = build_graph(g.order, [(perm[u], perm[v], rng.choice((1, -1))) for u, v, _ in g.edges])
            base = bicyclic_base(h)
            assert (base.kind, base.p, base.q, base.l) == shape, (shape, h)
            assert base.base_vertices == tuple(sorted(perm[v] for v in core)), (shape, h)
            counts[g.order] = counts.get(g.order, 0) + 1
    return counts


class TestUnbalancedBicyclicVerdict:
    def test_extremal_doubled_triangle(self):
        g = doubled_triangle(s1a=-1, s2a=-1)
        verdict = unbalanced_bicyclic_verdict(g)
        assert verdict.bound_holds and verdict.is_extremal
        assert nullity(g) == g.order - 3

    def test_one_unbalanced_triangle_not_extremal(self):
        g = doubled_triangle(s1a=-1)
        verdict = unbalanced_bicyclic_verdict(g)
        assert verdict.bound_holds and not verdict.is_extremal
        assert nullity(g) < g.order - 3

    def test_infinity_with_one_unbalanced_triangle(self):
        g = build_graph(
            5, [(0, 1, -1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (3, 4, 1)]
        )
        verdict = unbalanced_bicyclic_verdict(g)
        assert verdict.bound_holds and not verdict.is_extremal

    def test_balanced_input_rejected(self):
        with pytest.raises(ValueError, match="balanced"):
            unbalanced_bicyclic_verdict(doubled_triangle())

    def test_non_bicyclic_rejected(self):
        with pytest.raises(ValueError, match="bicyclic"):
            unbalanced_bicyclic_verdict(cycle_graph(4, 1))

    def test_extremal_shape_with_attached_tree_is_not_extremal(self):
        g = build_graph(
            5, [(0, 1, -1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1), (2, 4, 1)]
        )
        # doubled triangle with both triangles negative plus one pendant
        assert not is_balanced_true(g)
        verdict = unbalanced_bicyclic_verdict(g)
        assert verdict.bound_holds
        assert not verdict.is_extremal
        assert nullity(g) < g.order - 3


def is_balanced_true(g):
    from signed_nullity import is_balanced

    return is_balanced(g).balanced
