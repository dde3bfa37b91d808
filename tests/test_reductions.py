"""Nullity-preserving reductions: pendants, special paths, traces."""

from __future__ import annotations

from itertools import permutations

import pytest

from signed_nullity import (
    SpecialPath,
    bicyclic_classes,
    build_graph,
    canonical_code,
    contract_special_path,
    delete_pendant_pair,
    find_pendants,
    find_special_paths,
    induced_subgraph,
    normalize_special_path,
    nullity,
    reduce,
    rewire_special_path,
    signature_representatives,
    switch,
)
from signed_nullity.reductions import _contract, _delete_pair, is_special_path
from oracles import cycle_graph, path_graph, star_graph


def triangle_with_pendant():
    return build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1)])


def theta(p: int, q: int, l: int):
    """Three internally disjoint paths of edge lengths p, q, l between 0 and 1."""
    edges = []
    nxt = 2
    for length in (p, q, l):
        chain = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        edges.extend((min(a, b), max(a, b), 1) for a, b in zip(chain, chain[1:]))
    return build_graph(nxt, edges)


class TestFindPendants:
    def test_c5_has_none(self):
        assert find_pendants(cycle_graph(5)) == []

    def test_p2_both_ends(self):
        assert find_pendants(path_graph(2)) == [(0, 1), (1, 0)]

    def test_triangle_with_pendant(self):
        assert find_pendants(triangle_with_pendant()) == [(3, 0)]


class TestDeletePendantPair:
    def test_p4_end(self):
        g = path_graph(4)
        h = delete_pendant_pair(g, 0, 1)
        assert h == path_graph(2)
        assert nullity(g) == nullity(h) == 0

    def test_star_leaves_isolated_vertices(self):
        g = star_graph(3)
        h = delete_pendant_pair(g, 1, 0)
        assert h == build_graph(2, [])
        assert nullity(g) == nullity(h) == 2

    def test_triangle_with_pendant(self):
        g = triangle_with_pendant()
        h = delete_pendant_pair(g, 3, 0)
        assert h == build_graph(2, [(0, 1, 1)])
        assert nullity(g) == nullity(h) == 0

    def test_not_a_pendant_rejected(self):
        with pytest.raises(ValueError, match="pendant"):
            delete_pendant_pair(cycle_graph(4), 0, 1)
        with pytest.raises(ValueError, match="pendant"):
            delete_pendant_pair(path_graph(4), 0, 2)  # wrong neighbor


class TestFindSpecialPaths:
    def test_c4_has_none(self):
        assert find_special_paths(cycle_graph(4)) == []

    def test_c6_all_twelve_ordered_triples(self):
        paths = find_special_paths(cycle_graph(6))
        assert len(paths) == 12
        assert SpecialPath(0, 1, 2) in paths
        assert SpecialPath(2, 1, 0) in paths

    def test_theta_221_has_none(self):
        assert find_special_paths(theta(2, 2, 1)) == []

    def test_theta_222_has_none(self):
        # midpoints share the other midpoints as common neighbors
        assert find_special_paths(theta(2, 2, 2)) == []

    def test_sorted_lexicographically(self):
        paths = find_special_paths(cycle_graph(6))
        assert paths == sorted(paths, key=lambda p: (p.v1, p.v2, p.v3))

    def test_every_special_triple_on_every_bicyclic_class_to_order_8(self):
        # each middle vertex is tested in one orientation, which is exact
        # because a path is special exactly when its reverse is
        found = 0
        for n in range(4, 9):
            for g in bicyclic_classes(n).values():
                triples = [SpecialPath(*t) for t in permutations(range(n), 3)]
                special = [p for p in triples if is_special_path(g, p)]
                assert find_special_paths(g) == special, g
                for a, v, b in triples:
                    assert is_special_path(g, SpecialPath(a, v, b)) == is_special_path(g, SpecialPath(b, v, a))
                found += len(special)
        assert found == 652


class TestNormalizeSpecialPath:
    def test_already_normalized_is_identity(self):
        g = build_graph(3, [(0, 1, -1), (1, 2, 1)])
        h, theta = normalize_special_path(g, SpecialPath(0, 1, 2))
        assert theta == (1, 1, 1)
        assert h == g

    def test_plus_plus_flips_v1_only(self):
        g = path_graph(3)
        h, theta = normalize_special_path(g, SpecialPath(0, 1, 2))
        assert theta == (-1, 1, 1)
        assert h.sign_of(0, 1) == -1 and h.sign_of(1, 2) == 1

    def test_minus_minus_flips_v3_only(self):
        g = build_graph(3, [(0, 1, -1), (1, 2, -1)])
        h, theta = normalize_special_path(g, SpecialPath(0, 1, 2))
        assert theta == (1, 1, -1)
        assert h.sign_of(0, 1) == -1 and h.sign_of(1, 2) == 1

    def test_all_four_patterns_reach_target(self):
        for s1 in (1, -1):
            for s2 in (1, -1):
                g = build_graph(5, [(0, 1, s1), (1, 2, s2), (0, 3, 1), (2, 4, -1)])
                h, theta = normalize_special_path(g, SpecialPath(0, 1, 2))
                assert h == switch(g, theta)
                assert h.sign_of(0, 1) == -1 and h.sign_of(1, 2) == 1
                assert nullity(h) == nullity(g)

    def test_non_special_rejected(self):
        with pytest.raises(ValueError, match="special"):
            normalize_special_path(cycle_graph(4), SpecialPath(0, 1, 2))

    @pytest.mark.parametrize("path", [(-1, 0, 1), (1, 0, -1), (3, 4, 5), (5, 0, 1)])
    def test_out_of_range_ids_rejected(self, path):
        # on C5, -1 would wrap around to vertex 4, and (4, 0, 1) is special
        g = cycle_graph(5, 1)
        assert is_special_path(g, SpecialPath(4, 0, 1))
        p = SpecialPath(*path)
        assert not is_special_path(g, p)
        for operation in (normalize_special_path, contract_special_path):
            with pytest.raises(ValueError, match="not a special path"):
                operation(g, p)
        with pytest.raises(ValueError, match="not a special path"):
            rewire_special_path(g, p, 2)


# P5's pendant pairs are (0, 1) and (4, 3); on C5 with its first edge
# negative, (0, 1, 2) is a normalized special path and 4 an eligible neighbor
# of 0.  A float id or a bool is refused, as SignedGraph refuses it, and not
# read as the int it equals.
NON_INT_IDS = {
    "delete, float neighbor": lambda: delete_pendant_pair(path_graph(5), 4, 3.0),
    "delete, float pendant": lambda: delete_pendant_pair(path_graph(5), 4.0, 3),
    "delete, bool neighbor": lambda: delete_pendant_pair(path_graph(5), 0, True),
    "is_special, float": lambda: is_special_path(cycle_graph(5, 1), SpecialPath(0, 1.0, 2)),
    "is_special, bool": lambda: is_special_path(cycle_graph(5, 1), SpecialPath(True, 2, 3)),
    "normalize, float": lambda: normalize_special_path(cycle_graph(5, 1), SpecialPath(0.0, 1, 2)),
    "contract, float": lambda: contract_special_path(cycle_graph(5, 1), SpecialPath(0, 1, 2.0)),
    "rewire, float vertex": lambda: rewire_special_path(cycle_graph(5, 1), SpecialPath(0, 1, 2), 4.0),
    "rewire, float path": lambda: rewire_special_path(cycle_graph(5, 1), SpecialPath(0, 1, 2.0), 4),
}


@pytest.mark.parametrize("call", sorted(NON_INT_IDS))
def test_non_int_ids_refused(call):
    with pytest.raises(ValueError, match="ints"):
        NON_INT_IDS[call]()


# each public special-path function on C5 with its first edge negative, as above
SPECIAL_PATH_CALLS = {
    "is_special_path": lambda p: is_special_path(cycle_graph(5, 1), p),
    "normalize_special_path": lambda p: normalize_special_path(cycle_graph(5, 1), p),
    "contract_special_path": lambda p: contract_special_path(cycle_graph(5, 1), p),
    "rewire_special_path": lambda p: rewire_special_path(cycle_graph(5, 1), p, 4),
}


@pytest.mark.parametrize("call", sorted(SPECIAL_PATH_CALLS))
class TestPathsAsPlainIds:
    def test_three_int_ids_read_as_a_special_path(self, call):
        run = SPECIAL_PATH_CALLS[call]
        assert run((0, 1, 2)) == run([0, 1, 2]) == run(SpecialPath(0, 1, 2))

    @pytest.mark.parametrize(
        "path", [(0, 1), (0, 1, 2, 3), (), 3, None, "012", (0, 1.0, 2), (0, 1, True)], ids=repr
    )
    def test_anything_else_is_refused(self, call, path):
        with pytest.raises(ValueError, match="special path"):
            SPECIAL_PATH_CALLS[call](path)


class TestRewireSpecialPath:
    def test_p5_middle_triple(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1)])
        p = SpecialPath(1, 2, 3)
        eta = nullity(g)
        h = rewire_special_path(g, p, 0)
        assert not h.has_edge(0, 1)
        assert h.sign_of(0, 3) == 1  # carries sign of the removed edge 01
        assert nullity(h) == eta

    def test_c6_rewire_gives_c4_plus_pendant_path(self):
        g = build_graph(6, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (0, 5, 1)])
        p = SpecialPath(0, 1, 2)
        h = rewire_special_path(g, p, 5)
        assert not h.has_edge(0, 5) and h.has_edge(2, 5)
        assert [h.degree(v) for v in range(6)] == [1, 2, 3, 2, 2, 2]
        assert nullity(h) == nullity(g) == 2

    def test_two_triangles_joined_by_path(self):
        # triangles at 0 and 1 joined by the 2-edge path 0-6-1
        g = build_graph(
            7,
            [
                (0, 2, 1), (0, 3, 1), (2, 3, 1),
                (1, 4, 1), (1, 5, 1), (4, 5, 1),
                (0, 6, -1), (1, 6, 1),
            ],
        )
        p = SpecialPath(0, 6, 1)
        assert is_special_path(g, p)
        eta = nullity(g)
        for v in (2, 3):
            h = rewire_special_path(g, p, v)
            assert nullity(h) == eta

    def test_wrong_sign_pattern_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="normalized"):
            rewire_special_path(g, SpecialPath(1, 2, 3), 0)

    def test_ineligible_vertex_rejected(self):
        g = build_graph(5, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1)])
        with pytest.raises(ValueError, match="eligible"):
            rewire_special_path(g, SpecialPath(1, 2, 3), 4)

    def test_out_of_range_vertex_rejected(self):
        # -1 would wrap around to vertex 5, a neighbor of the path's end 0
        g = build_graph(6, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (0, 5, 1)])
        for v in (-1, 6):
            with pytest.raises(ValueError, match="eligible"):
                rewire_special_path(g, SpecialPath(0, 1, 2), v)

    def test_rewire_onto_an_existing_edge_rejected(self):
        # 0 is a neighbor of 1 and of 3, so the edge 0-3 exists and 1-2-3 is
        # not special: a common neighbor of the ends rules out every such rewire
        g = build_graph(5, [(0, 1, 1), (0, 3, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1)])
        with pytest.raises(ValueError, match="not a special path"):
            rewire_special_path(g, SpecialPath(1, 2, 3), 0)


class TestContractSpecialPath:
    def test_lone_p3_contracts_to_isolated_vertex(self):
        g = build_graph(3, [(0, 1, -1), (1, 2, 1)])
        h = contract_special_path(g, SpecialPath(0, 1, 2))
        assert h == build_graph(1, [])
        assert nullity(g) == nullity(h) == 1

    def test_c6_contracts_to_c4(self):
        # the negative edge sits inside the contracted path, so the C4 comes
        # out balanced; nullity 2 is preserved (6 = 2 mod 4, 4 = 0 mod 4)
        g = build_graph(6, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (0, 5, 1)])
        h = contract_special_path(g, SpecialPath(0, 1, 2))
        assert h.order == 4
        assert canonical_code(h) == canonical_code(cycle_graph(4))
        assert nullity(h) == nullity(g) == 2
        assert h.is_all_positive()

    def test_theta223_contracts_to_theta221(self):
        g = theta(2, 2, 3)
        # long path is 0-4-5-1; (0,4,5) is special
        p = SpecialPath(0, 4, 5)
        assert is_special_path(g, p)
        normalized, _ = normalize_special_path(g, p)
        h = contract_special_path(normalized, p)
        assert h.order == 4
        assert canonical_code(h) == canonical_code(theta(2, 2, 1))
        assert nullity(h) == nullity(g)

    def test_merged_vertex_takes_smallest_freed_id_and_signs(self):
        g = build_graph(5, [(0, 3, 1), (1, 2, -1), (2, 3, 1), (3, 4, -1)])
        p = SpecialPath(1, 2, 3)
        h = contract_special_path(g, p)
        # merged vertex becomes 1; old 0 keeps id 0, old 4 becomes 2
        assert h == build_graph(3, [(0, 1, 1), (1, 2, -1)])

    def test_unnormalized_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="normalized"):
            contract_special_path(g, SpecialPath(1, 2, 3))

    def test_non_special_rejected(self):
        with pytest.raises(ValueError, match="not a special path"):
            contract_special_path(cycle_graph(4, 1), SpecialPath(0, 1, 2))

    def test_normalized_copy_shares_the_table_and_builds_no_other(self):
        # the switched copy reads the path's signs from its edge tuple, so
        # checking the path again builds no table of its own
        rep = switch(theta(2, 2, 3), (1, -1, 1, -1, 1, -1))
        for p in find_special_paths(rep):
            normalized, _ = normalize_special_path(rep, p)
            assert normalized._sorted_neighbors is rep._sorted_neighbors
            contract_special_path(normalized, p)
            assert set(vars(normalized)) == {"order", "edges", "_sorted_neighbors"}


def _cores_against_the_public_functions(max_n: int) -> tuple[int, int]:
    """Check ``_delete_pair`` against ``delete_pendant_pair`` and
    ``induced_subgraph``, and ``_contract`` against ``normalize_special_path``
    then ``contract_special_path``, on every pendant pair and special path
    of every switching class of every bicyclic class of order 4..max_n.
    Returns the numbers of deletions and contractions."""
    deletions = contractions = 0
    for n in range(4, max_n + 1):
        for g in bicyclic_classes(n).values():
            pendants, paths = find_pendants(g), find_special_paths(g)
            for rep in signature_representatives(g):
                for v, u in pendants:
                    kept = induced_subgraph(rep, set(range(n)) - {v, u})
                    assert _delete_pair(rep, v, u) == delete_pendant_pair(rep, v, u) == kept, (rep, v, u)
                    deletions += 1
                for p in paths:
                    normalized, _ = normalize_special_path(rep, p)
                    assert _contract(rep, p) == contract_special_path(normalized, p), (rep, p)
                    contractions += 1
    return deletions, contractions


class TestCores:
    """The lemma2.5 sweep runs ``_delete_pair`` and ``_contract`` unchecked,
    on the pendant pairs and special paths it finds on the class graph."""

    def test_equal_the_public_functions_on_every_bicyclic_switching_class_to_order_8(self):
        assert _cores_against_the_public_functions(8) == (2416, 2608)

    def test_the_reversed_contraction_is_the_forward_one_switched_at_the_merged_vertex(self):
        # so the lemma2.5 sweep contracts each special path once, with v1 < v3:
        # a switching keeps the rank
        contractions = 0
        for n in range(4, 10):
            for g in bicyclic_classes(n).values():
                paths = [p for p in find_special_paths(g) if p.v1 < p.v3]
                for rep in signature_representatives(g):
                    for p in paths:
                        theta = [1] * (n - 2)
                        theta[min(p)] = -1
                        reversed_contraction = _contract(rep, SpecialPath(p.v3, p.v2, p.v1))
                        assert reversed_contraction == switch(_contract(rep, p), theta), (rep, p)
                        contractions += 1
        assert contractions == 6060

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_contract_switches_each_path_end_as_normalization_does(self, signs):
        # the ends' other edges carry the flips: 0-3 at v1 = 0, 2-4 at v3 = 2
        g = build_graph(5, [(0, 1, signs[0]), (1, 2, signs[1]), (0, 3, 1), (2, 4, -1)])
        p = SpecialPath(0, 1, 2)
        normalized, theta = normalize_special_path(g, p)
        assert _contract(g, p) == contract_special_path(normalized, p)
        assert _contract(g, p) == build_graph(3, [(0, 1, theta[0]), (0, 2, -theta[2])])


class TestReduce:
    def test_forest_reduces_to_isolated_vertices(self):
        g = build_graph(7, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (4, 5, 1)])
        reduced, trace = reduce(g)
        assert reduced.edges == ()
        assert reduced.order == nullity(g)

    def test_c5_unchanged_empty_trace(self):
        g = cycle_graph(5)
        reduced, trace = reduce(g)
        assert reduced == g
        assert trace.steps == ()

    def test_triangle_with_pendant_two_steps_to_empty(self):
        # first deletion leaves K2, whose ends are themselves pendant
        g = triangle_with_pendant()
        reduced, trace = reduce(g)
        assert [((s.pendant, s.neighbor)) for s in trace.steps] == [(3, 0), (0, 1)]
        assert reduced == build_graph(0, [])
        assert nullity(g) == 0 == reduced.order

    def test_replay_reproduces_result(self):
        g = build_graph(8, [(0, 1, 1), (1, 2, -1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (5, 6, -1), (6, 7, 1)])
        reduced, trace = reduce(g)
        current = g
        for step in trace.steps:
            current = delete_pendant_pair(current, step.pendant, step.neighbor)
        assert current == reduced
        assert nullity(reduced) == nullity(g)

    def test_nullity_invariant_along_trace(self):
        g = build_graph(6, [(0, 1, 1), (0, 2, -1), (0, 3, 1), (3, 4, 1), (4, 5, -1)])
        reduced, _ = reduce(g)
        assert nullity(reduced) == nullity(g)


def _contract_via_rewiring(g, p):
    """Contraction replayed as: rewire every eligible neighbor of v1 across
    the path, then delete the pendant pair (v1, v2).  Returns the result
    relabeled to match contract_special_path's vertex numbering."""
    from signed_nullity import SignedGraph
    from signed_nullity.graphs import compaction_map

    h = g
    for v in sorted(set(g.neighbors(p.v1)) - {p.v2}):
        h = rewire_special_path(h, p, v)
    h = delete_pendant_pair(h, p.v1, p.v2)
    # vertex x of the original maps to compaction over {v1,v2}; in the
    # contraction it maps to compaction over the two larger path ids, with
    # v3 landing on the merged vertex
    merged_old = min(p.v1, p.v2, p.v3)
    contract_map = compaction_map(g.order, {p.v1, p.v2, p.v3} - {merged_old})
    rewire_map = compaction_map(g.order, (p.v1, p.v2))
    translate = {}
    for x in range(g.order):
        if x in (p.v1, p.v2):
            continue
        target = contract_map[merged_old] if x == p.v3 else contract_map[x]
        translate[rewire_map[x]] = target
    edges = sorted(
        (min(translate[u], translate[v]), max(translate[u], translate[v]), s)
        for u, v, s in h.edges
    )
    return SignedGraph(h.order, tuple(edges))


class TestRewireDeleteEqualsContract:
    def test_exact_equality_over_small_bicyclic_enumeration(self):
        from signed_nullity import bicyclic_classes, signature_representatives

        checked = 0
        for n in (5, 6, 7):
            for underlying in bicyclic_classes(n).values():
                paths = find_special_paths(underlying)
                if not paths:
                    continue
                for rep in signature_representatives(underlying):
                    for p in paths:
                        normalized, _ = normalize_special_path(rep, p)
                        direct = contract_special_path(normalized, p)
                        assert _contract_via_rewiring(normalized, p) == direct
                        checked += 1
        assert checked > 100

    def test_corollary_style_equivalence(self):
        # rewiring every eligible neighbor and deleting the pendant pair
        # (v1, v2) matches the contraction up to relabeling
        g = build_graph(
            7,
            [
                (0, 2, 1), (0, 3, 1), (2, 3, 1),
                (1, 4, 1), (1, 5, 1), (4, 5, 1),
                (0, 6, -1), (1, 6, 1),
            ],
        )
        p = SpecialPath(0, 6, 1)
        h = g
        for v in (2, 3):
            h = rewire_special_path(h, p, v)
        assert find_pendants(h) == [(0, 6)]
        via_rewire = delete_pendant_pair(h, 0, 6)
        via_contract = contract_special_path(g, p)
        assert canonical_code(via_rewire) == canonical_code(via_contract)
        assert nullity(via_rewire) == nullity(via_contract) == nullity(g)
