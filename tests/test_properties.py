"""Property-based invariants over random signed graphs."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from signed_nullity import (
    adjacency_matrix,
    build_graph,
    canonical_code,
    cycle_sign,
    delete_pendant_pair,
    disjoint_union,
    find_pendants,
    find_special_paths,
    contract_special_path,
    fundamental_cycles,
    is_balanced,
    is_connected,
    low_rank_neighborhood_check,
    normalize_special_path,
    nullity,
    parse_graph,
    rank,
    recognize_rank2,
    recognize_rank3,
    reduce,
    serialize_graph,
    signature_representatives,
    switch,
    switching_equivalent,
)


@st.composite
def signed_graphs(draw, min_order=1, max_order=8):
    n = draw(st.integers(min_order, max_order))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            present = draw(st.booleans())
            if present:
                edges.append((u, v, draw(st.sampled_from((1, -1)))))
    return build_graph(n, edges)


@st.composite
def graphs_with_switchings(draw):
    g = draw(signed_graphs())
    theta = tuple(draw(st.sampled_from((1, -1))) for _ in range(g.order))
    return g, theta


@settings(max_examples=120, deadline=None)
@given(graphs_with_switchings())
def test_switching_is_an_involution(pair):
    g, theta = pair
    assert switch(switch(g, theta), theta) == g


@settings(max_examples=120, deadline=None)
@given(graphs_with_switchings())
def test_switching_preserves_fundamental_cycle_signs(pair):
    g, theta = pair
    before = Counter(cycle_sign(g, c) for c in fundamental_cycles(g))
    switched = switch(g, theta)
    after = Counter(cycle_sign(switched, c) for c in fundamental_cycles(switched))
    assert before == after


@settings(max_examples=80, deadline=None)
@given(graphs_with_switchings())
def test_switching_preserves_rank_and_balance(pair):
    g, theta = pair
    switched = switch(g, theta)
    assert rank(adjacency_matrix(switched)) == rank(adjacency_matrix(g))
    assert is_balanced(switched).balanced == is_balanced(g).balanced


@settings(max_examples=150, deadline=None)
@given(signed_graphs())
def test_balance_witness_always_validates(g):
    witness = is_balanced(g)
    if witness.balanced:
        assert switch(g, witness.switching).is_all_positive()
        assert all(cycle_sign(g, c) == 1 for c in fundamental_cycles(g))
    else:
        assert cycle_sign(g, witness.negative_cycle) == -1


@settings(max_examples=150, deadline=None)
@given(signed_graphs())
def test_adjacency_symmetric_with_zero_diagonal(g):
    m = adjacency_matrix(g)
    for i in range(g.order):
        assert m[i][i] == 0
        for j in range(g.order):
            assert m[i][j] == m[j][i]
            assert m[i][j] in (-1, 0, 1)


@settings(max_examples=80, deadline=None)
@given(signed_graphs(max_order=6), signed_graphs(max_order=6))
def test_nullity_additive_over_disjoint_union(g1, g2):
    assert nullity(disjoint_union(g1, g2)) == nullity(g1) + nullity(g2)


@settings(max_examples=120, deadline=None)
@given(signed_graphs())
def test_nullity_bounds(g):
    eta = nullity(g)
    assert 0 <= eta <= g.order
    assert (eta == g.order) == (not g.edges)
    if g.edges:
        assert eta <= g.order - 2


@settings(max_examples=150, deadline=None)
@given(signed_graphs())
def test_graph_file_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(signed_graphs(max_order=6))
def test_canonical_code_blind_to_signs_and_labels(g):
    assert canonical_code(g) == canonical_code(g.underlying())


@settings(max_examples=50, deadline=None)
@given(signed_graphs(min_order=2, max_order=6))
def test_representatives_partition_the_switching_classes(g):
    if not is_connected(g):
        return
    reps = list(signature_representatives(g))
    assert len(reps) == 2 ** (len(g.edges) - g.order + 1)
    # the input's own signature belongs to exactly one representative class
    hits = [r for r in reps if switching_equivalent(g, r) is not None]
    assert len(hits) == 1


@settings(max_examples=80, deadline=None)
@given(signed_graphs(min_order=2))
def test_pendant_deletion_preserves_nullity(g):
    for v, u in find_pendants(g):
        assert nullity(delete_pendant_pair(g, v, u)) == nullity(g)


@settings(max_examples=80, deadline=None)
@given(signed_graphs(min_order=3))
def test_special_path_contraction_preserves_nullity(g):
    eta = nullity(g)
    for p in find_special_paths(g):
        normalized, theta = normalize_special_path(g, p)
        assert switch(g, theta) == normalized
        assert nullity(contract_special_path(normalized, p)) == eta


@settings(max_examples=80, deadline=None)
@given(signed_graphs())
def test_reduce_preserves_nullity_and_clears_pendants(g):
    reduced, trace = reduce(g)
    assert nullity(reduced) == nullity(g)
    assert not find_pendants(reduced)


@settings(max_examples=60, deadline=None)
@given(graphs_with_switchings())
def test_recognizer_verdicts_are_switching_invariant(pair):
    g, theta = pair
    switched = switch(g, theta)
    assert recognize_rank2(g).matches == recognize_rank2(switched).matches
    assert recognize_rank3(g).matches == recognize_rank3(switched).matches


@st.composite
def graphs_with_relabelings(draw):
    g = draw(signed_graphs())
    return g, draw(st.permutations(range(g.order)))


@settings(max_examples=60, deadline=None)
@given(graphs_with_relabelings())
def test_recognizer_verdicts_are_relabeling_invariant(pair):
    # the connected sweeps check one graph per isomorphism class
    g, perm = pair
    relabeled = build_graph(g.order, [(perm[u], perm[v], s) for u, v, s in g.edges])
    assert recognize_rank2(g).matches == recognize_rank2(relabeled).matches
    assert recognize_rank3(g).matches == recognize_rank3(relabeled).matches
    if all(g.degree(v) for v in range(g.order)):  # the split check needs no isolated vertex
        for x in range(g.order):
            same = low_rank_neighborhood_check(relabeled, perm[x])
            assert low_rank_neighborhood_check(g, x) == same


@settings(max_examples=60, deadline=None)
@given(signed_graphs(max_order=7))
def test_recognizers_agree_with_kernel(g):
    r = rank(adjacency_matrix(g))
    verdict2 = recognize_rank2(g)
    assert verdict2.matches == (r == 2)
    assert recognize_rank3(g).matches == (r == 3)
    if verdict2.matches:
        # certificate revalidates: the switching clears every sign and the
        # parts partition the non-isolated vertices of a complete bipartite part
        switched = switch(g, verdict2.switching)
        assert switched.is_all_positive()
        left, right = verdict2.parts
        support = {v for v in range(g.order) if g.degree(v) > 0}
        assert set(left) | set(right) == support
        assert all(g.has_edge(u, v) for u in left for v in right)
