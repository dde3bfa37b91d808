"""Property-based invariants over random signed graphs."""

from __future__ import annotations

from collections import Counter
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from signed_nullity import (
    SpecialPath,
    adjacency_matrix,
    build_graph,
    canonical_code,
    canonical_form,
    cycle_sign,
    delete_pendant_pair,
    find_pendants,
    find_special_paths,
    contract_special_path,
    fundamental_cycles,
    induced_subgraph,
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
    rewire_special_path,
    serialize_graph,
    signature_representatives,
    switch,
    switching_equivalent,
)
from signed_nullity.rank import _bordered_rank, _eliminate, _null_supports
from signed_nullity.reductions import is_special_path
from oracles import IndexOnly, disjoint_union


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


def _derived(g, theta):
    """g and graphs the package derives from it, most of them built unchecked."""
    yield g
    yield switch(g, theta)
    yield g.underlying()
    yield induced_subgraph(g, range(0, g.order, 2))
    yield canonical_form(g)[1]
    for p in find_special_paths(g)[:2]:
        normalized, _ = normalize_special_path(g, p)
        yield contract_special_path(normalized, p)
        for v in normalized.neighbors(p.v1):
            if v != p.v2:
                yield rewire_special_path(normalized, p, v)
    if is_connected(g):
        yield from islice(signature_representatives(g), 4)


@st.composite
def derived_graphs(draw):
    g = draw(signed_graphs(max_order=9))
    theta = tuple(draw(st.sampled_from((1, -1))) for _ in range(g.order))
    return list(_derived(g, theta))


@settings(max_examples=60, deadline=None)
@given(derived_graphs())
def test_edge_readers_agree_with_the_adjacency_matrix(graphs):
    # signs are bisected out of the edge tuple, which must stay sorted
    for h in graphs:
        pairs = [e[:2] for e in h.edges]
        assert pairs == sorted(set(pairs)) and all(u < v for u, v in pairs)
        m = adjacency_matrix(h)
        for u in range(h.order):
            for v in range(h.order):
                assert h.has_edge(u, v) == (m[u][v] != 0)
                if m[u][v]:
                    assert h.sign_of(u, v) == m[u][v]
                else:
                    with pytest.raises(ValueError, match="no edge"):
                        h.sign_of(u, v)


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


@st.composite
def signed_bipartite_graphs(draw, max_order=12):
    """A signed graph with every edge between two drawn sides, connected or not."""
    n = draw(st.integers(1, max_order))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = [
        (u, v, draw(st.sampled_from((1, -1))))
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and draw(st.booleans())
    ]
    return build_graph(n, edges), side


@settings(max_examples=100, deadline=None)
@given(signed_bipartite_graphs())
def test_bipartite_rank_is_twice_the_biadjacency_rank(pair):
    # up to a permutation the adjacency matrix is [[0, B], [B^T, 0]]
    g, side = pair
    a = adjacency_matrix(g)
    xs = [v for v in range(g.order) if not side[v]]
    ys = [v for v in range(g.order) if side[v]]
    assert rank(a) == 2 * rank([[a[x][y] for y in ys] for x in xs])


@st.composite
def integer_matrices(draw, max_size=10, square=False):
    """An integer matrix with entries in -3..3 and up to 10 rows and columns,
    as many of each when ``square``, some rows and columns copied, negated
    or zeroed so that it drops rank."""
    rows = draw(st.integers(1, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    entry = st.integers(-3, 3)
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.sampled_from((1, -1, 0)))
        if draw(st.booleans()):
            target, source = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            m[target] = [factor * x for x in m[source]]
        else:
            target, source = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
            for row in m:
                row[target] = factor * row[source]
    return m


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
def test_null_supports_mark_the_unit_rows_and_columns_that_raise_the_rank(m):
    # rank [m; e_j] = rank m + [e_j outside the row space, the null space's complement]
    copy = [row[:] for row in m]
    base, left, right = _null_supports(m)
    assert m == copy
    assert base == _eliminate([row[:] for row in m]), m
    for matrix, support in ((m, right), ([list(col) for col in zip(*m)], left)):
        cols = len(matrix[0])
        assert support <= set(range(cols))
        for j in range(cols):
            unit = [int(k == j) for k in range(cols)]
            grown = _eliminate([row[:] for row in matrix] + [unit])
            assert grown == base + (j in support), (matrix, j, support)


@settings(max_examples=300, deadline=None)
@given(integer_matrices(square=True))
def test_bordered_rank_is_the_rank_of_the_bordered_matrix(m):
    # bordering by the unit row and column e_u, with a 0 corner, hangs a leaf
    # at u; the minor identity holds for any square matrix, symmetric or not
    n = len(m)
    copy = [row[:] for row in m]
    for u in range(n):
        unit = [int(v == u) for v in range(n)]
        bordered = [row + [x] for row, x in zip(m, unit)] + [unit + [0]]
        assert _bordered_rank(m, u) == _eliminate(bordered), (m, u)
        assert m == copy  # the minor is taken from a copy


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


# values that only look like a vertex id or an order
_NOT_INTEGERS = st.one_of(
    st.booleans(), st.integers(0, 8).map(float), st.floats(allow_nan=False), st.integers(0, 8).map(str)
)


@st.composite
def loose_graph_inputs(draw):
    """A graph, and an order and edge list that describe it as a caller may:
    endpoints in either order, some ids as index-only integers, and maybe
    one id or the order replaced by a value that is not an integer."""
    g = draw(signed_graphs(max_order=6))
    edges = []
    for u, v, s in g.edges:
        ends = [v, u] if draw(st.booleans()) else [u, v]
        edges.append([IndexOnly(x) if draw(st.booleans()) else x for x in ends] + [s])
    order = IndexOnly(g.order) if draw(st.booleans()) else g.order
    loose = draw(st.none() | st.tuples(st.integers(0, 2 * len(edges)), _NOT_INTEGERS))
    if loose is not None:
        slot, value = loose
        if slot == 0:
            order = value
        else:
            edges[(slot - 1) // 2][(slot - 1) % 2] = value
    return g, order, [tuple(e) for e in edges], loose is not None


@settings(max_examples=200, deadline=None)
@given(loose_graph_inputs())
def test_build_graph_accepts_integer_ids_only_and_its_graphs_round_trip(case):
    g, order, edges, loose = case
    if loose:
        with pytest.raises(ValueError):
            build_graph(order, edges)
        return
    h = build_graph(order, edges)
    text = serialize_graph(h)
    # equal graphs serialize to the same text, which parses back to them
    assert h == g and text == serialize_graph(g)
    assert parse_graph(text) == h


@settings(max_examples=150, deadline=None)
@given(signed_graphs())
def test_special_paths_are_every_special_ordered_triple(g):
    triples = [SpecialPath(*t) for t in permutations(range(g.order), 3)]
    assert find_special_paths(g) == [p for p in triples if is_special_path(g, p)]
    for a, v, b in triples:
        assert is_special_path(g, SpecialPath(a, v, b)) == is_special_path(g, SpecialPath(b, v, a))


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
