"""Exact rank kernel against independent oracles, and the nullity formulas."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from signed_nullity import (
    adjacency_matrix,
    build_graph,
    cycle_nullity_formula,
    forest_nullity_formula,
    matching_number,
    nullity,
    rank,
    reduce,
)
from oracles import (
    IndexOnly,
    brute_matching_number,
    complement_parts,
    connected_components,
    cycle_graph,
    disjoint_union,
    minor_rank,
    path_graph,
    rank_mod2,
    star_graph,
    sympy_rank,
)
from signed_nullity.enumeration import bicyclic_base_shapes, hung_classes
from signed_nullity.rank import _mod2_rank_support
from signed_nullity.verification import _connected_classes


@st.composite
def integer_matrices(draw):
    """Wide, tall and square matrices up to 8x8 with entries in -4..4: half
    of them products A*B of rank at most A's column count, and any of them
    with some columns zeroed."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))

    def block(height, width):
        # zero half the time, so pivots often leave rows untouched
        row = st.lists(st.just(0) | st.integers(-4, 4), min_size=width, max_size=width)
        return draw(st.lists(row, min_size=height, max_size=height))

    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        a, b = block(rows, inner), block(inner, cols)
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    else:
        m = block(rows, cols)
    zeroed = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[0 if j in zeroed else x for j, x in enumerate(row)] for row in m]


class TestRankKernel:
    def test_empty_matrix(self):
        assert rank([]) == 0

    def test_zero_matrix(self):
        assert rank([[0] * 3 for _ in range(3)]) == 0

    def test_identity(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_balanced_c4_rank_two(self):
        assert rank(adjacency_matrix(cycle_graph(4))) == 2

    def test_unbalanced_c4_rank_four(self):
        assert rank(adjacency_matrix(cycle_graph(4, 1))) == 4

    def test_rectangular(self):
        assert rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert rank([[1, 2], [3, 4], [5, 6]]) == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            rank([[1, 2], [3]])

    @pytest.mark.parametrize(
        "m",
        [[[0.5, 1], [1, 3]], [[Fraction(1, 2), 1], [1, 3]], [[1, "a"]], [1, 2]],
        ids=["float", "fraction", "string", "flat"],
    )
    def test_non_integer_entries_rejected(self, m):
        # the true rank of the first two is 2; the exact divisions would
        # truncate their entries and find 1
        with pytest.raises(ValueError, match="integers"):
            rank(m)

    def test_fixed_width_integers_do_not_overflow(self):
        np = pytest.importorskip("numpy")
        h = np.array([[1]], dtype=np.int64)
        for _ in range(5):
            h = np.block([[h, h], [h, -h]])
        # a 32x32 Sylvester-Hadamard matrix; int64 arithmetic would overflow
        assert rank(h) == 32

    def test_needs_column_pivoting(self):
        # first column zero, rank found in later columns
        assert rank([[0, 1, 1], [0, 1, 1], [0, 0, 1]]) == 2
        # two leading zero columns, and a column with no pivot in between
        assert rank([[0, 0, 1, 2], [0, 0, 2, 4], [0, 0, 0, 1]]) == 2
        assert rank([[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 3], [0, 2, 0, 0]]) == 2

    def test_exact_on_entries_that_overflow_floats(self):
        big = 10**30
        m = [[big, big + 1], [big - 1, big]]  # det = 1
        assert rank(m) == 2
        m = [[big, big], [big, big]]
        assert rank(m) == 1

    def test_random_small_matrices_vs_minor_oracle(self):
        rng = random.Random(20240611)
        for _ in range(400):
            n = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(n)]
            if n and not cols:
                m = [[] for _ in range(n)]
            assert rank(m) == minor_rank(m) if (n and cols) else True

    def test_random_adjacency_matrices_vs_sympy(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 10)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        s = rng.choice((1, -1))
                        m[i][j] = s
                        m[j][i] = s
            assert rank(m) == sympy_rank(m)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_matches_both_oracles(self, m):
        # the Laplace oracle is exponential, so it only sees the smaller shapes
        expected = sympy_rank(m)
        assert rank(m) == expected
        if len(m) * len(m[0]) <= 36:
            assert minor_rank(m) == expected

    def test_rank_leaves_its_argument_alone(self):
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert rank(m) == 3
        assert m == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    @pytest.mark.parametrize(
        "m",
        [
            # a signed graph on 6 vertices whose pivots run 1, -1, 2, 2, -2,
            # -4: at the -1 an untouched row only flips sign, so its rescale
            # is skipped; at the first 2 an untouched row is multiplied by 2
            # and divided by -1, and a kernel that never rescales gets the
            # rank wrong
            [
                [0, 0, 0, 0, 1, -1],
                [0, 0, 0, -1, -1, -1],
                [0, 0, 0, 1, 0, 0],
                [0, -1, 1, 0, 0, -1],
                [1, -1, 0, 0, 0, 0],
                [-1, -1, 0, -1, 0, 0],
            ],
            # pivots 1, 2, 2, 2: rows 2 and 3 are untouched by the first 2 and
            # must be doubled, or a later division by 2 truncates
            [[1, -1, 1, 0], [2, 0, 0, -1], [0, 0, 1, 0], [1, -1, 2, 1]],
            # pivots -1, 1, 4: the row [0, 1, -2] is untouched by the -1 and
            # keeps its sign, where Bareiss would negate it
            [[0, 1, -2], [-1, 0, 2], [-2, 0, 0]],
        ],
        ids=["signed-graph", "real-rescale", "sign-only"],
    )
    def test_rescale_branches_at_full_rank(self, m):
        assert rank(m) == minor_rank(m) == len(m)

    def test_permutation_invariance(self):
        rng = random.Random(3)
        m = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        base = rank(m)
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            permuted = [[m[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
            assert rank(permuted) == base


@st.composite
def signed_graphs(draw):
    """A signed graph of order 0..10 with each pair joined at a drawn
    density, 0 among them, so that edgeless graphs of every order occur."""
    n = draw(st.integers(0, 10))
    density = draw(st.sampled_from((0.0, 0.2, 0.4, 0.7)))
    edges = [
        (u, v, draw(st.sampled_from((1, -1))))
        for u in range(n)
        for v in range(u + 1, n)
        if density and draw(st.floats(0, 1)) < density
    ]
    return build_graph(n, edges)


def _with_leaf(m: list[list[int]], u: int) -> list[list[int]]:
    """The adjacency matrix m with a new vertex joined to u alone."""
    unit = [int(v == u) for v in range(len(m))]
    return [row + [x] for row, x in zip(m, unit)] + [unit + [0]]


def _low_by_the_lemma(g) -> bool:
    """Whether the connected graph g is K1 or complete bi- or tripartite.

    Those are exactly the connected graphs of rank at most 2 over GF(2).
    A symmetric matrix with a zero diagonal and rank 2 over GF(2) is
    xy' + yx' for two vectors x and y, so it joins two vertices exactly
    when their labels (x_v, y_v) are distinct and both nonzero; a vertex
    labeled (0, 0) is isolated, and a connected graph has none unless it
    is K1 (rank 0)."""
    parts = complement_parts(g, list(g.vertices()))
    return g.order == 1 or parts is not None and len(parts) in (2, 3)


def _mod2_lemma_on_connected_classes(max_n: int) -> dict[int, int]:
    """Check on every connected class of orders 1..max_n that its rank mod 2
    is at most 2 exactly when :func:`_low_by_the_lemma` says so, and return
    the number of such classes of each order."""
    low: Counter[int] = Counter()
    for g in _connected_classes(max_n):
        rank2 = _mod2_rank_support(g)[0]
        assert (rank2 <= 2) == _low_by_the_lemma(g), g
        low[g.order] += rank2 <= 2
    return dict(low)


@st.composite
def connected_near_multipartite(draw):
    """A connected signed graph of order 1..40: the complete multipartite
    graph on 1 to 5 drawn parts with up to 3 drawn pairs toggled, and its
    components then joined in a chain, so that complete bi- and tripartite
    graphs and graphs an edge or two away from them all occur."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if labels[u] != labels[v]}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        if a != b:
            pairs ^= {(min(a, b), max(a, b))}
    components = connected_components(build_graph(n, [(u, v, 1) for u, v in pairs]))
    pairs |= {(c[0], d[0]) for c, d in zip(components, components[1:])}
    rng = draw(st.randoms(use_true_random=False))
    return build_graph(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])


class TestMod2RankSupport:
    def test_connected_classes_of_rank_at_most_2_to_order_7(self):
        low = _mod2_lemma_on_connected_classes(7)
        assert low == {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 6, 7: 7}
        # floor(n/2) complete bipartite graphs and p3(n) complete tripartite ones
        for n in range(3, 8):
            p3 = sum(1 for a in range(1, n) for b in range(a, n) if n - a - b >= b)
            assert low[n] == n // 2 + p3

    @settings(max_examples=100, deadline=None)
    @given(connected_near_multipartite())
    def test_rank_at_most_2_exactly_on_the_complete_bi_and_tripartite_graphs(self, g):
        rank2 = _mod2_rank_support(g)[0]
        assert rank2 == rank_mod2(adjacency_matrix(g))
        assert (rank2 <= 2) == _low_by_the_lemma(g)

    def test_bicyclic_classes_of_rank_at_most_2_are_k112_and_k23(self):
        low = [
            (g.order, shape, sorted(map(len, complement_parts(g, list(g.vertices())))))
            for shape in bicyclic_base_shapes(12)
            for g, _ in hung_classes(shape, 12)
            if _mod2_rank_support(g)[0] <= 2
        ]
        assert sorted(low) == [(4, ("theta", 2, 2, 1), [1, 1, 2]), (5, ("theta", 2, 2, 2), [2, 3])]

    @settings(max_examples=200, deadline=None)
    @given(signed_graphs())
    def test_a_lower_bound_of_even_parity_raised_by_2_exactly_at_the_support(self, g):
        m = adjacency_matrix(g)
        rank2, raised = _mod2_rank_support(g)
        assert rank2 == rank_mod2(m)
        positive = build_graph(g.order, [(u, v, 1) for u, v, _ in g.edges])
        assert rank2 <= rank(m) and rank2 <= rank(adjacency_matrix(positive))
        assert rank2 % 2 == 0
        for u in range(g.order):
            assert rank_mod2(_with_leaf(m, u)) == rank2 + 2 * (u in raised), u


class TestNullity:
    def test_k2_either_sign(self):
        assert nullity(build_graph(2, [(0, 1, 1)])) == 0
        assert nullity(build_graph(2, [(0, 1, -1)])) == 0

    def test_unbalanced_c6(self):
        assert nullity(cycle_graph(6, 1)) == 2

    def test_extremal_doubled_triangle(self):
        # theta(2,2,1) with both triangles negative: nullity n-3 = 1
        g = build_graph(4, [(0, 1, -1), (0, 2, 1), (0, 3, -1), (1, 2, 1), (2, 3, 1)])
        assert nullity(g) == 1

    def test_edgeless_graph_has_full_nullity(self):
        assert nullity(build_graph(5, [])) == 5

    def test_additive_over_disjoint_union(self):
        g1 = cycle_graph(4)
        g2 = star_graph(3)
        assert nullity(disjoint_union(g1, g2)) == nullity(g1) + nullity(g2)


def _random_tree_edges(rng: random.Random, n: int, keep: float = 1.0) -> list:
    """Signed edges joining each vertex to an earlier one with probability ``keep``."""
    return [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, n) if rng.random() < keep]


class TestLargeInputs:
    """Nullity of graphs with hundreds of vertices, each checked by a second route."""

    @pytest.mark.parametrize("n", [300, 400, 500])
    def test_trees_and_forests_match_the_matching_formula(self, n):
        rng = random.Random(n)
        for keep in (1.0, 0.9):
            g = build_graph(n, _random_tree_edges(rng, n, keep))
            assert nullity(g) == forest_nullity_formula(g)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bicyclic_graph_matches_its_pendant_reduction(self, seed):
        # a random tree on 300 vertices plus two more edges; deleting
        # pendant pairs keeps the nullity
        rng = random.Random(seed)
        n = 300
        edges = _random_tree_edges(rng, n)
        pairs = {(u, v) for u, v, _ in edges}
        while len(edges) < n + 1:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in pairs:
                pairs.add((u, v))
                edges.append((u, v, rng.choice((1, -1))))
        g = build_graph(n, edges)
        residue, trace = reduce(g)
        assert trace.steps
        assert nullity(g) == nullity(residue)


class TestCycleNullityFormula:
    def test_balanced_c4(self):
        assert cycle_nullity_formula(4, balanced=True) == 2

    def test_unbalanced_c6(self):
        assert cycle_nullity_formula(6, balanced=False) == 2

    def test_balanced_c3(self):
        assert cycle_nullity_formula(3, balanced=True) == 0

    def test_short_length_rejected(self):
        with pytest.raises(ValueError):
            cycle_nullity_formula(2, balanced=True)

    @pytest.mark.parametrize(
        "length,balanced",
        [(4, "no"), (4, 1), (4, None), (6.0, False), ("6", False), (True, True), (Fraction(4), True)],
    )
    def test_refuses_a_non_integer_length_or_a_non_bool_balanced(self, length, balanced):
        # each used to give an answer: "no" read as balanced, 6.0 as 6
        with pytest.raises(ValueError):
            cycle_nullity_formula(length, balanced)

    def test_reads_the_length_as_an_index(self):
        # as a numpy integer is read: through __index__
        assert cycle_nullity_formula(IndexOnly(4), True) == 2
        assert cycle_nullity_formula(IndexOnly(6), False) == 2

    @pytest.mark.parametrize("length", range(3, 13))
    def test_agrees_with_kernel_both_classes(self, length):
        assert cycle_nullity_formula(length, True) == nullity(cycle_graph(length))
        assert cycle_nullity_formula(length, False) == nullity(cycle_graph(length, 1))


class TestMatchingNumber:
    def test_edgeless(self):
        assert matching_number(build_graph(4, [])) == 0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_star(self, k):
        assert matching_number(star_graph(k)) == 1

    def test_p4(self):
        assert matching_number(path_graph(4)) == 2  # brute force confirms

    def test_p4_matches_brute_force(self):
        assert brute_matching_number(path_graph(4)) == 2

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            matching_number(cycle_graph(5))
        # K3 + K2 has m = n - 1 edges but still a cycle
        with pytest.raises(ValueError, match="cycle"):
            matching_number(disjoint_union(cycle_graph(3), path_graph(2)))

    def test_random_forests_vs_brute_force(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 8)
            edges = []
            for v in range(1, n):
                if rng.random() < 0.8:  # else v starts a new component
                    edges.append((rng.randint(0, v - 1), v, 1))
            g = build_graph(n, edges)
            assert matching_number(g) == brute_matching_number(g)


class TestForestNullityFormula:
    def test_star_k13(self):
        assert forest_nullity_formula(star_graph(3)) == 2

    def test_p4_any_signs(self):
        g = build_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, -1)])
        assert forest_nullity_formula(g) == 0
        assert nullity(g) == 0

    def test_single_vertex(self):
        assert forest_nullity_formula(build_graph(1, [])) == 1

    def test_agrees_with_kernel_on_random_forests(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 8)
            edges = []
            for v in range(1, n):
                if rng.random() < 0.7:
                    edges.append((rng.randint(0, v - 1), v, rng.choice((1, -1))))
            g = build_graph(n, edges)
            assert forest_nullity_formula(g) == nullity(g)
