"""Exact rank kernel against independent oracles, and the nullity formulas."""

from __future__ import annotations

import random

import pytest

from signed_nullity import (
    adjacency_matrix,
    build_graph,
    cycle_nullity_formula,
    disjoint_union,
    forest_nullity_formula,
    matching_number,
    nullity,
    rank,
)
from oracles import (
    brute_matching_number,
    cycle_graph,
    minor_rank,
    path_graph,
    star_graph,
    sympy_rank,
)


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

    def test_needs_column_pivoting(self):
        # first column zero, rank found in later columns
        assert rank([[0, 1, 1], [0, 1, 1], [0, 0, 1]]) == 2

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

    def test_permutation_invariance(self):
        rng = random.Random(3)
        m = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        base = rank(m)
        for _ in range(10):
            perm = list(range(6))
            rng.shuffle(perm)
            permuted = [[m[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
            assert rank(permuted) == base


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
