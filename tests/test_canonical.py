"""Canonical codes: isomorphism invariance and separation."""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from signed_nullity import SignedGraph, build_graph, canonical_code, canonical_form
from signed_nullity import canonical
from signed_nullity.canonical import _canonize
from signed_nullity.verification import _connected_classes, bicyclic_classes
from oracles import (
    are_isomorphic,
    automorphism_orbits,
    brute_canonical_form,
    cycle_graph,
    path_graph,
    star_graph,
)
from test_properties import signed_graphs


def random_graph(rng: random.Random, n: int) -> SignedGraph:
    edges = [
        (u, v, rng.choice((1, -1)))
        for u, v in combinations(range(n), 2)
        if rng.random() < 0.45
    ]
    return build_graph(n, edges)


def permuted(g: SignedGraph, perm: list[int]) -> SignedGraph:
    return build_graph(g.order, [(perm[u], perm[v], s) for u, v, s in g.edges])


class TestCanonicalCode:
    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(g) == canonical_code(permuted(g, perm))

    def test_ignores_signs(self):
        g = build_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, -1)])
        assert canonical_code(g) == canonical_code(g.underlying())

    def test_separates_non_isomorphic(self):
        pairs = [
            (path_graph(4), star_graph(3)),
            (cycle_graph(5), path_graph(5)),
            (cycle_graph(6), build_graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])),
        ]
        for g1, g2 in pairs:
            assert canonical_code(g1) != canonical_code(g2)

    def test_agrees_with_isomorphism_oracle_exhaustively(self):
        # every 4-vertex graph: equal codes exactly for isomorphic pairs
        graphs = []
        pairs = list(combinations(range(4), 2))
        for size in range(len(pairs) + 1):
            for chosen in combinations(pairs, size):
                graphs.append(build_graph(4, [(u, v, 1) for u, v in chosen]))
        for g1 in graphs[::3]:
            for g2 in graphs[::4]:
                same_code = canonical_code(g1) == canonical_code(g2)
                assert same_code == are_isomorphic(g1, g2)

    def test_canonical_form_is_a_relabeling(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            code, canon = canonical_form(g)
            assert canon.order == g.order
            assert are_isomorphic(g, canon)
            assert canonical_code(canon) == code
            # idempotent: the canonical graph is its own canonical form
            assert canonical_form(canon)[1] == canon

    def test_empty_graph(self):
        assert canonical_code(build_graph(0, [])) == "0:"


def _relabeled(graphs, seed):
    """Each graph under a seeded random relabeling, so no input is canonical."""
    rng = random.Random(seed)
    for g in graphs:
        perm = list(range(g.order))
        rng.shuffle(perm)
        yield permuted(g, perm)


def _canonizer_against_the_oracles(min_n: int, max_n: int, seed: int) -> int:
    """Check the canonizer on every connected class of order min_n..max_n,
    each under a relabeling drawn from ``seed``: ``canonical_form`` and
    ``_canonize`` give the brute-force code and canonical graph, and the
    orbit representatives are the least vertex of each orbit of the
    canonical graph's automorphisms.  Returns the number of classes."""
    checked = 0
    for h in _relabeled((g for g in _connected_classes(max_n) if g.order >= min_n), seed):
        code, canon, orbit_reps = _canonize(h)
        assert canonical_form(h) == (code, canon) == brute_canonical_form(h), h
        assert orbit_reps == tuple(orbit[0] for orbit in automorphism_orbits(canon)), h
        checked += 1
    return checked


class TestAgainstBruteForce:
    """The search that skips twin swaps finds the same minimum as trying
    every ordering of the refined classes."""

    def test_connected_classes_up_to_order_6(self):
        assert _canonizer_against_the_oracles(1, 6, seed=6) == 1 + 1 + 2 + 6 + 21 + 112

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
    def test_bicyclic_classes(self, n):
        for g in _relabeled(bicyclic_classes(n).values(), seed=n):
            assert canonical_form(g) == brute_canonical_form(g)

    @settings(max_examples=150, deadline=None)
    @given(signed_graphs(max_order=8), st.randoms(use_true_random=False))
    def test_relabeled_random_graphs(self, g, rng):
        perm = list(range(g.order))
        rng.shuffle(perm)
        h = permuted(g, perm)
        assert canonical_form(h) == brute_canonical_form(h) == brute_canonical_form(g)


class TestOrbits:
    """_canonize reports the least vertex of each orbit of Aut(canonical graph)."""

    def test_connected_classes_up_to_order_6(self):
        assert _canonizer_against_the_oracles(1, 6, seed=16) == 1 + 1 + 2 + 6 + 21 + 112

    def test_bicyclic_classes_up_to_order_7(self):
        graphs = [g for n in range(4, 8) for g in bicyclic_classes(n).values()]
        for g in _relabeled(graphs, seed=17):
            code, canon, orbit_reps = _canonize(g)
            assert orbit_reps == tuple(orbit[0] for orbit in automorphism_orbits(canon))

    def test_twins_and_symmetric_graphs(self):
        star = star_graph(5)  # five leaves: false twins
        k4 = build_graph(4, [(u, v, 1) for u, v in combinations(range(4), 2)])  # true twins
        two_paths = build_graph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)])
        for g, orbits in ((star, 2), (k4, 1), (cycle_graph(6), 1), (two_paths, 2), (path_graph(5), 3)):
            code, canon, orbit_reps = _canonize(g)
            assert len(orbit_reps) == orbits
            assert orbit_reps == tuple(orbit[0] for orbit in automorphism_orbits(canon))

    def test_empty_graph(self):
        assert _canonize(build_graph(0, [])) == ("0:", build_graph(0, []), ())


def _cycles(*lengths: int) -> SignedGraph:
    """Disjoint cycles of the given lengths."""
    edges, first = [], 0
    for length in lengths:
        edges += [(first + i, first + (i + 1) % length, 1) for i in range(length)]
        first += length
    return build_graph(first, [(min(u, v), max(u, v), s) for u, v, s in edges])


def _petersen() -> SignedGraph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]  # outer cycle
    edges += [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]  # inner pentagram
    edges += [(i, 5 + i, 1) for i in range(5)]  # spokes
    return build_graph(10, [(min(u, v), max(u, v), s) for u, v, s in edges])


def _cube() -> SignedGraph:
    return build_graph(8, [(u, u | 1 << b, 1) for u in range(8) for b in range(3) if not u >> b & 1])


SYMMETRIC = {
    "C10": lambda: _cycles(10),
    "C20": lambda: _cycles(20),
    "Petersen": _petersen,
    "K5,5": lambda: build_graph(10, [(u, v, 1) for u in range(5) for v in range(5, 10)]),
    "Q3": _cube,
}


class TestSearchBound:
    """The row-by-row search canonizes symmetric graphs in milliseconds;
    canonical_form and canonical_code stop it after MAX_SEARCH_NODES
    placements, and _canonize takes no bound."""

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_symmetric_graphs_canonize_in_milliseconds(self, name):
        g = SYMMETRIC[name]()
        for public in (canonical_form, canonical_code):
            start = time.perf_counter()
            public(g)
            assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("name", sorted(SYMMETRIC))
    def test_relabelings_get_one_code(self, name):
        g = SYMMETRIC[name]()
        code, canon = canonical_form(g)
        for h in _relabeled([g] * 6, seed=len(name)):
            assert canonical_form(h) == (code, canon)

    @pytest.mark.parametrize("name", ["C8", "C9", "Q3"])
    def test_matches_brute_force(self, name):
        g = _cube() if name == "Q3" else _cycles(int(name[1:]))
        (h,) = _relabeled([g], seed=3)
        assert canonical_form(h) == brute_canonical_form(h)

    def test_c8_still_canonizes(self):
        relabeled = permuted(cycle_graph(8), [3, 0, 6, 1, 7, 2, 5, 4])
        assert canonical_code(relabeled) == canonical_code(cycle_graph(8)) == _canonize(cycle_graph(8))[0]

    def test_exploding_ties_fail_fast(self):
        # four disjoint C5s: 240,000 orders tie the least matrix
        g = _cycles(5, 5, 5, 5)
        for public in (canonical_form, canonical_code):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"more than {canonical.MAX_SEARCH_NODES} search nodes"):
                public(g)
            assert time.perf_counter() - start < 0.2

    def test_canonize_takes_no_bound(self, monkeypatch):
        # C20 takes 340 placements; with the public bound at 100 only the
        # public functions refuse it
        c20 = _cycles(20)
        monkeypatch.setattr(canonical, "MAX_SEARCH_NODES", 100)
        for public in (canonical_form, canonical_code):
            with pytest.raises(ValueError, match="more than 100 search nodes"):
                public(c20)
        (relabeled,) = _relabeled([c20], seed=20)
        code, canon, orbit_reps = _canonize(relabeled)
        assert (code, canon, orbit_reps) == _canonize(c20)
        assert orbit_reps == (0,)
