"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the library's own algorithms: rank comes from
Laplace-expansion minors (or sympy's rational elimination for larger
matrices), matchings from subset enumeration, isomorphism from raw
permutation search.
"""

from __future__ import annotations

from itertools import combinations, permutations

from signed_nullity import SignedGraph


def laplace_det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * m[0][j] * laplace_det(minor)
    return total


def minor_rank(m: list[list[int]]) -> int:
    """Largest k with a nonzero k x k minor.  Exponential; keep n small."""
    n = len(m)
    cols = len(m[0]) if m else 0
    for k in range(min(n, cols), 0, -1):
        for rows in combinations(range(n), k):
            for cs in combinations(range(cols), k):
                sub = [[m[i][j] for j in cs] for i in rows]
                if laplace_det(sub) != 0:
                    return k
    return 0


def sympy_rank(m: list[list[int]]) -> int:
    from sympy import Matrix

    if not m:
        return 0
    return Matrix(m).rank()


def brute_matching_number(g: SignedGraph) -> int:
    """Max matching by enumerating all edge subsets."""
    pairs = [(u, v) for u, v, _ in g.edges]
    best = 0
    for size in range(len(pairs), 0, -1):
        if size <= best:
            break
        for subset in combinations(pairs, size):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                best = max(best, size)
                break
    return best


def are_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Underlying-graph isomorphism by permutation search."""
    if g1.order != g2.order or len(g1.edges) != len(g2.edges):
        return False
    target = {frozenset((u, v)) for u, v, _ in g2.edges}
    for perm in permutations(range(g1.order)):
        if all(frozenset((perm[u], perm[v])) in target for u, v, _ in g1.edges) :
            return True
    return False


def _edges_connected(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    """Union-find connectivity of the graph on n vertices with these edges."""
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for u, v in pairs:
        root[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def connected_labeled_graphs(n: int, edge_count: int | None = None) -> list[SignedGraph]:
    """Every connected all-positive graph on n labeled vertices, from raw
    edge subsets; with ``edge_count``, only those with that many edges."""
    all_pairs = list(combinations(range(n), 2))
    counts = range(max(n - 1, 0), len(all_pairs) + 1) if edge_count is None else [edge_count]
    return [
        SignedGraph(n, tuple((u, v, 1) for u, v in pairs))
        for m in counts
        for pairs in combinations(all_pairs, m)
        if _edges_connected(n, pairs)
    ]


def brute_bicyclic_underlying(n: int) -> list[SignedGraph]:
    """Every connected n-vertex graph with n+1 edges, from raw edge subsets."""
    return connected_labeled_graphs(n, n + 1)


def path_graph(n: int, signs: list[int] | None = None) -> SignedGraph:
    signs = signs or [1] * (n - 1)
    return SignedGraph(n, tuple((i, i + 1, s) for i, s in zip(range(n - 1), signs)))


def cycle_graph(n: int, negatives: int = 0) -> SignedGraph:
    """Cycle 0-1-..-(n-1)-0 with the first ``negatives`` edges negative."""
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1, -1 if i < negatives else 1))
    edges.append((0, n - 1, -1 if negatives > n - 1 else 1))
    return SignedGraph(n, tuple(sorted(edges)))


def star_graph(k: int) -> SignedGraph:
    return SignedGraph(k + 1, tuple((0, i, 1) for i in range(1, k + 1)))
