"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the library's own algorithms: rank comes from
Laplace-expansion minors (or sympy's rational elimination for larger
matrices), rank mod 2 from row reduction on lists of 0s and 1s, matchings
from subset enumeration, isomorphism, automorphisms and canonical forms
from raw permutation search (automorphisms among the permutations that
keep degrees), multipartite parts from complement components, connected
components from a plain traversal of the edge list.  ``disjoint_union``
builds disconnected inputs through the checked constructor, and
``IndexOnly`` stands in for a numpy integer as a test input.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from math import comb

from signed_nullity import SignedGraph
from signed_nullity.canonical import _refined_classes


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


def rank_mod2(m: list[list[int]]) -> int:
    """Rank over GF(2) by row echelon reduction on lists of 0s and 1s."""
    rows = [[x % 2 for x in row] for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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


def _degree_preserving_permutations(g: SignedGraph):
    """Every vertex permutation that keeps each vertex's degree, read off
    ``g.edges``: the product of the permutations of each degree class.  An
    automorphism keeps degrees, so these are the only candidates."""
    degree = [0] * g.order
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    classes: dict[int, list[int]] = {}
    for v, d in enumerate(degree):
        classes.setdefault(d, []).append(v)
    blocks = list(classes.values())
    perm = list(range(g.order))
    for arrangement in product(*(permutations(block) for block in blocks)):
        for block, images in zip(blocks, arrangement):
            for v, w in zip(block, images):
                perm[v] = w
        yield perm


def automorphism_count(g: SignedGraph, fixed: tuple[int, ...] = ()) -> int:
    """Number of vertex permutations that map the underlying edge set onto
    itself and fix each vertex of ``fixed``."""
    edges = {frozenset((u, v)) for u, v, _ in g.edges}
    return sum(
        all(frozenset((perm[u], perm[v])) in edges for u, v, _ in g.edges)
        for perm in _degree_preserving_permutations(g)
        if all(perm[v] == v for v in fixed)
    )


def brute_canonical_form(g: SignedGraph) -> tuple[str, SignedGraph]:
    """Canonical code of the underlying graph plus the relabeled graph.

    The returned graph is all-positive (signs are not part of the code) with
    vertices renamed to the minimizing order, so isomorphic inputs map to
    the identical graph value.
    """
    n = g.order
    if n == 0:
        return "0:", SignedGraph._trusted(0, ())
    neighbors = [g.neighbors(v) for v in range(n)]
    classes = _refined_classes(neighbors)
    best_rows: tuple[int, ...] | None = None
    best_pos: list[int] | None = None
    pos = [0] * n
    for arrangement in product(*(permutations(c) for c in classes)):
        idx = 0
        for block in arrangement:
            for v in block:
                pos[v] = idx
                idx += 1
        rows = [0] * n
        for v in range(n):
            bits = 0
            for u in neighbors[v]:
                bits |= 1 << (n - 1 - pos[u])
            rows[pos[v]] = bits
        key = tuple(rows)
        if best_rows is None or key < best_rows:
            best_rows = key
            best_pos = pos[:]
    assert best_rows is not None and best_pos is not None
    packed = 0
    for i in range(n):
        for j in range(i + 1, n):
            packed = (packed << 1) | ((best_rows[i] >> (n - 1 - j)) & 1)
    code = f"{n}:{packed:x}"
    edges = sorted(
        (min(best_pos[u], best_pos[v]), max(best_pos[u], best_pos[v]), 1)
        for u, v, _ in g.edges
    )
    return code, SignedGraph._trusted(n, tuple(edges))


def automorphism_orbits(g: SignedGraph) -> list[tuple[int, ...]]:
    """Vertex orbits under every permutation that maps the underlying edge
    set onto itself, each ascending, in order of least member."""
    edges = {frozenset((u, v)) for u, v, _ in g.edges}
    orbit_of = [{v} for v in range(g.order)]
    for perm in _degree_preserving_permutations(g):
        if all(frozenset((perm[u], perm[v])) in edges for u, v, _ in g.edges):
            for v in range(g.order):
                orbit_of[v].add(perm[v])
    return sorted({tuple(sorted(orbit)) for orbit in orbit_of})


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


def connected_components(g: SignedGraph) -> list[tuple[int, ...]]:
    """Vertex sets of g's components, by depth-first search over ``g.edges``."""
    adjacent: list[set[int]] = [set() for _ in range(g.order)]
    for u, v, _ in g.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen: set[int] = set()
    components = []
    for root in range(g.order):
        if root in seen:
            continue
        seen.add(root)
        stack, component = [root], []
        while stack:
            v = stack.pop()
            component.append(v)
            stack.extend(adjacent[v] - seen)
            seen |= adjacent[v]
        components.append(tuple(sorted(component)))
    return components


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


@cache
def connected_labeled_count(n: int, m: int) -> int:
    """Connected graphs on n labeled vertices with m edges, in exact
    integers; for m = n+1 these are Wright's bicyclic counts.  Every labeled
    graph with m edges is counted, less those in which the component of
    vertex 0 has k < n vertices and j edges."""
    total = comb(comb(n, 2), m)
    for k in range(1, n):
        for j in range(m + 1):
            total -= (
                comb(n - 1, k - 1) * connected_labeled_count(k, j) * comb(comb(n - k, 2), m - j)
            )
    return total


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


def complement_parts(g: SignedGraph, support: list[int]) -> list[tuple[int, ...]] | None:
    """Parts of a complete multipartite graph on ``support``, or None.

    The candidate parts are the connected components of the complement,
    found by depth-first search; the graph is complete multipartite exactly
    when every pair is adjacent iff its ends lie in different components.
    """
    part_of = {v: -1 for v in support}
    parts: list[list[int]] = []
    for v in support:
        if part_of[v] >= 0:
            continue
        label = len(parts)
        stack, members = [v], [v]
        part_of[v] = label
        while stack:
            u = stack.pop()
            adjacent = set(g.neighbors(u))
            for w in support:
                if part_of[w] < 0 and w != u and w not in adjacent:
                    part_of[w] = label
                    members.append(w)
                    stack.append(w)
        parts.append(sorted(members))
    for i, u in enumerate(support):
        for w in support[i + 1 :]:
            if (part_of[u] != part_of[w]) != g.has_edge(u, w):
                return None
    return [tuple(p) for p in parts]


def disjoint_union(g1: SignedGraph, g2: SignedGraph) -> SignedGraph:
    """g1 and g2 side by side, g2's vertices numbered after g1's."""
    shifted = tuple((u + g1.order, v + g1.order, s) for u, v, s in g2.edges)
    return SignedGraph(g1.order + g2.order, g1.edges + shifted)


def two_core(g: SignedGraph) -> tuple[int, ...]:
    """Vertices left after deleting vertices of degree below 2 until none remain."""
    alive = set(range(g.order))
    while True:
        low = {v for v in alive if sum(u in alive for u in g.neighbors(v)) < 2}
        if not low:
            return tuple(sorted(alive))
        alive -= low


class IndexOnly:
    """An integer that is not an int, as numpy's are: it has only ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value
