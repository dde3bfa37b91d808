"""Exhaustive generators: labeled trees, bicyclic cores, switching classes.

Connected and bicyclic graphs are not streamed here.  The bicyclic 2-core
shapes and their base graphs are: from them, and from K1,
:mod:`signed_nullity.verification` builds one canonical graph per
isomorphism class, order by order, for the sweeps and the catalogs alike.
All streams are in a fixed deterministic order.  No order is capped here:
the caps of the sweeps and the catalogs live in the sweep table of
:mod:`signed_nullity.verification`.
"""

from __future__ import annotations

import heapq
from itertools import islice, product
from typing import Iterator

from .graphs import SignedGraph, _spanning_forest
from .recognizers import shape_order


def prufer_graph(n: int, seq: tuple[int, ...]) -> SignedGraph:
    """Decode a length n-2 sequence over 0..n-1 into its labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((min(v, x), max(v, x), 1))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v), 1))
    edges.sort()
    return SignedGraph._trusted(n, tuple(edges))


def labeled_trees(n: int) -> Iterator[SignedGraph]:
    """All n^(n-2) labeled trees on n vertices, all-positive.

    Signs on forests are immaterial (every signature of a forest is
    switching-equivalent to all-positive), so one signature suffices.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        yield SignedGraph._trusted(1, ())
    else:
        for seq in product(range(n), repeat=n - 2):
            yield prufer_graph(n, seq)


BaseShape = tuple[str, int, int, int]  # (kind, p, q, l)


def bicyclic_base_shapes(max_order: int) -> list[BaseShape]:
    """All infinity/theta core shapes with at most ``max_order`` vertices,
    infinities first, then by p, q and l; no parameter of one exceeds
    max_order - 2, so the scan stops there."""
    sizes = range(1, max_order - 1)
    return [
        (kind, p, q, l)
        for kind in ("infinity", "theta")
        for p, q, l in product(sizes, repeat=3)
        if 0 < shape_order(kind, p, q, l) <= max_order
    ]


def base_graph(shape: BaseShape) -> SignedGraph:
    """Canonical all-positive layout of a core shape, as chains of new
    vertices between hubs.

    An infinity's hubs are the ends of its path 0, 1, ..., l-1 (one vertex
    when l = 1), with a p-cycle through the first and a q-cycle through the
    second; a theta joins hubs 0 and 1 by chains of p, q and l edges.
    """
    kind, p, q, l = shape
    n = shape_order(kind, p, q, l)
    fresh = iter(range(n))

    def chain(a: int, b: int, length: int) -> list[int]:
        return [a, *islice(fresh, length - 1), b]

    if kind == "infinity":
        path = list(islice(fresh, l))
        chains = [path, chain(path[0], path[0], p), chain(path[-1], path[-1], q)]
    else:
        u, v = islice(fresh, 2)
        chains = [chain(u, v, length) for length in (p, q, l)]
    edges = sorted((min(a, b), max(a, b), 1) for c in chains for a, b in zip(c, c[1:]))
    return SignedGraph._trusted(n, tuple(edges))


def signature_representatives(g: SignedGraph) -> Iterator[SignedGraph]:
    """One signed graph per switching class of g's underlying graph.

    Fixing a spanning tree all-positive leaves the non-tree edge signs as a
    complete switching invariant (they are the fundamental cycle signs), so
    the 2^c sign patterns on non-tree edges meet every class exactly once.
    """
    parent, _, non_tree = _spanning_forest(g)
    if parent.count(-1) > 1:
        raise ValueError("switching-class enumeration needs a connected graph")
    free = {(u, v) for u, v, _ in non_tree}
    fixed = [(u, v) for u, v, _ in g.edges]
    free_positions = [i for i, pair in enumerate(fixed) if pair in free]
    base = [(u, v, 1) for u, v in fixed]
    for pattern in product((1, -1), repeat=len(free_positions)):
        edges = base[:]
        for where, sign in zip(free_positions, pattern):
            u, v, _ = edges[where]
            edges[where] = (u, v, sign)
        yield g._resigned(tuple(edges))
