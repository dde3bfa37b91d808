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

from itertools import islice, product
from typing import Iterator

from .graphs import SignedGraph, _spanning_forest
from .recognizers import shape_order


def prufer_sequences(n: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Every Pruefer sequence of the labeled trees on n vertices that starts
    with ``prefix``, in lexicographic order; K1's is the empty sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return iter([()])
    return (prefix + rest for rest in product(range(n), repeat=n - 2 - len(prefix)))


def prufer_pairs(n: int, seq: tuple[int, ...]) -> list[tuple[int, int]]:
    """The edges of the labeled tree with Pruefer sequence ``seq`` (length
    n-2 over 0..n-1), as (leaf, neighbor) pairs in the order the leaves are
    removed; the last pair joins the two vertices left, n-1 second.  K1 has
    none.

    Each step removes the smallest leaf.  A pointer scans up for the leaves
    present from the start; a vertex that becomes a leaf when its last
    occurrence in ``seq`` is read is removed next if it is below the
    pointer, since every leaf below the pointer is gone, and otherwise the
    pointer will reach it.  So the decoding takes linear time, with no heap.
    A leaf comes off only after every vertex that hung from it.
    """
    if n == 1:
        return []
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = leaf = degree.index(1)
    pairs = []
    for x in seq:
        pairs.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    pairs.append((leaf, n - 1))
    return pairs


def prufer_graph(n: int, seq: tuple[int, ...]) -> SignedGraph:
    """The all-positive labeled tree with Pruefer sequence ``seq``."""
    edges = sorted((min(u, v), max(u, v), 1) for u, v in prufer_pairs(n, seq))
    return SignedGraph._trusted(n, tuple(edges))


def labeled_trees(n: int) -> Iterator[SignedGraph]:
    """All n^(n-2) labeled trees on n vertices, all-positive.

    Signs on forests are immaterial (every signature of a forest is
    switching-equivalent to all-positive), so one signature suffices.
    """
    for seq in prufer_sequences(n):
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
