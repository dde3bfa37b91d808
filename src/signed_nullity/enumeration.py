"""Exhaustive generators: labeled trees, bicyclic cores, switching classes.

Connected and bicyclic graphs are not streamed here.  The bicyclic 2-core
shapes and their base graphs are, and :func:`vertex_extensions` grows a
graph by one vertex.  From these :mod:`signed_nullity.verification` builds
one canonical graph per isomorphism class, order by order, for the sweeps
and the catalogs alike.  All streams are in a fixed deterministic order.
"""

from __future__ import annotations

import heapq
import os
from itertools import product
from typing import Iterator

from .graphs import SignedGraph, _spanning_forest

SOFT_ORDER_LIMIT = 8  # larger sweeps work but take noticeably longer
DEFAULT_ORDER_CEILING = 10
CEILING_ENV_VAR = "SIGNED_NULLITY_MAX_N"


def enumeration_ceiling() -> int:
    """Largest order the enumeration entry points accept.

    Defaults to 10; the environment variable SIGNED_NULLITY_MAX_N overrides
    it (sweeps beyond 10 get expensive fast).
    """
    raw = os.environ.get(CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_ORDER_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CEILING_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{CEILING_ENV_VAR} must be positive")
    return value


def check_order(n: int) -> None:
    ceiling = enumeration_ceiling()
    if n > ceiling:
        raise ValueError(f"order {n} exceeds the enumeration ceiling {ceiling}")


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
    elif n == 2:
        yield SignedGraph._trusted(2, ((0, 1, 1),))
    else:
        for seq in product(range(n), repeat=n - 2):
            yield prufer_graph(n, seq)


BaseShape = tuple[str, int, int, int]  # (kind, p, q, l)


def bicyclic_base_shapes(max_order: int) -> list[BaseShape]:
    """All infinity/theta core shapes with at most ``max_order`` vertices."""
    shapes: list[BaseShape] = []
    for p in range(3, max_order + 1):
        for q in range(p, max_order + 1):
            for l in range(1, max_order + 1):
                if p + q + l - 2 <= max_order:
                    shapes.append(("infinity", p, q, l))
    for p in range(1, max_order + 2):
        for q in range(1, p + 1):
            for l in range(1, q + 1):
                if q >= 2 and p + q + l - 1 <= max_order:
                    shapes.append(("theta", p, q, l))
    shapes.sort()
    return shapes


def base_graph(shape: BaseShape) -> SignedGraph:
    """Canonical all-positive layout of a core shape."""
    kind, p, q, l = shape
    edges: list[tuple[int, int, int]] = []

    def chain(points: list[int]) -> None:
        for a, b in zip(points, points[1:]):
            edges.append((min(a, b), max(a, b), 1))

    if kind == "infinity":
        if l == 1:
            n = p + q - 1
            left = [0] + list(range(1, p))
            right = [0] + list(range(p, n))
            chain(left + [0])
            chain(right + [0])
        else:
            n = p + q + l - 2
            u, v = 0, 1
            left = [u] + list(range(2, p + 1))
            chain(left + [u])
            right = [v] + list(range(p + 1, p + q))
            chain(right + [v])
            path = [u] + list(range(p + q, n)) + [v]
            chain(path)
    else:
        n = p + q + l - 1
        u, v = 0, 1
        nxt = 2
        for length in (p, q, l):
            inner = list(range(nxt, nxt + length - 1))
            nxt += length - 1
            chain([u] + inner + [v])
    edges.sort()
    return SignedGraph._trusted(n, tuple(edges))


def vertex_extensions(g: SignedGraph, max_degree: int) -> Iterator[SignedGraph]:
    """g plus one new vertex, joined by positive edges to each nonempty set
    of at most ``max_degree`` existing vertices in turn."""
    new = g.order
    joins: list[tuple[tuple[int, int, int], ...]] = [()]  # the new vertex's edges
    for v in range(new):
        joins += [join + ((v, new, 1),) for join in joins if len(join) < max_degree]
    for join in joins[1:]:
        yield SignedGraph._trusted(new + 1, tuple(sorted(g.edges + join)))


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
        yield SignedGraph._trusted(g.order, tuple(edges))
