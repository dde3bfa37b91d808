"""Structural recognizers for low-rank signed graphs and bicyclic shapes.

Rank 2 is equivalent to "balanced complete bipartite plus isolated vertices";
rank 3 to "complete tripartite plus isolated vertices, with the adjacency
rows inside each part equal up to a sign flip per vertex".  In a complete
multipartite graph the parts are the twin classes, the vertices with equal
neighbor lists, so both checks read them off the cached neighbor lists.
They are purely structural (no elimination), so they can be compared
against the exact rank kernel as independent routes to the same answer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .graphs import SignedGraph, cycle_sign, is_balanced, is_connected
from .rank import nullity

PartNeighborhoods = tuple[tuple[int, ...], tuple[int, ...]]  # (positive, negative)


class RankClassVerdict(NamedTuple):
    """Outcome of a rank-class recognition, with a revalidatable certificate.

    On a match, ``parts`` holds the multipartition of the non-isolated
    vertices; rank-2 verdicts add the switching function that makes the
    non-isolated part all-positive, rank-3 verdicts add each part's signed
    neighborhoods (those of the part's lowest vertex).  On a mismatch,
    ``reason`` is a short code.
    """

    matches: bool
    reason: Optional[str] = None
    parts: Optional[tuple[tuple[int, ...], ...]] = None
    switching: Optional[tuple[int, ...]] = None
    neighborhoods: Optional[tuple[PartNeighborhoods, ...]] = None


def _twin_parts(g: SignedGraph, k: int) -> tuple[Optional[str], dict[tuple[int, ...], list[int]]]:
    """Group the non-isolated vertices by neighbor list ("twins") and test
    for a complete k-partite graph, k being 2 or 3.

    Returns (mismatch reason or None, neighbor list -> its vertices, in
    first-vertex order).  Twins are never adjacent, and two twin classes
    are joined either completely or not at all, so the classes span a
    quotient graph with no isolated vertex in which no two vertices share
    a neighborhood.  On two or three vertices that is K2 or K3 (the ends of
    a path would be twins), so k classes are exactly the k parts.
    """
    twins: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g._sorted_neighbors):
        if nbrs:
            twins.setdefault(nbrs, []).append(v)
    if not twins:
        return "edgeless", twins
    return (None if len(twins) == k else "not-complete-multipartite"), twins


def recognize_rank2(g: SignedGraph) -> RankClassVerdict:
    """Match iff g is a balanced complete bipartite graph plus isolated vertices."""
    reason, twins = _twin_parts(g, 2)
    if reason is not None:
        return RankClassVerdict(matches=False, reason=reason)
    # isolated vertices are roots of their own and keep +1
    witness = is_balanced(g)
    if not witness.balanced:
        return RankClassVerdict(matches=False, reason="unbalanced")
    parts = tuple(map(tuple, twins.values()))
    return RankClassVerdict(matches=True, parts=parts, switching=witness.switching)


def recognize_rank3(g: SignedGraph) -> RankClassVerdict:
    """Match iff g is complete tripartite plus isolated vertices, with the
    rows inside each part pairwise equal up to sign.

    Equality up to a per-vertex sign flip is the switching-invariant reading
    of "same positive and negative neighborhoods": flipping a vertex negates
    its whole row without changing the rank.
    """
    reason, twins = _twin_parts(g, 3)
    if reason is not None:
        return RankClassVerdict(matches=False, reason=reason)
    neighborhoods = []
    for nbrs, part in twins.items():
        row = [g._edge_sign(part[0], w) for w in nbrs]
        flipped = [-s for s in row]
        for u in part[1:]:
            if [g._edge_sign(u, w) for w in nbrs] not in (row, flipped):
                return RankClassVerdict(matches=False, reason="neighborhood-mismatch")
        signed = [tuple(w for w, s in zip(nbrs, row) if s == sign) for sign in (1, -1)]
        neighborhoods.append(tuple(signed))
    parts = tuple(map(tuple, twins.values()))
    return RankClassVerdict(matches=True, parts=parts, neighborhoods=tuple(neighborhoods))


def low_rank_neighborhood_check(g: SignedGraph, x: int) -> bool:
    """Split V into Y = N(x) and X = rest; true iff X is independent and
    every X-Y pair is adjacent, that is, iff every vertex of X has the
    neighbor list of x.

    This holds for every x whenever the adjacency rank is at most 3 (and the
    graph has no isolated vertices, which is required here).
    """
    neighbors = g._sorted_neighbors
    if not all(neighbors):
        raise ValueError("graph has an isolated vertex")
    if type(x) is not int or not 0 <= x < g.order:
        raise ValueError(f"vertex {x!r} out of range (ids are ints)")
    y = neighbors[x]
    y_set = set(y)
    return all(neighbors[v] == y for v in range(g.order) if v not in y_set)


def shape_order(kind: str, p: int, q: int, l: int) -> int:
    """Vertex count of the 2-core that (kind, p, q, l) names (see
    :class:`BicyclicBase`), or 0 if those parameters name no shape."""
    if kind == "infinity" and 3 <= p <= q and l >= 1:
        return p + q + l - 2  # the path shares both its ends with the cycles
    if kind == "theta" and p >= q >= l >= 1 and q >= 2:
        return p + q + l - 1  # the three paths share the two hubs
    return 0


class _BicyclicBaseFields(NamedTuple):
    kind: str  # "infinity" | "theta"
    p: int
    q: int
    l: int
    base_vertices: tuple[int, ...]


class BicyclicBase(_BicyclicBaseFields):
    """Shape of a bicyclic graph's 2-core.

    ``infinity``: two cycles of lengths p <= q joined by a path with l-1
    edges (l = 1 means they share a vertex).  ``theta``: three internally
    disjoint paths of edge-lengths p >= q >= l between two hub vertices.
    :func:`shape_order` decides which parameters are valid, and the
    constructor refuses the others.
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int, q: int, l: int, base_vertices: tuple[int, ...]) -> "BicyclicBase":
        if kind not in ("infinity", "theta"):
            raise ValueError(f"unknown base kind {kind!r}")
        # Python ints only, so that a document renders 2 for each, not 2.0 or true
        if not (type(p) is int and type(q) is int and type(l) is int and shape_order(kind, p, q, l)):
            raise ValueError(f"invalid {kind} parameters {(p, q, l)} (ints that name a shape)")
        return super().__new__(cls, kind, p, q, l, base_vertices)

    @classmethod
    def _make(cls, iterable) -> "BicyclicBase":
        # the NamedTuple version, which ``_replace`` calls too, skips __new__
        return cls(*iterable)

    def cycle_lengths(self) -> tuple[int, int, int]:
        """Lengths of the two independent cycles and of their edge-set sum."""
        if self.kind == "infinity":
            return (self.p, self.q, self.p + self.q)
        return tuple(sorted((self.q + self.l, self.p + self.l, self.p + self.q)))  # type: ignore[return-value]


def _two_core(g: SignedGraph) -> list[int]:
    """The vertices left, ascending, once every vertex of degree at most 1
    is deleted until none is left (a forest leaves none).

    Leaves are peeled on a count, per vertex, of its neighbors not yet
    deleted, read off the neighbor table; a deleted vertex's count is 0.
    """
    neighbors = g._sorted_neighbors
    degree = [len(nbrs) for nbrs in neighbors]
    queue = [v for v, d in enumerate(degree) if d == 1]
    while queue:
        v = queue.pop()
        degree[v] = 0
        for u in neighbors[v]:
            if degree[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    queue.append(u)
    return [v for v, d in enumerate(degree) if d]


def _walk_chain(adj: dict[int, list[int]], start: int, first: int) -> tuple[int, int]:
    """Follow degree-2 vertices from ``start`` via ``first`` until a hub;
    returns (hub, edge count)."""
    prev, cur = start, first
    length = 1
    while len(adj[cur]) == 2:
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
        length += 1
    return cur, length


def bicyclic_base(g: SignedGraph) -> Optional[BicyclicBase]:
    """Classify the 2-core of a bicyclic graph, or None if g is not bicyclic.

    A bicyclic graph is connected with exactly one more edge than vertices;
    stripping pendant vertices to a fixpoint leaves a core whose degrees
    exceed 2 by 2 in all, so it has one hub of degree 4 or two of degree 3,
    and every walk along degree-2 vertices runs from hub to hub.  Either
    the walks from the first hub all reach the other (a theta), or two of
    them close a cycle at it and the rest, if any, is the path to the
    other cycle (an infinity).
    """
    if g.order == 0 or len(g.edges) != g.order + 1 or not is_connected(g):
        return None
    core = _two_core(g)
    core_set = set(core)
    adj = {v: [u for u in g._sorted_neighbors[v] if u in core_set] for v in core}
    hub = next(v for v in core if len(adj[v]) > 2)
    walks = [_walk_chain(adj, hub, first) for first in adj[hub]]
    if all(end != hub for end, _ in walks):
        p, q, l = sorted((length for _, length in walks), reverse=True)
        return BicyclicBase("theta", p, q, l, tuple(core))
    p = next(length for end, length in walks if end == hub)
    l = 1 + sum(length for end, length in walks if end != hub)
    q = len(core) + 2 - p - l  # inverts shape_order("infinity", p, q, l) == len(core)
    return BicyclicBase("infinity", min(p, q), max(p, q), l, tuple(core))


class UnbalancedBicyclicVerdict(NamedTuple):
    """Nullity-bound verdict for an unbalanced bicyclic signed graph."""

    bound_holds: bool  # nullity <= order - 3
    is_extremal: bool  # bare theta(2,2,1) core with both triangles negative


def is_extremal_bicyclic(g: SignedGraph, base: BicyclicBase) -> bool:
    """True iff g, with 2-core ``base``, is the equality shape of the n-3 bound.

    That is a bare theta(2,2,1) (so order 4, no attached trees) whose two
    triangles are both negative.
    """
    if base.kind != "theta" or (base.p, base.q, base.l) != (2, 2, 1):
        return False
    if len(base.base_vertices) != g.order:
        return False
    hubs = [v for v in base.base_vertices if g.degree(v) == 3]
    mids = [v for v in base.base_vertices if g.degree(v) == 2]
    return all(cycle_sign(g, (hubs[0], mid, hubs[1])) == -1 for mid in mids)


def unbalanced_bicyclic_verdict(g: SignedGraph) -> UnbalancedBicyclicVerdict:
    """Check the n-3 nullity bound and its unique equality shape."""
    base = bicyclic_base(g)
    if base is None:
        raise ValueError("graph is not bicyclic")
    if is_balanced(g).balanced:
        raise ValueError("graph is balanced")
    return UnbalancedBicyclicVerdict(
        bound_holds=nullity(g) <= g.order - 3, is_extremal=is_extremal_bicyclic(g, base)
    )
