"""Structural recognizers for low-rank signed graphs and bicyclic shapes.

Rank 2 is equivalent to "balanced complete bipartite plus isolated vertices";
rank 3 to "complete tripartite plus isolated vertices, with the adjacency
rows inside each part equal up to a sign flip per vertex".  Both checks are
purely structural (no elimination), so they can be compared against the
exact rank kernel as independent routes to the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import SignedGraph, cycle_sign, induced_subgraph, is_balanced, is_connected
from .rank import nullity

PartNeighborhoods = tuple[tuple[int, ...], tuple[int, ...]]  # (positive, negative)


@dataclass(frozen=True)
class RankClassVerdict:
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


def _complement_parts(g: SignedGraph, support: list[int]) -> Optional[list[tuple[int, ...]]]:
    """Parts of a complete multipartite graph on ``support``, or None.

    The candidate parts are the connected components of the complement;
    the graph is complete multipartite exactly when vertices are adjacent
    iff they live in different components.
    """
    part_of = {v: -1 for v in support}
    parts: list[list[int]] = []
    for v in support:
        if part_of[v] >= 0:
            continue
        label = len(parts)
        stack = [v]
        part_of[v] = label
        members = [v]
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


def recognize_rank2(g: SignedGraph) -> RankClassVerdict:
    """Match iff g is a balanced complete bipartite graph plus isolated vertices."""
    support = [v for v in range(g.order) if g.degree(v) > 0]
    if not support:
        return RankClassVerdict(matches=False, reason="edgeless")
    parts = _complement_parts(g, support)
    if parts is None or len(parts) != 2:
        return RankClassVerdict(matches=False, reason="not-complete-multipartite")
    core = induced_subgraph(g, support)
    witness = is_balanced(core)
    if not witness.balanced:
        return RankClassVerdict(matches=False, reason="unbalanced")
    theta = [1] * g.order
    for local, v in enumerate(support):
        theta[v] = witness.switching[local]
    return RankClassVerdict(matches=True, parts=tuple(parts), switching=tuple(theta))


def recognize_rank3(g: SignedGraph) -> RankClassVerdict:
    """Match iff g is complete tripartite plus isolated vertices, with the
    rows inside each part pairwise equal up to sign.

    Equality up to a per-vertex sign flip is the switching-invariant reading
    of "same positive and negative neighborhoods": flipping a vertex negates
    its whole row without changing the rank.
    """
    support = [v for v in range(g.order) if g.degree(v) > 0]
    if not support:
        return RankClassVerdict(matches=False, reason="edgeless")
    parts = _complement_parts(g, support)
    if parts is None or len(parts) != 3:
        return RankClassVerdict(matches=False, reason="not-complete-multipartite")
    neighborhoods = []
    for part in parts:
        ref = part[0]
        pos = frozenset(w for w in g.neighbors(ref) if g.sign_of(ref, w) == 1)
        neg = frozenset(w for w in g.neighbors(ref) if g.sign_of(ref, w) == -1)
        for u in part[1:]:
            u_pos = frozenset(w for w in g.neighbors(u) if g.sign_of(u, w) == 1)
            u_neg = frozenset(w for w in g.neighbors(u) if g.sign_of(u, w) == -1)
            if (u_pos, u_neg) != (pos, neg) and (u_pos, u_neg) != (neg, pos):
                return RankClassVerdict(matches=False, reason="neighborhood-mismatch")
        neighborhoods.append((tuple(sorted(pos)), tuple(sorted(neg))))
    return RankClassVerdict(matches=True, parts=tuple(parts), neighborhoods=tuple(neighborhoods))


def low_rank_neighborhood_check(g: SignedGraph, x: int) -> bool:
    """Split V into Y = N(x) and X = rest; true iff X is independent and
    every X-Y pair is adjacent.

    This holds for every x whenever the adjacency rank is at most 3 (and the
    graph has no isolated vertices, which is required here).
    """
    if any(g.degree(v) == 0 for v in range(g.order)):
        raise ValueError("graph has an isolated vertex")
    if not 0 <= x < g.order:
        raise ValueError(f"vertex {x} out of range")
    y = set(g.neighbors(x))
    x_side = [v for v in range(g.order) if v not in y]
    for i, u in enumerate(x_side):
        for w in x_side[i + 1 :]:
            if g.has_edge(u, w):
                return False
    for u in x_side:
        for w in y:
            if not g.has_edge(u, w):
                return False
    return True


@dataclass(frozen=True)
class BicyclicBase:
    """Shape of a bicyclic graph's 2-core.

    ``infinity``: two cycles of lengths p <= q joined by a path with l-1
    edges (l = 1 means they share a vertex).  ``theta``: three internally
    disjoint paths of edge-lengths p >= q >= l between two hub vertices.
    """

    kind: str  # "infinity" | "theta"
    p: int
    q: int
    l: int
    base_vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind == "infinity":
            if not (3 <= self.p <= self.q and self.l >= 1):
                raise ValueError(f"invalid infinity parameters {(self.p, self.q, self.l)}")
        elif self.kind == "theta":
            if not (self.p >= self.q >= self.l >= 1 and self.q >= 2):
                raise ValueError(f"invalid theta parameters {(self.p, self.q, self.l)}")
        else:
            raise ValueError(f"unknown base kind {self.kind!r}")

    def cycle_lengths(self) -> tuple[int, int, int]:
        """Lengths of the two independent cycles and of their edge-set sum."""
        if self.kind == "infinity":
            return (self.p, self.q, self.p + self.q)
        return tuple(sorted((self.q + self.l, self.p + self.l, self.p + self.q)))  # type: ignore[return-value]


def _two_core(g: SignedGraph) -> list[int]:
    degree = [g.degree(v) for v in range(g.order)]
    adj = [set(g.neighbors(v)) for v in range(g.order)]
    queue = [v for v in range(g.order) if degree[v] == 1]
    removed = [False] * g.order
    while queue:
        v = queue.pop()
        removed[v] = True
        for u in adj[v]:
            adj[u].discard(v)
            degree[u] -= 1
            if degree[u] == 1:
                queue.append(u)
        adj[v].clear()
    return [v for v in range(g.order) if not removed[v]]


def _walk_chain(adj: dict[int, list[int]], start: int, first: int) -> tuple[int, int, int]:
    """Follow degree-2 vertices from ``start`` via ``first`` until a branch
    vertex; returns (endpoint, edge count, vertex before the endpoint)."""
    prev, cur = start, first
    length = 1
    while len(adj[cur]) == 2:
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
        length += 1
    return cur, length, prev


def bicyclic_base(g: SignedGraph) -> Optional[BicyclicBase]:
    """Classify the 2-core of a bicyclic graph, or None if g is not bicyclic.

    A bicyclic graph is connected with exactly one more edge than vertices;
    stripping pendant vertices to a fixpoint leaves either two cycles joined
    by a path (possibly sharing a vertex) or three internally disjoint paths
    between two hubs.
    """
    if g.order == 0 or len(g.edges) != g.order + 1 or not is_connected(g):
        return None
    core = _two_core(g)
    core_set = set(core)
    adj = {v: sorted(u for u in g.neighbors(v) if u in core_set) for v in core}
    hubs4 = [v for v in core if len(adj[v]) == 4]
    hubs3 = [v for v in core if len(adj[v]) == 3]
    if any(len(adj[v]) not in (2, 3, 4) for v in core):
        return None
    if len(hubs4) == 1 and not hubs3:
        h = hubs4[0]
        unpaired = list(adj[h])
        lengths = []
        while unpaired:
            first = unpaired.pop(0)
            end, length, back = _walk_chain(adj, h, first)
            if end != h:
                return None
            lengths.append(length)
            unpaired.remove(back)
        p, q = sorted(lengths)
        return BicyclicBase("infinity", p, q, 1, tuple(core))
    if len(hubs3) == 2 and not hubs4:
        h1, h2 = hubs3
        walks = [_walk_chain(adj, h1, first) for first in adj[h1]]
        ends = [w[0] for w in walks]
        if ends == [h2, h2, h2]:
            p, q, l = sorted((w[1] for w in walks), reverse=True)
            return BicyclicBase("theta", p, q, l, tuple(core))
        loops = [w for w in walks if w[0] == h1]
        bridges = [w for w in walks if w[0] == h2]
        if len(loops) != 2 or len(bridges) != 1:
            return None
        p = loops[0][1]
        l = bridges[0][1] + 1
        q = len(core) + 1 - p - (l - 1)
        return BicyclicBase("infinity", min(p, q), max(p, q), l, tuple(core))
    return None


@dataclass(frozen=True)
class UnbalancedBicyclicVerdict:
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
