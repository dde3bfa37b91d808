"""Signed graphs: construction, adjacency matrices, cycle signs, switching, balance.

A signed graph is a simple undirected graph whose edges carry a sign of +1 or
-1.  Vertices are dense integer ids ``0..order-1`` and graphs are immutable
values: every transformation returns a new graph, so instances are hashable
and safe to share between threads or worker processes.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from operator import index
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence

Sign = int  # restricted to +1 / -1 at every construction boundary
Edge = tuple[int, int, int]  # (u, v, sign) with u < v
Cycle = tuple[int, ...]  # vertex sequence, closed implicitly


def _integer(name: str, value: object) -> int:
    """``value`` through ``operator.index``, as :func:`rank` reads its
    entries, so a numpy integer becomes a Python int; a bool, float or
    string raises ValueError."""
    if not isinstance(value, bool):
        try:
            return index(value)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _sign(value: object) -> int:
    """``value`` as the int +1 or -1, read as :func:`_integer` reads ids: a
    numpy integer becomes a Python int, and a bool, float or string raises
    ValueError, so every matrix the kernel ranks holds ints."""
    try:
        s = _integer("edge sign", value)
    except ValueError:
        s = 0
    if s != 1 and s != -1:
        raise ValueError(f"edge sign must be the int +1 or -1, got {value!r}")
    return s


def _refuse(message: str) -> NoReturn:
    # the module that defines the error costs milliseconds to import, so
    # only a refused write pays for it
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class SignedGraph:
    """Immutable signed graph on vertices ``0..order-1``.

    ``edges`` is the canonical edge set: each entry is ``(u, v, sign)`` with
    ``u < v`` and entries sorted, so equal graphs have identical
    representations (and serializations).

    ``order`` and ``edges`` live in the instance ``__dict__``, next to the
    cached neighbor table; assigning or deleting an attribute raises
    ``FrozenInstanceError``.  Equality, hashing and ``repr`` read the two
    fields only.
    """

    order: int
    edges: tuple[Edge, ...]
    __match_args__ = ("order", "edges")

    def __init__(self, order: int, edges: tuple[Edge, ...]) -> None:
        # ids and signs are Python ints (no bool, float or numpy integer), so
        # they serialize as the file format writes them
        if type(order) is not int or order < 0:
            raise ValueError(f"order must be a non-negative integer, got {order!r}")
        prev: Optional[tuple[int, int]] = None
        for u, v, s in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u!r},{v!r}) out of range for order {order} (ids are ints)")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized (need u < v)")
            if type(s) is not int or (s != 1 and s != -1):
                raise ValueError(f"edge sign must be the int +1 or -1, got {s!r}")
            # strictly increasing pairs are both sorted and unique
            if prev is not None and prev >= (u, v):
                raise ValueError(f"duplicate edge ({u},{v})" if prev == (u, v) else "edge list not sorted")
            prev = (u, v)
        self.__dict__.update(order=order, edges=edges)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.edges) == (other.order, other.edges)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.order, self.edges))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(order={self.order!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value: object) -> None:
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _refuse(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, order: int, edges: tuple[Edge, ...]) -> "SignedGraph":
        """Build a graph without the structural check of ``__init__``.

        Only for graphs the package derives from already-valid parts.  The
        caller guarantees that every edge has ``u < v``, that the edges are
        sorted with no duplicate pair (``_edge_sign`` bisects them), that
        every endpoint lies in ``0..order-1`` and that every sign is +1 or -1.
        """
        g = object.__new__(cls)
        g.__dict__.update(order=order, edges=edges)
        return g

    def _resigned(self, edges: tuple[Edge, ...]) -> "SignedGraph":
        """A graph on the same vertex pairs, in the same order, with the
        signs of ``edges``; it shares this graph's neighbor table, the only
        one a graph derives, instead of building its own."""
        g = SignedGraph._trusted(self.order, edges)
        g.__dict__["_sorted_neighbors"] = self._sorted_neighbors
        return g

    @cached_property
    def _sorted_neighbors(self) -> tuple[tuple[int, ...], ...]:
        # edges are sorted pairs u < v, so every vertex meets its smaller
        # neighbors first and each list fills in ascending order
        lists: list[list[int]] = [[] for _ in range(self.order)]
        for u, v, _ in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return tuple(map(tuple, lists))

    def _edge_sign(self, u: int, v: int) -> int:
        """Sign of the edge uv, or 0 if there is none (``u == v`` included),
        found by bisecting the sorted edge tuple."""
        pair = (u, v) if u < v else (v, u)
        edges = self.edges
        i = bisect_left(edges, pair)
        return edges[i][2] if i < len(edges) and edges[i][:2] == pair else 0

    # The accessors below take vertex ids from callers, so they reject ids
    # outside 0..order-1 (a negative one would index from the end).  Hot
    # loops read the neighbor table and ``_edge_sign`` directly.

    def _check_vertex(self, v: int) -> None:
        if type(v) is not int or not 0 <= v < self.order:
            raise ValueError(f"vertex {v!r} out of range for order {self.order} (ids are ints)")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._sorted_neighbors[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._sorted_neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self._edge_sign(u, v) != 0

    def sign_of(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        s = self._edge_sign(u, v)
        if not s:
            raise ValueError(f"no edge ({u},{v})")
        return s

    def underlying(self) -> "SignedGraph":
        """The same graph with every sign set to +1."""
        return self._resigned(tuple((u, v, 1) for u, v, _ in self.edges))

    def is_all_positive(self) -> bool:
        return all(s == 1 for _, _, s in self.edges)

    def vertices(self) -> range:
        return range(self.order)


def build_graph(order: int, edges: Iterable[tuple[int, int, int]]) -> SignedGraph:
    """Build a normalized SignedGraph from an arbitrary edge list.

    Endpoint order within an edge does not matter; duplicates (even with a
    different sign) and self-loops are rejected by the constructor.  The
    order and the endpoints are read through :func:`_integer` and the signs
    through :func:`_sign`, so numpy integers are stored as Python ints and a
    bool, float or string is refused.
    """
    ids = [(_integer("vertex id", u), _integer("vertex id", v), _sign(s)) for u, v, s in edges]
    normalized = sorted(((min(u, v), max(u, v), s) for u, v, s in ids), key=lambda e: e[:2])
    return SignedGraph(_integer("order", order), tuple(normalized))


def adjacency_matrix(g: SignedGraph) -> list[list[int]]:
    """Symmetric order x order matrix with entry (i,j) = sign of edge ij, else 0."""
    n = g.order
    m = [[0] * n for _ in range(n)]
    for u, v, s in g.edges:
        m[u][v] = s
        m[v][u] = s
    return m


def cycle_sign(g: SignedGraph, cycle: Sequence[int]) -> int:
    """Product of the edge signs along a closed cycle of ``g``."""
    k = len(cycle)
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(cycle)) != k:
        raise ValueError("cycle vertices must be distinct")
    sign = 1
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        sign *= g.sign_of(u, v)  # raises if the pair is not an edge
    return sign


def switch(g: SignedGraph, theta: Sequence[int]) -> SignedGraph:
    """Resign every edge uv to ``theta[u] * sign(uv) * theta[v]``."""
    if len(theta) != g.order:
        raise ValueError(f"switching function has length {len(theta)}, graph has order {g.order}")
    theta = [_sign(t) for t in theta]
    return g._resigned(tuple((u, v, theta[u] * s * theta[v]) for u, v, s in g.edges))


class BalanceWitness(NamedTuple):
    """Outcome of a balance test, always carrying a checkable certificate.

    Balanced graphs come with a switching function that makes every edge
    positive; unbalanced graphs come with a concrete negative cycle.
    """

    balanced: bool
    switching: Optional[tuple[int, ...]] = None
    negative_cycle: Optional[Cycle] = None


def _spanning_forest(g: SignedGraph) -> tuple[list[int], list[int], list[int]]:
    """BFS spanning forest rooted at the lowest id of each component.

    Returns (parent, depth, non_tree): parent[root] == -1, and non_tree
    holds the positions in ``g.edges`` of the edges outside the forest, in
    ascending order.  In a simple graph the edge uv is a tree edge exactly
    when one end is the other's parent.  The traversal (lowest unvisited
    root, neighbors in ascending order) is fixed so every derived object --
    switching witnesses, fundamental cycles, signature representatives --
    is reproducible.
    """
    n = g.order
    neighbors = g._sorted_neighbors
    parent = [-2] * n  # -2 = unvisited, -1 = root
    depth = [0] * n
    for root in range(n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        queue = [root]
        while queue:
            nxt: list[int] = []
            for u in queue:
                for v in neighbors[u]:
                    if parent[v] == -2:
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            queue = sorted(nxt)
    non_tree = [i for i, (u, v, _) in enumerate(g.edges) if parent[v] != u and parent[u] != v]
    return parent, depth, non_tree


def _tree_path_cycle(parent: list[int], depth: list[int], u: int, v: int) -> Cycle:
    """Fundamental cycle closed by the non-tree edge uv: u .. lca .. v."""
    up, vp = u, v
    left, right = [up], [vp]
    while depth[up] > depth[vp]:
        up = parent[up]
        left.append(up)
    while depth[vp] > depth[up]:
        vp = parent[vp]
        right.append(vp)
    while up != vp:
        up = parent[up]
        vp = parent[vp]
        left.append(up)
        right.append(vp)
    right.pop()  # drop the duplicated meeting vertex
    return tuple(left + right[::-1])


def fundamental_cycles(g: SignedGraph) -> list[Cycle]:
    """One cycle per non-tree edge of the fixed spanning forest.

    The list has ``|E| - order + #components`` entries, ordered by the
    closing edge's position in the canonical edge list.
    """
    parent, depth, non_tree = _spanning_forest(g)
    return [_tree_path_cycle(parent, depth, u, v) for u, v, _ in (g.edges[i] for i in non_tree)]


def _forest_switching(g: SignedGraph, parent: list[int], depth: list[int]) -> list[int]:
    """Switching that turns every tree edge of the given forest positive."""
    theta = [1] * g.order
    # resolve parents before children
    for v in sorted(range(g.order), key=depth.__getitem__):
        if parent[v] >= 0:
            theta[v] = theta[parent[v]] * g._edge_sign(parent[v], v)
    return theta


def is_balanced(g: SignedGraph) -> BalanceWitness:
    """Balance test with certificate.

    A spanning-forest traversal assigns a switching function that makes all
    tree edges positive; a non-tree edge that stays negative closes a
    negative fundamental cycle, which is returned as the witness.
    """
    parent, depth, non_tree = _spanning_forest(g)
    theta = _forest_switching(g, parent, depth)
    for u, v, s in (g.edges[i] for i in non_tree):
        if theta[u] * s * theta[v] == -1:
            return BalanceWitness(balanced=False, negative_cycle=_tree_path_cycle(parent, depth, u, v))
    return BalanceWitness(balanced=True, switching=tuple(theta))


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> Optional[tuple[int, ...]]:
    """A switching function taking g1 to g2, or None if none exists.

    g1 and g2 must share the same labeled underlying graph.  theta works iff
    switching the edgewise sign product ``sign1 * sign2`` to all-positive
    works, so this reduces to a balance test on that product graph.
    """
    if g1.order != g2.order or [e[:2] for e in g1.edges] != [e[:2] for e in g2.edges]:
        raise ValueError("graphs have different underlying graphs")
    # the pairs match, so the signs pair up edge by edge
    product = g1._resigned(tuple((u, v, s1 * e[2]) for (u, v, s1), e in zip(g1.edges, g2.edges)))
    witness = is_balanced(product)
    return witness.switching if witness.balanced else None


def induced_subgraph(g: SignedGraph, keep: Iterable[int]) -> SignedGraph:
    """Induced subgraph on ``keep``, relabeled order-preservingly to dense ids."""
    kept = set(keep)
    for v in kept:
        if type(v) is not int or not 0 <= v < g.order:
            raise ValueError(f"vertex {v!r} out of range (ids are ints)")
    relabel = {v: i for i, v in enumerate(sorted(kept))}
    edges = tuple(
        (relabel[u], relabel[v], s)
        for u, v, s in g.edges
        if u in relabel and v in relabel
    )
    return SignedGraph._trusted(len(kept), edges)


def compaction_map(order: int, removed: Iterable[int]) -> tuple[int, ...]:
    """Old-id -> new-id map after deleting ``removed`` (-1 marks removal)."""
    gone = set(removed)
    out = []
    nxt = 0
    for v in range(order):
        if v in gone:
            out.append(-1)
        else:
            out.append(nxt)
            nxt += 1
    return tuple(out)


def is_connected(g: SignedGraph) -> bool:
    return _spanning_forest(g)[0].count(-1) <= 1

