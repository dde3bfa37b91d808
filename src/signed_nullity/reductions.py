"""Nullity-preserving graph transformations.

Three operations shrink a signed graph without changing its nullity:
deleting a pendant vertex together with its neighbor, rewiring a neighbor of
a special path's endpoint across the path, and contracting a special path to
a single vertex.  The rewiring and contraction require the path's two edges
to carry signs (-1, +1); ``normalize_special_path`` reaches that pattern by
switching, which never changes the nullity either.

Each transformation has one private core, ``_delete_pair`` or
``_contract``, which trusts its arguments; the public functions check them
once and call it.  The lemma2.5 sweep calls the cores directly, on the
pendant pairs and special paths it found on the class graph, which every
switching class of that graph shares.  It ranks each pendant deletion
once per class of equal deletions (twin leaves on one neighbor, and core
cuts that leave switching-equivalent graphs), and contracts each special
path in one orientation only, v1 < v3: ``_contract`` of the reversed path
gives every edge of the merged vertex the opposite sign, a switching at
that vertex, which keeps the nullity.  It also ranks one contraction per
thread (a maximal path of degree-2 vertices) and switching class: at any
centre of one thread, a contraction shortens the path through the thread
by two edges and flips the sign of every cycle through it, so all of them
give one graph up to relabeling and switching (Zaslavsky, 1982).

The public functions take a special path as a :class:`SpecialPath` or as
any three int ids, and refuse anything else with ValueError.

``reduce`` records each pendant-pair deletion it makes in a replayable
trace so reduction chains can be audited.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import SignedGraph, compaction_map, switch

SwitchingFunction = tuple[int, ...]


class SpecialPath(NamedTuple):
    """Path v1-v2-v3 with deg(v2)=2, v1v3 not an edge, and no common neighbor
    of v1 and v3 besides v2."""

    v1: int
    v2: int
    v3: int


class PendantDeletion(NamedTuple):
    pendant: int
    neighbor: int
    relabeling: tuple[int, ...]  # old id -> new id, -1 for the two removed


class ReductionTrace(NamedTuple):
    steps: tuple[PendantDeletion, ...]


def find_pendants(g: SignedGraph) -> list[tuple[int, int]]:
    """All (pendant vertex, unique neighbor) pairs, sorted by pendant id."""
    return [(v, nbrs[0]) for v, nbrs in enumerate(g._sorted_neighbors) if len(nbrs) == 1]


def delete_pendant_pair(g: SignedGraph, v: int, u: int) -> SignedGraph:
    """Delete pendant v and its neighbor u; the nullity does not change."""
    if not (type(v) is int and type(u) is int and 0 <= v < g.order and g._sorted_neighbors[v] == (u,)):
        raise ValueError(f"({v!r},{u!r}) is not a pendant pair (ids are ints)")
    return _delete_pair(g, v, u)


def _delete_pair(g: SignedGraph, v: int, u: int) -> SignedGraph:
    """g without the two distinct vertices v and u, the others compacted
    order-preservingly; a relabeling that keeps order keeps the edges sorted."""
    lo, hi = (v, u) if v < u else (u, v)
    edges = tuple(
        (a - (a > lo) - (a > hi), b - (b > lo) - (b > hi), s)
        for a, b, s in g.edges
        if a != lo and a != hi and b != lo and b != hi
    )
    return SignedGraph._trusted(g.order - 2, edges)


def _as_path(p: object) -> SpecialPath:
    """p as a :class:`SpecialPath`, if it unpacks to three int ids, so a
    plain tuple reads as one; ValueError otherwise."""
    try:
        v1, v2, v3 = p
    except (TypeError, ValueError):
        raise ValueError(f"a special path is three int ids, got {p!r}") from None
    if not (type(v1) is int and type(v2) is int and type(v3) is int):
        raise ValueError(f"special path ids must be ints, got {(v1, v2, v3)!r}")
    return SpecialPath(v1, v2, v3)


def is_special_path(g: SignedGraph, p: SpecialPath) -> bool:
    """Whether p, a :class:`SpecialPath` or any three int ids, is a special path of g."""
    return _is_special(g, *_as_path(p))


def _is_special(g: SignedGraph, v1: int, v2: int, v3: int) -> bool:
    """The test of :func:`is_special_path`, on ids that are ints."""
    n = g.order
    if len({v1, v2, v3}) != 3 or not (0 <= v1 < n and 0 <= v2 < n and 0 <= v3 < n):
        return False
    # the ids are in range, so the table is read directly, with no accessor
    neighbors = g._sorted_neighbors
    middle = neighbors[v2]
    if len(middle) != 2 or v1 not in middle or v3 not in middle or v3 in neighbors[v1]:
        return False
    return set(neighbors[v1]) & set(neighbors[v3]) <= {v2}


def find_special_paths(g: SignedGraph) -> list[SpecialPath]:
    """Every special path, both orientations, in lexicographic order.

    :func:`is_special_path` is symmetric in the path's ends, so each vertex
    of degree 2 is tested in one orientation and gives both or neither.
    """
    found = []
    for v2, nbrs in enumerate(g._sorted_neighbors):
        if len(nbrs) == 2:
            a, b = nbrs
            if _is_special(g, a, v2, b):
                found += [SpecialPath(a, v2, b), SpecialPath(b, v2, a)]
    found.sort()
    return found


def normalize_special_path(g: SignedGraph, p: SpecialPath) -> tuple[SignedGraph, SwitchingFunction]:
    """Switch at the path ends so that sign(v1v2) = -1 and sign(v2v3) = +1.

    Since v1v3 is not an edge, flipping v1 only affects the first path edge
    and flipping v3 only the second, so every sign pattern is reachable.
    """
    p = _require_special(g, p)
    theta = [1] * g.order
    theta[p.v1], theta[p.v3] = _normalizing_flips(g, *p)
    return switch(g, theta), tuple(theta)


def _normalizing_flips(g: SignedGraph, v1: int, v2: int, v3: int) -> tuple[int, int]:
    """The switching signs at v1 and at v3 that give a special path the signs (-1, +1)."""
    return -g._edge_sign(v1, v2), g._edge_sign(v2, v3)


def _require_special(g: SignedGraph, p: object) -> SpecialPath:
    """p as a :class:`SpecialPath` of g; ValueError if it is not one."""
    p = _as_path(p)
    if not _is_special(g, *p):
        raise ValueError(f"{p} is not a special path")
    return p


def _require_normalized(g: SignedGraph, p: object) -> SpecialPath:
    p = _require_special(g, p)
    # the path's ids are in range and its edges exist, so no accessor is needed
    if g._edge_sign(p.v1, p.v2) != -1 or g._edge_sign(p.v2, p.v3) != 1:
        raise ValueError("special path is not normalized to signs (-1, +1)")
    return p


def rewire_special_path(g: SignedGraph, p: SpecialPath, v: int) -> SignedGraph:
    """Move the edge vv1 to vv3, keeping its sign; the nullity is preserved.

    Requires the normalized sign pattern on the path and v a neighbor of v1
    other than v2.
    """
    p = _require_normalized(g, p)
    # only ids in range are neighbors of v1, and the ends of a special path
    # share no neighbor but v2, so the edge vv3 is never there yet
    if type(v) is not int or v == p.v2 or v not in g._sorted_neighbors[p.v1]:
        raise ValueError(f"vertex {v!r} is not an eligible neighbor of {p.v1} (ids are ints)")
    s = g._edge_sign(v, p.v1)
    edges = [e for e in g.edges if {e[0], e[1]} != {v, p.v1}]
    edges.append((min(v, p.v3), max(v, p.v3), s))
    edges.sort()
    return SignedGraph._trusted(g.order, tuple(edges))


def contract_special_path(g: SignedGraph, p: SpecialPath) -> SignedGraph:
    """Contract a normalized special path to one vertex; nullity is preserved.

    The merged vertex keeps every edge of v1 and v3 (their neighborhoods are
    disjoint apart from v2) with the original signs, takes the smallest of
    the three freed ids, and the remaining vertices are compacted
    order-preservingly.
    """
    return _contract(g, _require_normalized(g, p))


def _contract(g: SignedGraph, p: SpecialPath) -> SignedGraph:
    """Normalize the special path p of g as :func:`normalize_special_path`
    does, then contract it as :func:`contract_special_path` does, in one pass.

    Switching at v1 or v3 flips the signs of that vertex's edges; on a path
    that is normalized already, nothing flips.
    """
    v1, v2, v3 = p
    merged, lo, hi = sorted(p)
    t1, t3 = _normalizing_flips(g, v1, v2, v3)
    edges = []
    for a, b, s in g.edges:
        if a == v2 or b == v2:  # the two path edges, the only edges of v2
            continue
        # v1 and v3 are not adjacent, so at most one end is either of them
        if a == v1 or a == v3:
            s *= t1 if a == v1 else t3
            a = merged
        elif b == v1 or b == v3:
            s *= t1 if b == v1 else t3
            b = merged
        a -= (a > lo) + (a > hi)
        b -= (b > lo) + (b > hi)
        edges.append((a, b, s) if a < b else (b, a, s))
    edges.sort()
    return SignedGraph._trusted(g.order - 2, tuple(edges))


def reduce(g: SignedGraph) -> tuple[SignedGraph, ReductionTrace]:
    """Delete pendant pairs until none remain, smallest pendant first.

    Each round removes the lexicographically least pendant pair, so the
    result is reproducible; the nullity never changes along the trace.
    """
    steps: list[PendantDeletion] = []
    current = g
    while True:
        pendants = find_pendants(current)
        if not pendants:
            return current, ReductionTrace(tuple(steps))
        v, u = pendants[0]
        steps.append(PendantDeletion(v, u, compaction_map(current.order, (v, u))))
        current = _delete_pair(current, v, u)
