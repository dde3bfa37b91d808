"""Canonical codes for underlying graphs, by pruned brute-force minimization.

The code of a graph is the minimal adjacency bit matrix over all vertex
orderings compatible with an iterated neighbor-color refinement, so two
underlying graphs get the same code iff they are isomorphic.  The canonical
form is the all-positive graph with that matrix, so it depends on the code
alone: every member of a class canonizes to the same graph, whichever one a
generator meets first.

Inside each refined class the search tries only the orders that list every
group of twins in id order.  Twins are vertices with equal neighbor lists,
or with equal closed neighborhoods; swapping two of them is an automorphism,
so it changes no matrix and the minimum stays the same.  The orderings that
tie the minimum differ from each other by automorphisms, and together with
the twin swaps they generate the automorphism group, so a union-find over
them gives the vertex orbits that :func:`_canonize` reports.  The search is
cheap on the small, leaf-heavy graphs the class builder canonizes; on
twin-free graphs that refinement cannot split, such as cycles, it still
costs n!.  So the public :func:`canonical_form` and :func:`canonical_code`
count the orders first and refuse a search of more than 9! of them.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import factorial
from typing import Iterable

from .graphs import SignedGraph

MAX_SEARCH_ORDERS = factorial(9)  # C9 takes about 1 s at this size


def _refined_classes(neighbors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Vertex classes under iterated neighbor-color refinement.

    ``neighbors[v]`` lists the neighbors of vertex v.  Colors start as
    degrees and are refined by the sorted multiset of neighbor colors until
    the partition stabilizes.  Color ranks depend only on the isomorphism
    class, so isomorphic graphs refine identically.
    """
    n = len(neighbors)
    color = [len(neighbors[v]) for v in range(n)]
    while True:
        signature = [
            (color[v], tuple(sorted(color[u] for u in neighbors[v]))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new_color = [palette[sig] for sig in signature]
        if len(set(new_color)) == len(set(color)):
            color = new_color
            break
        color = new_color
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def _twin_orders(block: list[int], twin: list[int]) -> Iterable[tuple[int, ...]]:
    """Every order of ``block`` (ascending ids) that lists each twin group in
    id order; ``twin[v]`` names v's group."""
    if len({twin[v] for v in block}) == len(block):
        return permutations(block)
    orders = []
    for i, v in enumerate(block):
        # v may come next only if no smaller member of its group is left
        if all(twin[u] != twin[v] for u in block[:i]):
            orders.extend((v,) + rest for rest in _twin_orders(block[:i] + block[i + 1 :], twin))
    return orders


def _search_space(neighbors: tuple[tuple[int, ...], ...]) -> tuple[list[list[int]], list[int]]:
    """The refined classes, and twin[v], the least twin of each vertex v."""
    classes = _refined_classes(neighbors)
    # Twins share a refined class.  No neighbor list equals a closed
    # neighborhood, and a vertex with a false twin (equal neighbors, not
    # adjacent) has no true twin (equal closed neighborhoods), so one lookup
    # per kind finds the group.
    twin = list(range(len(neighbors)))
    for c in classes:
        if len(c) > 1:
            lead: dict[tuple[int, ...], int] = {}
            for v in c:
                closed = tuple(sorted(neighbors[v] + (v,)))
                twin[v] = min(lead.setdefault(neighbors[v], v), lead.setdefault(closed, v))
    return classes, twin


def _order_count(classes: list[list[int]], twin: list[int]) -> int:
    """How many orders the search tries: the product over the refined
    classes of s! / (the product of the twin-group sizes, each factorial)."""
    count = 1
    for c in classes:
        count *= factorial(len(c))
        for size in Counter(twin[v] for v in c).values():
            count //= factorial(size)
    return count


def _canonize(g: SignedGraph) -> tuple[str, SignedGraph, tuple[int, ...]]:
    """Canonical code, canonical graph, and the least vertex of each orbit of
    the canonical graph's automorphism group, in ascending order.

    The search is not bounded here: the class builder calls this in its
    inner loop, on graphs whose searches are small.
    """
    n = g.order
    if n == 0:
        return "0:", SignedGraph._trusted(0, ()), ()
    neighbors = g._sorted_neighbors
    classes, twin = _search_space(neighbors)
    best_rows: tuple[int, ...] = (1 << n,)  # above every matrix
    ties: list[list[int]] = []  # the orders that give best_rows
    pos = [0] * n
    for arrangement in product(*(_twin_orders(c, twin) for c in classes)):
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
        if key <= best_rows:
            if key != best_rows:
                best_rows = key
                ties = []
            ties.append(pos[:])
    best_pos = ties[0]
    # orbits over canonical ids: each tie maps best_pos[v] to tie[v], and
    # each twin swap maps v to its group's lead; roots are the least members
    root = list(range(n))
    pairs = [(best_pos[v], best_pos[twin[v]]) for v in range(n) if twin[v] != v]
    pairs += [(best_pos[v], tie[v]) for tie in ties[1:] for v in range(n)]
    for a, b in pairs:
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            root[max(a, b)] = min(a, b)
    packed = 0
    for i in range(n):
        for j in range(i + 1, n):
            packed = (packed << 1) | ((best_rows[i] >> (n - 1 - j)) & 1)
    edges = sorted(
        (min(best_pos[u], best_pos[v]), max(best_pos[u], best_pos[v]), 1)
        for u, v, _ in g.edges
    )
    orbit_reps = tuple(i for i in range(n) if root[i] == i)
    return f"{n}:{packed:x}", SignedGraph._trusted(n, tuple(edges)), orbit_reps


def canonical_form(g: SignedGraph) -> tuple[str, SignedGraph]:
    """Canonical code of the underlying graph plus the relabeled graph.

    The returned graph is all-positive (signs are not part of the code) with
    vertices renamed to the minimizing order, so isomorphic inputs map to
    the identical graph value.  Raises ValueError, before searching, when
    the search would try more than MAX_SEARCH_ORDERS vertex orders.
    """
    orders = _order_count(*_search_space(g._sorted_neighbors))
    if orders > MAX_SEARCH_ORDERS:
        raise ValueError(
            f"canonical form needs {orders} vertex orders, above the bound of "
            f"{MAX_SEARCH_ORDERS} (9!)"
        )
    code, canon, _ = _canonize(g)
    return code, canon


def canonical_code(g: SignedGraph) -> str:
    """The canonical code alone, under the same bound as :func:`canonical_form`."""
    return canonical_form(g)[0]
