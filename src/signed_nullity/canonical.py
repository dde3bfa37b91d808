"""Canonical codes for underlying graphs, by a branch-and-bound search for the
least adjacency matrix.

The code of a graph is the least adjacency bit matrix, compared row by row,
over the vertex orders compatible with an iterated neighbor-color
refinement, so two underlying graphs get the same code iff they are
isomorphic.  The canonical form is the all-positive graph with that matrix,
so it depends on the code alone: every member of a class canonizes to the
same graph, whichever one a generator meets first.

The search fills positions 0, 1, 2, ... in turn, starting from the refined
classes in color order as an ordered partition of the positions (McKay's
individualization, "Practical graph isomorphism", Congr. Numer. 30, 1981).
The vertex at position i comes from the cell that holds position i, and
placing it splits every later cell into its non-neighbors followed by its
neighbors.  Later placements only split cells further, so row i is fixed
once position i is.  Its bits for earlier positions are fixed before, and
the split puts its ones as late as each cell allows.  Reordering vertices
inside the cells changes no earlier row, and rows are compared first to
last, so an order that gives the least matrix obeys every split: it is a
leaf of this tree.  The search therefore finds the least matrix
over all orders of the refined classes, and every order that ties it.  A
child is dropped when its row i is above a sibling's, or above row i of the
best matrix found so far while rows 0..i-1 tie it.  A partition of
singletons fixes the rest of the order and is completed directly, so a
graph that refinement splits completely costs one pass over its rows.

A vertex is placed only when every smaller twin of it has been.  Twins are
vertices with equal neighbor lists, or with equal closed neighborhoods;
swapping two of them is an automorphism, so it changes no matrix and the
minimum stays the same.  Every order that ties the minimum is kept: they
differ from each other by automorphisms, and together with the twin swaps
they generate the automorphism group, so a union-find over them gives the
vertex orbits that :func:`_canonize` reports.

A placement is one search node.  C20 takes 340 of them, the Petersen graph
190, K5,5 18, and the small, leaf-heavy graphs the class builder canonizes
a few each.  A graph whose tied orders explode still costs a leaf per tie:
four disjoint copies of C5 have 240,000 of them.  So the public
:func:`canonical_form` and :func:`canonical_code` raise ValueError once the
search passes MAX_SEARCH_NODES = 5,000 placements, while :func:`_canonize`,
which the class builder calls, takes no bound.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import SignedGraph

MAX_SEARCH_NODES = 5000


def _refined_classes(neighbors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Vertex classes under iterated neighbor-color refinement.

    ``neighbors[v]`` lists the neighbors of vertex v.  Colors start as
    degrees and are refined by the sorted multiset of neighbor colors until
    the partition stabilizes.  Color ranks depend only on the isomorphism
    class, so isomorphic graphs refine identically.
    """
    n = len(neighbors)
    color = [len(neighbors[v]) for v in range(n)]
    count = len(set(color))
    while True:
        signature = [
            (color[v], tuple(sorted(map(color.__getitem__, neighbors[v])))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        color = [palette[sig] for sig in signature]
        if len(palette) == count:
            break
        count = len(palette)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def _link(root: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Join each pair in the union-find ``root``, whose roots are the least
    members of their sets."""
    for a, b in pairs:
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        if a != b:
            root[max(a, b)] = min(a, b)


def _least_order(
    neighbors: tuple[tuple[int, ...], ...], max_nodes: int | None
) -> tuple[list[int], list[int], list[int]]:
    """The least rows, an order ``pos`` (vertex -> position) that gives them,
    and ``root``, a union-find over positions whose roots are the least
    position of each orbit.  Raises ValueError after ``max_nodes``
    placements, if given."""
    n = len(neighbors)
    bit = [1 << (n - 1 - j) for j in range(n)]  # position j's bit in a row
    classes = _refined_classes(neighbors)
    cells = []  # the classes as bit sets of vertices
    for c in classes:
        cell = 0
        for v in c:
            cell |= 1 << v
        cells.append(cell)
    # adj[v]: v's neighbors as a bit set.  earlier[v]: v's twins with smaller
    # ids, which share v's refined class.  No neighbor list equals a closed
    # neighborhood, and a vertex with a false twin (equal neighbors, not
    # adjacent) has no true twin (equal closed neighborhoods), so one lookup
    # per kind finds v's group.  Twins stay in one cell until one of them is
    # placed, so a vertex may be placed once none of them is left in its
    # cell.  A discrete root is a leaf and needs neither list.
    adj = [0] * n
    earlier = [0] * n
    if len(classes) < n:
        for v, nbrs in enumerate(neighbors):
            for u in nbrs:
                adj[v] |= 1 << u
        group: dict[int, int] = {}
        for c in classes:
            if len(c) > 1:
                for v in c:
                    for key in (adj[v], adj[v] | 1 << v):
                        earlier[v] |= group.get(key, 0)
                        group[key] = group.get(key, 0) | 1 << v

    pos = [0] * n
    rows = [0] * n
    best: list[int] = []
    best_pos: list[int] = []
    root: list[int] = []
    nodes = 0
    # one frame per open node: position, cells, the placed vertices, the
    # children (the candidates whose row ties the least), the next child,
    # whether rows 0..i tie the best ones, and the children's row
    stack: list[list] = []
    i = placed = 0
    tied = False  # rows 0..i-1 tie best's (False: better, or no best yet)
    while True:
        if len(cells) == n - i:
            # singletons only: the rest of the order is fixed
            order = [c.bit_length() - 1 for c in cells]
            for j, v in enumerate(order, i):
                pos[v] = j
            for j, v in enumerate(order, i):
                row = 0
                for u in neighbors[v]:
                    row |= bit[pos[u]]
                if tied and row != best[j]:
                    if row > best[j]:
                        break
                    tied = False
                rows[j] = row
            else:
                if not tied:
                    best, best_pos, root = rows[:], pos[:], list(range(n))
                else:
                    # a tie maps best_pos[v] to pos[v], an automorphism of
                    # the canonical graph
                    _link(root, zip(best_pos, pos))
        else:
            first = cells[0]
            shifts = []  # a row's ones in a cell fill its tail, down to this bit
            end = i
            for c in cells:
                end += c.bit_count()
                shifts.append(n - end)
            low = -1
            children: list[int] = []
            m = first
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if earlier[v] & first:
                    continue
                a = adj[v]
                row = 0
                for u in neighbors[v]:
                    if placed >> u & 1:
                        row |= bit[pos[u]]
                for c, shift in zip(cells, shifts):
                    k = (c & a).bit_count()
                    if k:
                        row |= ((1 << k) - 1) << shift
                if low < 0 or row < low:
                    low, children = row, [v]
                elif row == low:
                    children.append(v)
            if not tied or low <= best[i]:
                stack.append([i, cells, placed, children, 0, tied and low == best[i], low])
        # descend into the next child of the deepest open node
        while stack:
            frame = stack[-1]
            i, cells, placed, children, k, tied, low = frame
            if k < len(children):
                break
            stack.pop()
        else:
            break
        # once a child is searched, the best rows tie this node's
        frame[4], frame[5] = k + 1, True
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise ValueError(f"canonical form needs more than {max_nodes} search nodes")
        v = children[k]
        b, a = 1 << v, adj[v]
        pos[v], rows[i] = i, low
        split = []
        for c in (cells[0] ^ b, *cells[1:]):
            nb = c & a
            if nb and nb != c:
                split += (c ^ nb, nb)
            elif c:
                split.append(c)
        cells, i, placed = split, i + 1, placed | b
    # each twin swap maps v to its least twin
    lead = [(t & -t).bit_length() - 1 for t in earlier]
    _link(root, ((best_pos[v], best_pos[lead[v]]) for v in range(n) if earlier[v]))
    return best, best_pos, root


def _canonize(
    g: SignedGraph, max_nodes: int | None = None
) -> tuple[str, SignedGraph, tuple[int, ...]]:
    """Canonical code, canonical graph, and the least vertex of each orbit of
    the canonical graph's automorphism group, in ascending order.

    The search is bounded only when ``max_nodes`` is given: the class
    builder calls this in its inner loop, on graphs whose searches are
    small, and passes no bound.
    """
    n = g.order
    if n == 0:
        return "0:", SignedGraph._trusted(0, ()), ()
    best_rows, best_pos, root = _least_order(g._sorted_neighbors, max_nodes)
    packed = 0
    for i, row in enumerate(best_rows):
        # the bits of row i right of the diagonal, positions i+1..n-1
        packed = (packed << (n - 1 - i)) | (row & ((1 << (n - 1 - i)) - 1))
    edges = sorted(
        (min(best_pos[u], best_pos[v]), max(best_pos[u], best_pos[v]), 1)
        for u, v, _ in g.edges
    )
    orbit_reps = tuple(i for i in range(n) if root[i] == i)
    return f"{n}:{packed:x}", SignedGraph._trusted(n, tuple(edges)), orbit_reps


def canonical_form(g: SignedGraph) -> tuple[str, SignedGraph]:
    """Canonical code of the underlying graph plus the relabeled graph.

    The returned graph is all-positive (signs are not part of the code) with
    vertices renamed to the least order the row-by-row search finds, so
    isomorphic inputs map to the identical graph value.  Raises ValueError
    once the search passes MAX_SEARCH_NODES (5,000) placements: C20 takes
    340, four disjoint copies of C5 would take about 400,000.
    """
    code, canon, _ = _canonize(g, MAX_SEARCH_NODES)
    return code, canon


def canonical_code(g: SignedGraph) -> str:
    """The canonical code alone, under the same bound as :func:`canonical_form`."""
    return canonical_form(g)[0]
