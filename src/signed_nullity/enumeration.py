"""Exhaustive generators: labeled trees, rooted trees, bicyclic classes,
switching classes.

The bicyclic classes are constructed here, one 2-core shape at a time, with
no canonizer: :func:`hung_classes` hangs rooted trees on the core and keeps
one assignment per orbit of the core's automorphisms.  The bicyclic sweeps
of :mod:`signed_nullity.verification` read them from it, and read each
class's switching classes off its core with :func:`hung_switching_classes`,
and which of them stay switching-equivalent once a core vertex is deleted
with :func:`core_cut_classes`.
The connected classes and the catalogs' rank-pruned bicyclic classes are
grown there by canonical extension instead.  All streams are in a fixed
deterministic order.  No order is capped here: the caps of the sweeps and
the catalogs live in the sweep table of :mod:`signed_nullity.verification`.
"""

from __future__ import annotations

from itertools import islice, product
from math import prod
from operator import itemgetter
from typing import Callable, Iterator

from .graphs import SignedGraph, _spanning_forest, fundamental_cycles
from .recognizers import shape_order


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


RootedTree = tuple  # the sorted tuple of the root's subtrees; a lone root is ()


def rooted_trees(max_size: int) -> list[list[RootedTree]]:
    """Every rooted tree with s vertices up to isomorphism, sorted, at index
    s = 0..max_size (none at 0).

    A rooted tree is the multiset of its root's subtrees, so each tree of
    size s is met once by choosing subtrees of total size s-1 in
    non-increasing position, sizes first, among the trees listed so far.
    No isomorphism test is made (the counts are OEIS A000081; Beyer and
    Hedetniemi, "Constant time generation of rooted trees", SIAM J. Comput.
    9, 1980, generate the same trees as level sequences).
    """
    trees: list[list[RootedTree]] = [[], [()]][: max_size + 1]
    listed: list[tuple[int, RootedTree]] = [(1, ())] if max_size >= 1 else []

    def multisets(budget: int, top: int) -> Iterator[tuple[RootedTree, ...]]:
        if budget == 0:
            yield ()
            return
        for i in range(top):
            size, tree = listed[i]
            if size > budget:
                break
            for rest in multisets(budget - size, i + 1):
                yield (tree, *rest)

    for s in range(2, max_size + 1):
        trees.append(sorted(tuple(sorted(children)) for children in multisets(s - 1, len(listed))))
        listed += [(s, tree) for tree in trees[s]]
    return trees


def _tree_layout(tree: RootedTree) -> tuple[tuple[int, ...], int]:
    """The parent of each non-root vertex of ``tree`` and its automorphism count.

    Vertices are numbered in post-order, so every vertex comes before its
    parent and the root, last, is left out: a tree of size s gives s-1
    parents in 0..s-1.  Each subtree's automorphisms fix the root, and so
    does swapping equal subtrees: the count is the product over the
    subtrees, times c! for each subtree that occurs c times.
    """
    parents: list[int] = []
    roots = []
    automorphisms = 1
    for i, child in enumerate(tree):
        below, count = _tree_layout(child)
        offset = len(parents)
        parents += [offset + p for p in below]
        roots.append(len(parents))
        parents.append(-1)
        # the k-th of k equal subtrees in a row adds a factor k
        run = 1
        while run <= i and tree[i - run] == child:
            run += 1
        automorphisms *= count * run
    for r in roots:
        parents[r] = len(parents)
    return tuple(parents), automorphisms


def _automorphisms(g: SignedGraph) -> list[tuple[int, ...]]:
    """Every automorphism of g's underlying graph, as the tuple of images.

    A backtracking search places vertices 0, 1, ... in turn.  A vertex
    with an earlier neighbor takes its candidates from the neighbors of
    that neighbor's image, the least one's; any other takes every vertex.
    A candidate must be unused, of the vertex's degree, and adjacent to the
    image of each of its earlier neighbors.  Only edges are tested, not
    non-edges: a bijection that maps every edge to an edge maps the edge
    set onto itself, as it has no more edges to map to, and so maps
    non-edges to non-edges.  Meant for the small cores of the bicyclic
    shapes, where a vertex after the first of its chain has an earlier
    neighbor.
    """
    nbrs = [set(ns) for ns in g._sorted_neighbors]
    earlier = [[u for u in ns if u < v] for v, ns in enumerate(g._sorted_neighbors)]
    everyone = range(g.order)
    image = [-1] * g.order
    used = [False] * g.order
    found = []

    def place(v: int) -> None:
        if v == g.order:
            found.append(tuple(image))
            return
        back = earlier[v]
        for w in nbrs[image[back[0]]] if back else everyone:
            if not used[w] and len(nbrs[w]) == len(nbrs[v]) and all(
                image[u] in nbrs[w] for u in back
            ):
                image[v], used[w] = w, True
                place(v + 1)
                used[w] = False

    place(0)
    return found


def hung_classes(
    shape: BaseShape, max_n: int, min_n: int = 0
) -> Iterator[tuple[SignedGraph, int]]:
    """One graph per isomorphism class whose 2-core is ``shape``, order by
    order from min_n (or the core's order) up to max_n, each with the
    order of its automorphism group.  No canonizer is called.

    Such a graph is its core with a rooted tree hung on each core vertex,
    and an isomorphism maps core onto core.  So the classes are the orbits
    of Aut(core) on the assignments of rooted trees to core vertices, and
    an assignment is kept only if it is the least in its orbit.  Its
    stabilizer is the image of Aut(G) in Aut(core), and the automorphisms
    that fix the core pointwise are those of the trees, so |Aut(G)| is the
    stabilizer's order times the trees' automorphism counts.

    The graph is labeled leaves up: the tree vertices come first, each
    before its parent (post-order, tree by tree), and the core takes the
    highest labels, in :func:`base_graph`'s layout.  The rank kernel
    eliminates the trees first then, and runs faster on these labels than
    with the core first.
    """
    core = base_graph(shape)
    k = core.order
    permuted = [itemgetter(*sigma) for sigma in _automorphisms(core)]
    # a tree's position in ``layouts`` names its class in the orbit test
    layouts: list[tuple[tuple[int, ...], int]] = []
    ids_of_size = []
    for trees in rooted_trees(max_n - k + 1):
        ids_of_size.append(range(len(layouts), len(layouts) + len(trees)))
        layouts += map(_tree_layout, trees)

    def assignments(vertices: int, budget: int) -> Iterator[tuple[int, ...]]:
        # the tree ids of ``vertices`` core vertices with ``budget`` non-root vertices in all
        if vertices == 1:
            yield from ((i,) for i in ids_of_size[budget + 1])
            return
        for extra in range(budget + 1):
            for i in ids_of_size[extra + 1]:
                for rest in assignments(vertices - 1, budget - extra):
                    yield (i, *rest)

    for n in range(max(k, min_n), max_n + 1):
        t = n - k
        core_edges = tuple((t + u, t + v, 1) for u, v, _ in core.edges)
        for assigned in assignments(k, t):
            stabilizer = 0
            for permute in permuted:
                image = permute(assigned)
                if image < assigned:
                    break
                stabilizer += image == assigned
            else:
                edges = []
                automorphisms = stabilizer
                for c, i in enumerate(assigned):
                    parents, count = layouts[i]
                    root = len(parents)
                    offset = len(edges)
                    edges += [
                        (offset + j, offset + p if p < root else t + c, 1)
                        for j, p in enumerate(parents)
                    ]
                    automorphisms *= count
                yield SignedGraph._trusted(n, (*edges, *core_edges)), automorphisms


def hung_switching_classes(shape: BaseShape) -> Callable[[SignedGraph], Iterator[SignedGraph]]:
    """A function that gives one signed graph per switching class of each
    graph :func:`hung_classes` yields for ``shape``, the all-positive one first.

    :func:`hung_classes` puts the core's edges last, in :func:`base_graph`'s
    order, and every other edge is a tree edge on no cycle.  So a spanning
    tree of the core, with the hung trees, spans the graph, and the core
    edges outside it sit at the same positions, counted from the end of the
    edge tuple, in every graph of the shape: they are found once, here, and
    the 2^c sign patterns on them meet every switching class once, as in
    :func:`signature_representatives`.
    """
    core = base_graph(shape)
    size = len(core.edges)
    free_positions = [i - size for i in _spanning_forest(core)[2]]
    return lambda g: _sign_patterns(g, free_positions)


def core_cut_classes(shape: BaseShape) -> tuple[tuple[int, ...], ...]:
    """At core vertex c, in :func:`base_graph`'s labels, and index i, the
    least index of a :func:`hung_switching_classes` pattern that gives every
    cycle of the core without c the sign that pattern i gives it.

    Every cycle of a graph of the shape lies in its core, so deleting core
    vertex c keeps only the core's cycles that avoid c.  Two signings of
    one graph are switching-equivalent exactly when they give every cycle
    the same sign (Zaslavsky, "Signed graphs", Discrete Appl. Math. 4,
    1982): patterns with one entry at c give switching-equivalent graphs
    once c is gone, and patterns with different entries do not.  The cycles
    of a bicyclic core are its two fundamental cycles and, when they share
    an edge (a theta), their edge sum.  A cycle's sign under a pattern is
    the product of the pattern's signs on the non-tree edges it contains;
    fundamental cycle r contains the r-th one only.
    """
    core = base_graph(shape)
    fundamental = [
        {(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        for cycle in fundamental_cycles(core)
    ]
    cycles = [(edges, (r,)) for r, edges in enumerate(fundamental)]
    if fundamental[0] & fundamental[1]:
        cycles.append((fundamental[0] ^ fundamental[1], (0, 1)))
    patterns = list(product((1, -1), repeat=len(fundamental)))
    table = []
    for c in range(core.order):
        kept = [closing for edges, closing in cycles if all(c not in edge for edge in edges)]
        least: dict[tuple[int, ...], int] = {}
        table.append(tuple(
            least.setdefault(tuple(prod(pattern[r] for r in closing) for closing in kept), i)
            for i, pattern in enumerate(patterns)
        ))
    return tuple(table)


def signature_representatives(g: SignedGraph) -> Iterator[SignedGraph]:
    """One signed graph per switching class of g's underlying graph.

    Fixing a spanning tree all-positive leaves the non-tree edge signs as a
    complete switching invariant (they are the fundamental cycle signs), so
    the 2^c sign patterns on non-tree edges meet every class exactly once.
    """
    parent, _, non_tree = _spanning_forest(g)
    if parent.count(-1) > 1:
        raise ValueError("switching-class enumeration needs a connected graph")
    yield from _sign_patterns(g, non_tree)


def _sign_patterns(g: SignedGraph, free_positions: list[int]) -> Iterator[SignedGraph]:
    """g with every sign pattern on the edges at ``free_positions`` and every
    other edge positive, the all-positive pattern first."""
    edges = [(u, v, 1) for u, v, _ in g.edges]
    for pattern in product((1, -1), repeat=len(free_positions)):
        for where, sign in zip(free_positions, pattern):
            u, v, _ = edges[where]
            edges[where] = (u, v, sign)
        yield g._resigned(tuple(edges))
