"""Canonical codes for underlying graphs, by pruned brute-force minimization.

The code of a graph is the minimal adjacency bit matrix over all vertex
orderings compatible with an iterated neighbor-color refinement, so two
underlying graphs get the same code iff they are isomorphic.  The canonical
form is the all-positive graph with that matrix, so it depends on the code
alone: every member of a class canonizes to the same graph, whichever one a
generator meets first.  Brute force over the refined classes is cheap on
the small, leaf-heavy bicyclic graphs the catalogs canonize; on regular
graphs refinement splits nothing and the cost is n!.
"""

from __future__ import annotations

from itertools import permutations, product

from .graphs import SignedGraph


def _refined_classes(neighbors: list[tuple[int, ...]]) -> list[list[int]]:
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


def canonical_form(g: SignedGraph) -> tuple[str, SignedGraph]:
    """Canonical code of the underlying graph plus the relabeled graph.

    The returned graph is all-positive (signs are not part of the code) with
    vertices renamed to the minimizing order, so isomorphic inputs map to
    the identical graph value.
    """
    n = g.order
    if n == 0:
        return "0:", SignedGraph._trusted(0, ())
    neighbors = [g.neighbors(v) for v in range(n)]
    classes = _refined_classes(neighbors)
    best_rows: tuple[int, ...] | None = None
    best_pos: list[int] | None = None
    pos = [0] * n
    for arrangement in product(*(permutations(c) for c in classes)):
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
        if best_rows is None or key < best_rows:
            best_rows = key
            best_pos = pos[:]
    assert best_rows is not None and best_pos is not None
    packed = 0
    for i in range(n):
        for j in range(i + 1, n):
            packed = (packed << 1) | ((best_rows[i] >> (n - 1 - j)) & 1)
    code = f"{n}:{packed:x}"
    edges = sorted(
        (min(best_pos[u], best_pos[v]), max(best_pos[u], best_pos[v]), 1)
        for u, v, _ in g.edges
    )
    return code, SignedGraph._trusted(n, tuple(edges))


def canonical_code(g: SignedGraph) -> str:
    return canonical_form(g)[0]
