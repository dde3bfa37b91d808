"""Exact integer rank and nullity, plus closed-form nullity for forests and cycles.

Everything here runs on exact Python integers; there is no floating point
anywhere, so rank and nullity never depend on a tolerance.  Every exact
elimination of the package is here: the rank kernel, and the null-space
reader that the tree sweep and the catalog build read ranks off.  One more
elimination, over GF(2), gives no rank at all but a lower bound on the
rank of every signing of a graph at once, which the catalog build prunes
by before it ranks any (:func:`_mod2_rank_support`).
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .graphs import SignedGraph, _integer, adjacency_matrix


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, computed exactly.

    Fraction-free elimination (one-step Bareiss): after step k every working
    entry is, up to sign, a (k+1)x(k+1) minor of the input, so the division
    by the previous pivot is exact and intermediate growth stays polynomial.
    The pivot is the first nonzero entry, top down, of the first column that
    has one below the rows already used, brought into place by a row swap.

    A row the pivot p does not touch must be multiplied by p and divided by
    the previous pivot to stay a minor.  When p is that pivot up to sign,
    this only negates the row or does nothing, so it is skipped: every row
    and pivot is then its Bareiss value up to sign, an update from them is
    the Bareiss update up to sign, so every division stays exact, and a
    sign does not change the rank.

    The same holds when the elimination is carried on to reduced form,
    with the rows above the pivot updated by the same formula as the rows
    below (Nakos, Turner and Williams, "Fraction-free algorithms for linear
    and polynomial equations", ACM SIGSAM Bull. 31, 1997): an entry of a
    row above the pivot is then, up to sign, the minor of the pivot block
    with the row's own pivot column swapped for the entry's column, so the
    divisions stay exact there too.  :func:`_null_supports` runs this way on
    the input with a unit block appended.  Entries at and left of the pivot
    column are never read again and are left as they are; they are not
    minors, and a division there would not be exact.

    The argument is copied, not modified, and each entry through
    ``operator.index``: a float or fraction, which the exact divisions
    would truncate, is refused with ValueError, and a fixed-width integer,
    such as numpy's, becomes a Python int that cannot overflow.
    """
    try:
        m = [list(map(index, row)) for row in matrix]
    except TypeError:
        raise ValueError("rank needs a matrix of integers") from None
    for row in m:
        if len(row) != len(m[0]):
            raise ValueError("ragged matrix")
    return _eliminate(m)


def _eliminate(m: list[list[int]]) -> int:
    """The kernel of :func:`rank`, on a rectangular matrix that it overwrites.

    It shares the pivot rule and the rescale skip of :func:`_null_supports`
    but not its loop, because one loop with a switch for the appended
    columns and the rows above the pivot made this kernel, where the
    bicyclic sweeps spend about 40% of their time, 3-5% slower per call.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
        mr = m[r]
        p = mr[c]
        rescale = p != prev and p != -prev
        for i in range(r + 1, rows):
            mi = m[i]
            f = mi[c]
            if f:
                for j in range(c + 1, cols):
                    mi[j] = (mi[j] * p - f * mr[j]) // prev
            elif rescale:
                for j in range(c + 1, cols):
                    if mi[j]:
                        mi[j] = mi[j] * p // prev
        prev = p
        r += 1
    return r


def _null_supports(m: list[list[int]]) -> tuple[int, set[int], set[int], set[int]]:
    """The rank of an integer matrix, which it leaves unchanged, the
    supports of its left and right null spaces: the rows i where some y
    with y m = 0 has y[i] != 0, and the columns j where some v with m v = 0
    has v[j] != 0; and, for a symmetric m, the columns c outside the right
    support where the solution y of m y = e_c has y[c] != 0 (a set that
    means nothing for other m).

    One-step Bareiss, with :func:`_eliminate`'s pivot rule and rescale skip,
    runs on a copy of m with the unit rows appended as columns, [m | I],
    and is carried on to reduced form: at each pivot every other row, above
    it or below, is updated from the next column on, and the divisions stay
    exact (see :func:`rank`).  Pivots come only from m's columns, and they
    count the rank.  Each row carries the unit-row combination it is of m's
    rows, so the rows that reduce to zero end as a basis of the left null
    space.  The right null space has a basis with one vector per free
    (pivot-less) column f: 1 at f, nonzero at each pivot column whose row
    is nonzero at f, 0 elsewhere.  So its support is the free columns and
    the pivot columns whose rows reach one.  Once the pivots pass f, each
    later pivot row is 0 at f, so a step would only scale a row's entry at f
    by a nonzero factor; it is left as it is, and only whether it is 0 is
    read.  The row space is the orthogonal complement of the right null
    space, so appending the unit row e_j to m raises its rank exactly when
    j is in the right support; so does the unit column e_i when i is in the
    left.

    Each row is t m for the unit-row combination t it carries.  When m is
    symmetric, both supports are one; take c outside it.  Then c is a pivot
    column, e_c lies in the column space, and m y = e_c fixes y[c], since
    every null vector is 0 at c.  The row of pivot c, with pivot d, is 0 at
    the free columns and at the other pivot columns, so it reads
    d y[c] = t e_c: y[c] != 0 exactly when the row's own carried entry at c
    is.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    width = cols + rows
    work = [list(row) + [0] * rows for row in m]
    for i, row in enumerate(work):
        row[cols + i] = 1
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(cols):
        for i in range(r, rows):
            if work[i][c]:
                break
        else:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
        mr = work[r]
        p = mr[c]
        rescale = p != prev and p != -prev
        for mi in work[:r] + work[r + 1 :]:
            f = mi[c]
            if f:
                for j in range(c + 1, width):
                    mi[j] = (mi[j] * p - f * mr[j]) // prev
            elif rescale:
                for j in range(c + 1, width):
                    if mi[j]:
                        mi[j] = mi[j] * p // prev
        pivots.append(c)
        prev = p
        r += 1
    free = set(range(cols)).difference(pivots)
    right = free.union(c for c, row in zip(pivots, work) if any(row[f] for f in free))
    solved = {c for c, row in zip(pivots, work) if c not in right and c < rows and row[cols + c]}
    left = {i for row in work[r:] for i in range(rows) if row[cols + i]}
    return r, left, right, solved


def _bordered_ranks(m: list[list[int]]) -> list[int]:
    """Entry u is the rank of the symmetric integer matrix m, which it
    leaves unchanged, bordered by the unit row and column e_u with a 0
    corner: the matrix of m's graph plus a leaf hung at u.

    With rank rho, it is rho + 2 when e_u is outside m's column space, that
    is, when u is in the null space's support; otherwise e_u = m y, the
    Schur complement of m in the bordered matrix is the 1x1 block -y[u],
    and the rank is rho + 1 when y[u] != 0 and rho when it is 0.  One pass
    of :func:`_null_supports`, Bareiss carried on to reduced form, gives rho
    and both tests for every u.
    """
    rho, _, support, solved = _null_supports(m)
    return [rho + 2 if u in support else rho + (u in solved) for u in range(len(m))]


def _mod2_rank_support(g: SignedGraph) -> tuple[int, set[int]]:
    """A lower bound on the rank of every signing of g, its adjacency rank
    over GF(2), and the vertices u where a leaf hung at u raises it.

    Every minor of an integer matrix, read mod 2, is the same minor of the
    matrix mod 2, so the rank mod 2 never exceeds the rank over the
    rationals; and since -1 = 1 mod 2, it is one number for every signing
    of g.  Gauss-Jordan runs on the rows as int bitmasks, each reduced by
    the pivots so far and, if nonzero, made a pivot at its lowest bit,
    which is then cleared from the other pivot rows.  So every pivot row is
    0 at the other pivots, and the null space is spanned by one vector per
    free (pivot-less) column f: 1 at f and at each pivot whose row is 1 at
    f.  Its support is every vertex but the pivots u whose row is e_u.

    The matrix mod 2 is symmetric with a zero diagonal, so x A x = 0 for
    every x, and its rank is even.  The same holds for A bordered by the
    unit row and column e_u with a 0 corner, g plus a leaf at u, so the
    leaf raises the rank by 0 or 2.  It raises it by 2 exactly when u is in
    the null space's support: otherwise e_u, orthogonal to the null space,
    is A y for some y, and the Schur complement, y A y = 0, adds nothing.
    """
    pivots: dict[int, int] = {}  # pivot bit -> its reduced row
    for nbrs in g._sorted_neighbors:
        row = sum(1 << w for w in nbrs)
        for bit, reduced in pivots.items():
            if row & bit:
                row ^= reduced
        if row:
            bit = row & -row
            for other, reduced in pivots.items():
                if reduced & bit:
                    pivots[other] = reduced ^ row
            pivots[bit] = row
    return len(pivots), {u for u in range(g.order) if pivots.get(1 << u) != 1 << u}


def nullity(g: SignedGraph) -> int:
    """Multiplicity of the zero eigenvalue: order minus adjacency rank.

    The rank kernel overwrites the fresh adjacency matrix, with no copy.
    """
    return g.order - _eliminate(adjacency_matrix(g))


def cycle_nullity_formula(length: int, balanced: bool) -> int:
    """Closed-form nullity of a signed cycle of the given length.

    A balanced cycle is singular (nullity 2) exactly when its length is
    divisible by 4; an unbalanced one exactly when the length is 2 mod 4.
    The length is read as the graph layer reads orders, so a numpy integer
    is accepted and a bool, float or string raises ValueError; so does a
    ``balanced`` that is not a bool.
    """
    length = _integer("cycle length", length)
    if not isinstance(balanced, bool):
        raise ValueError(f"balanced must be a bool, got {balanced!r}")
    if length < 3:
        raise ValueError("cycles have length >= 3")
    if balanced:
        return 2 if length % 4 == 0 else 0
    return 2 if length % 4 == 2 else 0


def matching_number(g: SignedGraph) -> int:
    """Maximum matching size of a forest, by leaves-up greedy matching.

    One depth-first pass over the graph's neighbor table records each
    vertex's parent in visiting order and rejects any edge that reaches a
    visited vertex other than the parent.  Walking that order backwards
    meets every vertex after all of its descendants; matching each unmatched
    vertex to its parent while the parent is free is exact on forests,
    because some maximum matching always contains a leaf edge.
    """
    n = g.order
    adj = g._sorted_neighbors
    parent = [-2] * n  # -2 = unvisited, -1 = root
    preorder: list[int] = []
    for root in range(n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        stack = [root]
        while stack:
            v = stack.pop()
            preorder.append(v)
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    stack.append(w)
                elif w != parent[v]:
                    raise ValueError("graph contains a cycle")
    matched = [False] * n
    count = 0
    for v in reversed(preorder):
        p = parent[v]
        if p >= 0 and not matched[v] and not matched[p]:
            matched[v] = matched[p] = True
            count += 1
    return count


def forest_nullity_formula(g: SignedGraph) -> int:
    """Nullity of a forest: order minus twice the matching number."""
    return g.order - 2 * matching_number(g)
