"""Exact integer rank and nullity, plus closed-form nullity for forests and cycles.

Everything here runs on exact Python integers; there is no floating point
anywhere, so rank and nullity never depend on a tolerance.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .graphs import SignedGraph, adjacency_matrix


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
    sign does not change the rank.  The argument is copied, not modified,
    and each entry through ``operator.index``: a float or fraction, which
    the exact divisions would truncate, is refused with ValueError, and a
    fixed-width integer, such as numpy's, becomes a Python int that cannot
    overflow.
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
    """The kernel of :func:`rank`, on a rectangular matrix that it overwrites."""
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


def nullity(g: SignedGraph) -> int:
    """Multiplicity of the zero eigenvalue: order minus adjacency rank.

    The rank kernel overwrites the fresh adjacency matrix, with no copy.
    """
    return g.order - _eliminate(adjacency_matrix(g))


def cycle_nullity_formula(length: int, balanced: bool) -> int:
    """Closed-form nullity of a signed cycle of the given length.

    A balanced cycle is singular (nullity 2) exactly when its length is
    divisible by 4; an unbalanced one exactly when the length is 2 mod 4.
    """
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
