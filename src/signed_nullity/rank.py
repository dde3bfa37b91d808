"""Exact integer rank and nullity, plus closed-form nullity for forests and cycles.

Everything here runs on exact Python integers; there is no floating point
anywhere, so rank and nullity never depend on a tolerance.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import SignedGraph, adjacency_matrix


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, computed exactly.

    Fraction-free elimination (one-step Bareiss): after step k every working
    entry equals a (k+1)x(k+1) minor of the input, so the division by the
    previous pivot is exact and intermediate growth stays polynomial.  The
    pivot is the first nonzero entry of the remaining submatrix in row-major
    order, brought into place by a row and a column swap.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    r = 0
    prev = 1
    limit = min(rows, cols)
    while r < limit:
        pivot_row = -1
        pivot_col = -1
        for i in range(r, rows):
            mi = m[i]
            for j in range(r, cols):
                if mi[j]:
                    pivot_row, pivot_col = i, j
                    break
            if pivot_row >= 0:
                break
        if pivot_row < 0:
            break
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        if pivot_col != r:
            for row in m:
                row[r], row[pivot_col] = row[pivot_col], row[r]
        mr = m[r]
        p = mr[r]
        for i in range(r + 1, rows):
            mi = m[i]
            f = mi[r]
            if f:
                for j in range(r + 1, cols):
                    mi[j] = (mi[j] * p - f * mr[j]) // prev
                mi[r] = 0
            elif p != prev:
                # rows untouched by the pivot still need the minor rescaling,
                # otherwise later exact divisions break
                for j in range(r + 1, cols):
                    if mi[j]:
                        mi[j] = mi[j] * p // prev
        prev = p
        r += 1
    return r


def nullity(g: SignedGraph) -> int:
    """Multiplicity of the zero eigenvalue: order minus adjacency rank."""
    return g.order - rank(adjacency_matrix(g))


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


def _has_cycle(adj: list[set[int]]) -> bool:
    """True iff the graph with adjacency sets ``adj`` has a cycle: a depth-first
    search then reaches some vertex a second time, not from its parent."""
    seen = [False] * len(adj)
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1)]
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    continue
                if seen[w]:
                    return True
                seen[w] = True
                stack.append((w, v))
    return False


def matching_number(g: SignedGraph) -> int:
    """Maximum matching size of a forest, by greedy leaf elimination.

    Repeatedly match the smallest remaining leaf to its unique neighbor and
    delete both; on forests some maximum matching always contains a leaf
    edge, so the greedy count is exact.
    """
    adj: list[set[int]] = [set() for _ in range(g.order)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    if _has_cycle(adj):
        raise ValueError("graph contains a cycle")
    leaves = sorted((v for v in range(g.order) if len(adj[v]) == 1), reverse=True)
    matched = 0
    while leaves:
        v = leaves.pop()
        if len(adj[v]) != 1:
            continue  # endpoint consumed by an earlier match
        u = next(iter(adj[v]))
        matched += 1
        for w in adj[u]:
            adj[w].discard(u)
            if len(adj[w]) == 1:
                leaves.append(w)
        adj[u].clear()
        adj[v].clear()
        leaves.sort(reverse=True)
    return matched


def forest_nullity_formula(g: SignedGraph) -> int:
    """Nullity of a forest: order minus twice the matching number."""
    return g.order - 2 * matching_number(g)
