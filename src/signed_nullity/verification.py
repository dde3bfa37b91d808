"""Exhaustive verification sweeps and nullity catalogs.

Each sweep checks one classification statement over every enumerated
instance and reports the violations (an empty list is the expected
outcome).  Work is split into independent chunks -- one per tree order or
pair of Pruefer symbols, one per 2-core shape, or one for the connected
build.  With N workers, the caller and N - 1 forked children take the
chunks in order from a shared counter (:func:`_run_tasks`; fork is
required, so POSIX only); results are merged commutatively and sorted,
which makes them byte-identical regardless of the worker count.  Graphs
with cycles come from two class builders.  The bicyclic sweeps take each
class from :func:`hung_classes`, which constructs it from its 2-core and
calls no canonizer.  The connected sweeps, and the catalogs, which prune
by rank as they grow, take canonical graphs from
:func:`_classes_by_order`, which grows each order from the one below: from
K1, or from a 2-core shape's base graph by leaves.  The checks then take
each class once per switching class.
"""

from __future__ import annotations

import time
from itertools import product
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional

from .canonical import _canonize
from .enumeration import (
    BaseShape,
    base_graph,
    bicyclic_base_shapes,
    hung_classes,
    prufer_graph,
    prufer_pairs,
    signature_representatives,
)
from .graphs import SignedGraph, _integer as _graph_integer, build_graph, cycle_sign, fundamental_cycles
from .graphio import serialize_graph
from .rank import cycle_nullity_formula, nullity
from .recognizers import (
    BicyclicBase,
    bicyclic_base,
    is_extremal_bicyclic,
    low_rank_neighborhood_check,
    recognize_rank2,
    recognize_rank3,
    shape_order,
)
from .reductions import _contract, _delete_pair, find_pendants, find_special_paths


class UsageError(ValueError):
    """An argument a sweep or a catalog refuses before any work: an unknown
    or non-string theorem id, a non-integer order, k or worker count, a
    non-bool ``balanced_only``, an order outside the accepted range, or
    fewer than one worker.  The CLI exits 2 on it and 4 on any other error."""


def _integer(name: str, value: object) -> int:
    """``value`` as an int by the graph layer's rule for orders and vertex
    ids, so a numpy integer is accepted; a bool, float, fraction or string
    is refused with UsageError."""
    try:
        return _graph_integer(name, value)
    except ValueError as error:
        raise UsageError(*error.args) from None


class Violation(NamedTuple):
    """A failed instance, with a replayable witness graph."""

    order: int
    detail: str
    witness: str  # graph-file text


class TheoremReport(NamedTuple):
    theorem: str
    orders_checked: tuple[int, ...]
    instances_checked: int
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# graph classes grown by canonical extension: the connected ones, and the
# bicyclic ones of the rank-pruned catalogs


def _classes_by_order(
    root: SignedGraph, max_n: int, keep: Optional[Callable[[SignedGraph], bool]] = None
) -> Iterator[dict[str, SignedGraph]]:
    """Canonical code -> canonical graph of every class grown from ``root``,
    one dict per order from the root's up to max_n.

    Each order is every class of the order before plus one new vertex, in
    each way :func:`_extensions` keeps, de-duplicated by canonical code
    (McKay's isomorph-free generation by extension); its docstring shows
    that no class is lost.  The root decides which joins: a connected root
    with a cycle, a 2-core shape's base graph, grows by leaves only, and
    K1, with none, by every join.

    With ``keep``, a class (the root included) that fails it is dropped and
    grows no further.  The test runs on each graph before it is canonized,
    so it must depend on the isomorphism class alone, and a dropped graph is
    never canonized.  A catalog passes one rank test for every order above
    k, which is exact for it: a bicyclic class grows by leaves only, so
    every class on the way to an order-n class H, the canonical parents
    included, is an induced subgraph of H.  Every cycle of H lies in its
    2-core, which those subgraphs share, so a switching class of H restricts
    to a switching class of each of them, and a principal submatrix has at
    most the rank of the whole matrix: if H has a switching class of rank k,
    each class on its way, H itself included, has one of rank at most k.
    """
    leaves_only = len(root.edges) >= root.order
    level: dict[str, tuple[SignedGraph, tuple[int, ...]]] = {}
    if keep is None or keep(root):
        code, canon, reps = _canonize(root)
        level[code] = (canon, reps)
    yield {code: canon for code, (canon, _) in level.items()}
    for _ in range(root.order, max_n):
        grown: dict[str, tuple[SignedGraph, tuple[int, ...]]] = {}
        for g, reps in level.values():
            for h in _extensions(g, reps, leaves_only):
                if keep is None or keep(h):
                    code, canon, orbit_reps = _canonize(h)
                    grown.setdefault(code, (canon, orbit_reps))
        level = grown
        yield {code: canon for code, (canon, _) in level.items()}


def _extensions(
    g: SignedGraph, orbit_reps: tuple[int, ...], leaves_only: bool
) -> Iterator[SignedGraph]:
    """g plus one new vertex, joined by positive edges to each set of old
    vertices that can make the grown graph a canonical child of g: one
    vertex of ``orbit_reps`` (one per orbit of Aut(g)) that passes a degree
    test, then, unless ``leaves_only``, every set of two or more vertices
    that holds all of g's leaves.

    No class is lost.  Let H be a class one order up.  If H has a leaf:
    refinement starts from degrees and only splits classes, so H's canonical
    position 0 is a leaf whose neighbor has the least degree among the
    neighbors of H's leaves.  Deleting it gives H's canonical parent, and H
    is that parent plus a leaf hung from the orbit representative u of its
    neighbor.  Since u, one degree up, has that least degree, each leaf v
    of the parent and its neighbor w have deg(w) > deg(u) unless u is v or
    w: that is the test, and other anchors are skipped uncanonized.  For
    the same reason a wider join that misses a leaf of g is skipped: the
    grown graph keeps that leaf, so it is met through a leaf deletion.  If H
    has no leaf, it has a vertex x that is not a cut vertex; x has two or
    more neighbors, and every leaf of H - x is one of them, or it would stay
    a leaf of H.

    So from K1 the two kinds of joins meet every connected graph, and from a
    bicyclic base graph the leaves alone meet every graph with that 2-core:
    unless it is the core itself, such a graph has a leaf, and deleting a
    leaf keeps the 2-core.
    """
    new = g.order
    degree = [len(nbrs) for nbrs in g._sorted_neighbors]
    leaves = find_pendants(g)
    joins = [
        ((u, new, 1),)
        for u in orbit_reps
        if all(degree[w] > degree[u] for v, w in leaves if u != v and u != w)
    ]
    if not leaves_only:
        wide = [tuple((v, new, 1) for v, _ in leaves)]
        for u in range(new):
            if degree[u] != 1:
                wide += [join + ((u, new, 1),) for join in wide]
        joins += [join for join in wide if len(join) >= 2]
    for join in joins:
        yield SignedGraph._trusted(new + 1, tuple(sorted(g.edges + join)))


def _connected_classes(max_n: int) -> Iterator[SignedGraph]:
    """One canonical graph per class of connected graphs, order by order from K1 up to max_n."""
    for level in _classes_by_order(SignedGraph._trusted(1, ()), max_n):
        yield from level.values()


# The largest order of the bicyclic sweeps, catalogs and classes.  On 2
# workers (2 vCPUs, shared host), lemma2.5, the slowest sweep, takes 20-21 s
# at n <= 12 (theorem3.1 2.6-3.5 s, corollary2.9 3.6-4.0 s), and the largest
# catalog, n = 12 and k = 12 (6,627 entries), takes 8-9 s.  The classes
# themselves are constructed to order 14 in 8 s: the checks set the cap.
_BICYCLIC_MAX_N = 12


def _bicyclic_shapes(n: int) -> list[BaseShape]:
    """The 2-core shapes of the bicyclic classes of order n, once n is checked."""
    if not 4 <= n <= _BICYCLIC_MAX_N:
        raise UsageError(
            f"bicyclic classes have orders 4 up to {_BICYCLIC_MAX_N} (their ceiling), got {n}"
        )
    return bicyclic_base_shapes(n)


def bicyclic_classes(n: int) -> dict[str, SignedGraph]:
    """Canonical code -> canonical graph for every bicyclic class of order n, in code order.

    Each 2-core shape constructs its own classes (:func:`hung_classes`),
    and each is canonized once; no code comes from two shapes, since an
    isomorphism maps 2-core onto 2-core.  Orders below 4 and above 12, the
    bicyclic sweeps' cap, are refused.
    """
    n = _integer("n", n)
    classes: dict[str, SignedGraph] = {}
    for shape in _bicyclic_shapes(n):
        for g, _ in hung_classes(shape, n, n):
            code, canon, _ = _canonize(g)
            classes[code] = canon
    return dict(sorted(classes.items()))


# ---------------------------------------------------------------------------
# sweep checks: each yields every checked instance with its violation
# details, the empty tuple when it passes; a check may yield None in place
# of the graph of a passing instance, so as not to build it

Checked = Iterator[tuple[Optional[SignedGraph], tuple[str, ...]]]


def _leaf_matching(n: int, pairs: list[tuple[int, int]]) -> int:
    """Matching number of a tree given as :func:`prufer_pairs` yields it.

    Each leaf is matched to its neighbor when both are free, in removal
    order.  A leaf comes off only after every vertex that hung from it, so
    this is the leaves-up greedy matching, which is maximum on trees.
    """
    free = [True] * n
    count = 0
    for leaf, neighbor in pairs:
        if free[leaf] and free[neighbor]:
            free[leaf] = free[neighbor] = False
            count += 1
    return count


def _tree_sides(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """The side, 0 or 1, of each vertex in the two-colouring of a tree given
    as :func:`prufer_pairs` yields it, with vertex n-1 on side 0.

    The pairs are walked backwards from the last one, which joins n-1: a
    leaf's neighbor comes off after the leaf, or is n-1, so it already has
    its side when the walk reaches the leaf.
    """
    side = [0] * n
    for leaf, neighbor in reversed(pairs):
        side[leaf] = 1 - side[neighbor]
    return side


def _tree_block(side: list[int], pairs: list[tuple[int, int]]) -> list[list[int]]:
    """The biadjacency block of a tree given as :func:`prufer_pairs` yields
    it, with ``side`` its two-colouring (:func:`_tree_sides`): a row per
    vertex of side 0 and a column per vertex of side 1, each in label order,
    and a 1 for each edge.  K1 gives a 1x0 block."""
    where = [0] * len(side)
    sizes = [0, 0]
    for v, s in enumerate(side):
        where[v] = sizes[s]
        sizes[s] += 1
    block = [[0] * sizes[1] for _ in range(sizes[0])]
    for u, v in pairs:
        if side[u]:
            u, v = v, u
        block[where[u]][where[v]] = 1
    return block


def _null_supports(m: list[list[int]]) -> tuple[int, set[int], set[int]]:
    """The rank of an integer matrix, which it leaves unchanged, and the
    supports of its left and right null spaces: the rows i where some y
    with y m = 0 has y[i] != 0, and the columns j where some v with m v = 0
    has v[j] != 0.

    Gauss-Jordan elimination brings a copy of m to reduced form, dividing
    each updated row by the gcd of its entries; its pivots count the rank.
    Each row carries the unit row it started as, so the rows that reduce to
    zero end as a basis of the left null space.  The right null space has a
    basis with one vector per free (pivot-less) column f: 1 at f, nonzero
    at each pivot column whose row is nonzero at f, 0 elsewhere.  So its
    support is the free columns and the pivot columns whose rows reach one.
    The row space is the orthogonal complement of the right null space, so
    appending the unit row e_j to m raises its rank exactly when j is in
    the right support; so does the unit column e_i when i is in the left.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    work = []
    for i, row in enumerate(m):
        row = list(row) + [0] * rows
        row[cols + i] = 1
        work.append(row)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if work[i][c]:
                break
        else:
            continue
        pivot_row = work[i]
        work[i] = work[r]
        work[r] = pivot_row
        p = pivot_row[c]
        for i in range(rows):
            row = work[i]
            f = row[c]
            if f and i != r:
                row = [x * p - f * y for x, y in zip(row, pivot_row)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    free = set(range(cols)).difference(pivots)
    right = free.union(c for c, row in zip(pivots, work) if any(row[f] for f in free))
    left = {i for row in work[r:] for i in range(rows) if row[cols + i]}
    return r, left, right


def _leaf_ranks(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Block ranks of the trees made by joining one new leaf to a tree that
    spans every vertex but that leaf, given as :func:`prufer_pairs` yields
    it: entry s is the rank when the leaf hangs from s.

    The missing vertex m is on side 0 of :func:`_tree_sides`, a zero row of
    the smaller tree's block B.  Hung from s on side 1, m is the row e_s;
    hung from s on side 0, m moves to side 1 as the column e_s.  Either way
    the rank of B grows by one exactly when s is in the support of B's
    right, or left, null space.  One pass of :func:`_null_supports` gives
    the rank and both supports.  Entry m means nothing.
    """
    side = _tree_sides(n, pairs)
    base, *supports = _null_supports(_tree_block(side, pairs))  # by side: rows, columns
    ranks = [base] * n
    seen = [0, 0]
    for v, s in enumerate(side):
        if seen[s] in supports[s]:
            ranks[v] += 1
        seen[s] += 1
    return ranks


_TREE_DISAGREES = "tree nullity formula disagrees with rank kernel"


def _check_trees(n: int, *prefix: int) -> Checked:
    """Labeled trees of order n, or those whose Pruefer code continues its
    first symbol with ``prefix``.

    Both routes start from the removal order of the Pruefer decoding: the
    formula side matches along it, and the rank kernel gets the tree's
    biadjacency block B, whose sides it also gives (see
    :func:`_tree_sides`).  A tree is bipartite, so up to a permutation its
    adjacency matrix is [[0, B], [B^T, 0]], of rank 2*rank(B) (Cvetkovic
    and Gutman, Mat. Vesnik 9, 1972): block algebra, not matching theory,
    and a block of about half the order.

    The n trees with one suffix sigma after the first symbol s share all
    but one leaf.  Let m < m2 be the two least vertices missing from sigma.
    For every s != m the decoding of (s,) + sigma is (m, s) followed by the
    pairs of the tree on the other n-1 vertices that sigma decodes to, the
    first of them (m2, x).  So that tree is decoded, blocked and ranked once
    per suffix, and each tree's rank read off it (:func:`_leaf_ranks`).
    The code (m,) + sigma decodes to (m2, m), (m, x) and the same later
    pairs: the tree of s = m2 with m and m2 swapped, so of the same rank.
    The matching runs over each tree's own pairs.  Neither route reads the
    other's result, and a tree's graph is built only as the witness of a
    violation.  K1 and K2, which have no suffix, are checked on their own.
    """
    if n <= 2:
        pairs = prufer_pairs(n, ())
        rank = _null_supports(_tree_block(_tree_sides(n, pairs), pairs))[0]
        if n - 2 * _leaf_matching(n, pairs) == n - 2 * rank:
            yield None, ()
        else:
            yield prufer_graph(n, ()), (_TREE_DISAGREES,)
        return
    for rest in product(range(n), repeat=n - 3 - len(prefix)):
        sigma = prefix + rest
        # sigma misses at least three vertices, so m < m2 < n-1, and the
        # pairs of (n-1,) + sigma are (m, n-1) and then those of sigma's tree
        pairs = prufer_pairs(n, (n - 1,) + sigma)
        m = pairs[0][0]
        first = pairs[1]
        m2, x = first
        ranks = _leaf_ranks(n, pairs[1:])
        for s in range(n):
            if s == m:
                pairs[0], pairs[1] = (m2, m), (m, x)
                rank = ranks[m2]
            else:
                pairs[0], pairs[1] = (m, s), first
                rank = ranks[s]
            if n - 2 * _leaf_matching(n, pairs) == n - 2 * rank:
                yield None, ()
            else:
                yield prufer_graph(n, (s,) + sigma), (_TREE_DISAGREES,)


def _check_cycles(length: int) -> Checked:
    path = [(i, i + 1, 1) for i in range(length - 1)]
    for balanced in (True, False):
        g = build_graph(length, path + [(0, length - 1, 1 if balanced else -1)])
        kind = "balanced" if balanced else "unbalanced"
        ok = cycle_nullity_formula(length, balanced) == nullity(g)
        yield g, () if ok else (f"{kind} cycle formula disagrees with rank kernel",)


def _check_rank2(max_n: int) -> Checked:
    for g in _connected_classes(max_n):
        for rep in signature_representatives(g):
            ok = recognize_rank2(rep).matches == (rep.order - nullity(rep) == 2)
            yield rep, () if ok else ("rank-2 recognizer disagrees with rank kernel",)


def _check_rank3(max_n: int) -> Checked:
    for g in _connected_classes(max_n):
        for rep in signature_representatives(g):
            r = rep.order - nullity(rep)
            details: tuple[str, ...] = ()
            if recognize_rank3(rep).matches != (r == 3):
                details = ("rank-3 recognizer disagrees with rank kernel",)
            if r <= 3 and g.order >= 2:
                bad = [x for x in range(g.order) if not low_rank_neighborhood_check(rep, x)]
                if bad:
                    details += (
                        f"neighborhood split check fails at vertices {bad} despite rank {r}",
                    )
            yield rep, details


def _is_star(g: SignedGraph) -> bool:
    return len(g.edges) == g.order - 1 and any(
        g.degree(v) == g.order - 1 for v in range(g.order)
    )


def _check_pendant_bound(max_n: int) -> Checked:
    for g in _connected_classes(max_n):
        if g.order < 4 or _is_star(g) or not find_pendants(g):
            continue
        for rep in signature_representatives(g):
            ok = nullity(rep) <= g.order - 4
            yield rep, () if ok else ("pendant vertex present but nullity exceeds n-4",)


def _check_bicyclic_bound(shape: BaseShape, max_n: int) -> Checked:
    k = shape_order(*shape)
    for g, _ in hung_classes(shape, max_n):
        n = g.order
        # the construction gives the 2-core the highest labels, and signs do
        # not change it; bicyclic_base must agree, which a test checks
        base = BicyclicBase(*shape, tuple(range(n - k, n)))
        for rep in signature_representatives(g):
            # the representatives fix a spanning tree positive, so the one
            # balanced pattern is the one with every non-tree edge positive
            if rep.is_all_positive():
                continue
            eta = nullity(rep)
            details: tuple[str, ...] = ()
            if eta > n - 3:
                details = ("unbalanced bicyclic graph with nullity above n-3",)
            extremal = is_extremal_bicyclic(rep, base)
            if extremal != (eta == n - 3):
                details += (f"extremal-shape verdict {extremal} but nullity is {eta}",)
            yield rep, details


def _check_special_path_bound(shape: BaseShape, max_n: int) -> Checked:
    for g, _ in hung_classes(shape, max_n):
        reasons = ()
        if find_special_paths(g):
            reasons += ("special path present but nullity exceeds n-4",)
        if find_pendants(g):
            reasons += ("pendant vertex present but nullity exceeds n-4",)
        if not reasons:
            continue
        for rep in signature_representatives(g):
            yield rep, reasons if nullity(rep) > g.order - 4 else ()


def _check_reductions(shape: BaseShape, max_n: int) -> Checked:
    for g, _ in hung_classes(shape, max_n):
        # every representative has g's underlying graph, so each pendant pair
        # and special path of g is one of rep's, and the cores need no checks
        pendants = find_pendants(g)
        paths = find_special_paths(g)
        for rep in signature_representatives(g):
            eta = nullity(rep)
            details = tuple(
                f"pendant deletion ({v},{u}) changed the nullity"
                for v, u in pendants
                if nullity(_delete_pair(rep, v, u)) != eta
            )
            details += tuple(
                f"contraction of special path ({p.v1},{p.v2},{p.v3}) changed the nullity"
                for p in paths
                if nullity(_contract(rep, p)) != eta
            )
            yield rep, details


# ---------------------------------------------------------------------------
# the sweep table and engine


class Sweep(NamedTuple):
    """One exhaustive sweep: the orders (or cycle lengths) it accepts, its
    chunks for a given max_n, and the check run on each."""

    describe: str
    min_n: int
    max_n: int  # the largest max_n accepted; each value's reason is noted beside it
    tasks: Callable[[int], list[tuple]]  # max_n -> the check's arguments, one tuple per chunk
    check: Callable[..., Checked]


def _tree_tasks(max_n: int) -> list[tuple]:
    tasks: list[tuple] = []
    for n in range(1, max_n + 1):
        # from order 7 on, one chunk per second and third Pruefer symbol (the
        # first two of the suffix that _check_trees decodes once): n^2 equal
        # chunks, where n chunks would split 4:3 on two workers at n=7
        prefixes = [()] if n <= 6 else product(range(n), repeat=2)
        tasks.extend((n, *prefix) for prefix in prefixes)
    return tasks


# The largest order of the connected sweeps.  At n = 9 they would check at
# least 1,613,484,762 instances (the labeled switching classes, the sum of
# 2^(m-8) over the labeled connected graphs, divided by 9!), over 11 h at
# 26 us each, in one chunk.
_CONNECTED_MAX_N = 8


def _connected_tasks(max_n: int) -> list[tuple]:
    # one chunk, the build from K1, checking every order as it reaches it
    return [(max_n,)]


def _bicyclic_tasks(max_n: int) -> list[tuple]:
    # one chunk per 2-core shape, checking every order as its build reaches it
    return [(shape, max_n) for shape in bicyclic_base_shapes(max_n)]


_SWEEPS: dict[str, Sweep] = {
    "lemma2.1i": Sweep(
        "nullity of every labeled signed tree equals n - 2*matching",
        1,
        10,  # n^(n-2) labeled trees: 10^8 at n = 10
        _tree_tasks,
        _check_trees,
    ),
    "lemma2.1ii": Sweep(
        "closed-form cycle nullity matches the rank kernel for both balance classes",
        3,
        128,  # two cycles per length; the cap keeps a typo from launching cubic-cost giants
        lambda max_n: [(length,) for length in range(3, max_n + 1)],
        _check_cycles,
    ),
    "theorem2.3": Sweep(
        "rank-2 recognizer agrees with the rank kernel on all connected signed graphs",
        1,
        _CONNECTED_MAX_N,
        _connected_tasks,
        _check_rank2,
    ),
    "theorem2.4": Sweep(
        "rank-3 recognizer agrees with the rank kernel; neighborhood split holds at rank <= 3",
        1,
        _CONNECTED_MAX_N,
        _connected_tasks,
        _check_rank3,
    ),
    "corollary2.6": Sweep(
        "connected non-star graphs of order >= 4 with a pendant have nullity <= n-4",
        1,
        _CONNECTED_MAX_N,
        _connected_tasks,
        _check_pendant_bound,
    ),
    "corollary2.9": Sweep(
        "bicyclic graphs with a special path or pendant have nullity <= n-4",
        4,
        _BICYCLIC_MAX_N,
        _bicyclic_tasks,
        _check_special_path_bound,
    ),
    "theorem3.1": Sweep(
        "unbalanced bicyclic nullity is at most n-3, extremal exactly at the doubled-triangle shape",
        4,
        _BICYCLIC_MAX_N,
        _bicyclic_tasks,
        _check_bicyclic_bound,
    ),
    "lemma2.5": Sweep(
        "pendant deletions and special-path contractions preserve the nullity",
        4,
        _BICYCLIC_MAX_N,
        _bicyclic_tasks,
        _check_reductions,
    ),
}

_ALIASES = {
    "tree-nullity": "lemma2.1i",
    "cycle-nullity": "lemma2.1ii",
    "lemma2.1iii": "lemma2.1ii",
    "rank2": "theorem2.3",
    "rank3": "theorem2.4",
    "pendant-bound": "corollary2.6",
    "special-path-bound": "corollary2.9",
    "unbalanced-bicyclic": "theorem3.1",
    "reductions": "lemma2.5",
    "corollary2.8": "lemma2.5",
}


def _sweep_chunk(task: tuple[str, tuple]) -> tuple[int, list[Violation]]:
    """Run one chunk of a sweep: (instances checked, violations found)."""
    key, args = task
    checked = 0
    violations = []
    for g, details in _SWEEPS[key].check(*args):
        checked += 1
        for detail in details:
            violations.append(Violation(g.order, detail, serialize_graph(g)))
    return checked, violations


class WorkerCrashed(RuntimeError):
    """A forked worker of a sweep or a catalog died before it sent its results."""


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a forked worker; the
    caller raises the exception from it, so both tracebacks print."""


def _claim(counter, tasks: list, fn: Callable) -> list[tuple[int, object]]:
    """(index, result) for every task whose index this process takes off the
    shared counter, until the counter passes the last task."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(tasks):
            return done
        done.append((i, fn(tasks[i])))


def _child(counter, tasks: list, fn: Callable, sender) -> None:
    """A forked worker: send its claimed results once, or the exception it
    raised with its traceback text, after moving the counter past the last
    task so that the other workers stop claiming."""
    try:
        message = (_claim(counter, tasks, fn), None)
    except BaseException as exc:
        import traceback

        with counter.get_lock():
            counter.value = len(tasks)
        message = (exc, traceback.format_exc().rstrip())
    try:
        sender.send(message)
    except Exception:  # the exception does not pickle; its text still reaches the caller
        sender.send((RuntimeError("a worker process raised an exception that does not pickle"), message[1]))


def _run_tasks(fn: Callable, tasks: list, workers: int) -> list:
    """``fn`` over every task, in order.

    With two or more workers and tasks, the caller forks
    ``min(workers, len(tasks)) - 1`` children, and the caller and the
    children take task indices in order from a shared counter, so a worker
    that finishes early takes the next task.  Each child sends its
    (index, result) pairs once through its own pipe.  The start method is
    pinned to fork (POSIX only): the children inherit ``fn`` and the tasks,
    so nothing is pickled on the way in, and the runner does not depend on
    the default start method, which Python 3.14 changes to forkserver on
    Linux.  A child's exception is raised here from its traceback text, a
    child that dies raises :class:`WorkerCrashed`, and every child is
    joined, or terminated and joined, before this returns or raises.
    """
    if workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing  # only parallel runs pay for the import

    context = multiprocessing.get_context("fork")
    counter = context.Value("i", 0)
    children = []
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_child, args=(counter, tasks, fn, sender))
            child.start()
            children.append((child, receiver))
            sender.close()  # the child holds the only writer, so its death reads as EOF
        results = [None] * len(tasks)
        for i, result in _claim(counter, tasks, fn):
            results[i] = result
        for child, receiver in children:
            try:
                payload, text = receiver.recv()
            except EOFError:
                child.join()
                raise WorkerCrashed(f"pid {child.pid} exited with code {child.exitcode}") from None
            if text is not None:
                raise payload from _ChildTraceback(text)
            for i, result in payload:
                results[i] = result
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()


def available_theorems() -> list[tuple[str, str]]:
    """(canonical id, description) pairs for every supported sweep."""
    return [(key, sweep.describe) for key, sweep in sorted(_SWEEPS.items())]


def _resolve_theorem(theorem_id: str) -> str:
    if not isinstance(theorem_id, str):
        raise UsageError(f"theorem id must be a string, got {theorem_id!r}")
    key = theorem_id.strip().lower().replace(" ", "")
    key = _ALIASES.get(key, key)
    if key not in _SWEEPS:
        known = ", ".join(sorted(_SWEEPS))
        raise UsageError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    return key


def verify_theorem(theorem_id: str, max_n: int, workers: int = 1) -> TheoremReport:
    """Run one exhaustive sweep up to order (or cycle length) ``max_n``."""
    max_n, workers = _integer("max_n", max_n), _integer("workers", workers)
    key = _resolve_theorem(theorem_id)
    sweep = _SWEEPS[key]
    if not sweep.min_n <= max_n <= sweep.max_n:
        raise UsageError(
            f"sweep {key} needs max_n >= {sweep.min_n} and accepts max_n up to "
            f"{sweep.max_n} (its ceiling), got {max_n}"
        )
    start = time.perf_counter()
    results = _run_tasks(_sweep_chunk, [(key, args) for args in sweep.tasks(max_n)], workers)
    violations = sorted(
        (v for _, found in results for v in found),
        key=lambda v: (v.order, v.witness, v.detail),
    )
    return TheoremReport(
        theorem=key,
        orders_checked=tuple(range(sweep.min_n, max_n + 1)),
        instances_checked=sum(checked for checked, _ in results),
        violations=tuple(violations),
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# catalogs

BalanceProfile = tuple[tuple[int, int], ...]  # ((cycle length, sign) x 3), sorted


class CatalogEntry(NamedTuple):
    code: str
    base: BicyclicBase
    profiles: tuple[BalanceProfile, ...]
    achieving_classes: int
    witness: SignedGraph


class NullityCatalog(NamedTuple):
    order: int
    k: int
    nullity: int
    balanced_only: bool
    entries: tuple[CatalogEntry, ...]


def _rank_at_most(k: int, balanced_only: bool) -> Callable[[SignedGraph], bool]:
    """The ``keep`` test of a rank-k catalog for :func:`_classes_by_order`,
    one rule at every order: whether a class has a switching class of rank
    at most k (only the balanced one, all-positive up to switching, when
    ``balanced_only``), untested at orders up to k, where no rank exceeds k.
    It is exact at the catalog's order too, since an entry needs rank k.
    """

    def keep(g: SignedGraph) -> bool:
        if g.order <= k:
            return True
        reps = (g,) if balanced_only else signature_representatives(g)
        return any(rep.order - nullity(rep) <= k for rep in reps)

    return keep


def _catalog_chunk(task: tuple[BaseShape, int, int, bool]) -> list[CatalogEntry]:
    """The entries for the classes of order n whose 2-core is ``shape``.

    The build drops every class above order k whose switching classes all
    have rank above k, the top order included (see :func:`_rank_at_most`),
    so each class left at order n is read in one pass: its switching classes
    at rank k, then, if there are any, its base, cycles and profiles.  The
    base's three cycle lengths are those of the two fundamental cycles and
    of their edge-set sum, so the third is read off them.

    Catalogs stay on this leaf builder, not on :func:`hung_classes`, since
    they need canonical codes and it prunes after every leaf.  A
    construction pruned by the same rank test, by a depth-first search over
    the core vertices, gave the same bytes for every n = 4..10, k and
    ``balanced_only``, but it prunes only between core vertices: it made the
    perfbench ``catalog-n9`` set 1.9x slower (0.096 -> 0.183 s, median of
    20 runs on 2 vCPUs, Python 3.11.7).
    """
    shape, n, k, balanced_only = task
    *_, level = _classes_by_order(base_graph(shape), n, _rank_at_most(k, balanced_only))
    entries = []
    for code, canon in level.items():
        reps = (canon,) if balanced_only else signature_representatives(canon)
        achieved = [rep for rep in reps if nullity(rep) == n - k]
        if not achieved:
            continue
        base = bicyclic_base(canon)
        c1, c2 = fundamental_cycles(canon)
        union_len = sum(base.cycle_lengths()) - len(c1) - len(c2)  # type: ignore[union-attr]
        profiles = set()
        for rep in achieved:
            s1, s2 = cycle_sign(rep, c1), cycle_sign(rep, c2)
            profiles.add(tuple(sorted(((len(c1), s1), (len(c2), s2), (union_len, s1 * s2)))))
        # a fresh witness, free of the neighbor table rep shares with canon
        witness = SignedGraph._trusted(n, achieved[0].edges)
        entries.append(CatalogEntry(code, base, tuple(sorted(profiles)), len(achieved), witness))
    return entries


def catalog_nullity_classes(
    n: int, k: int, balanced_only: bool = False, workers: int = 1
) -> NullityCatalog:
    """Catalog every bicyclic class of order n that reaches nullity n-k.

    Each entry records which of the four switching classes achieve the
    nullity, as balance profiles over the base's two fundamental cycles and
    their edge-set sum; the witness revalidates through the rank kernel.
    Each 2-core shape is one chunk, and no code comes from two shapes, so
    the entries merge by sorting on the code.  A chunk grows only the
    classes with a switching class of rank at most k (of the balanced one,
    when ``balanced_only``), since rank never falls as leaves are added; so
    a catalog for small k builds a small fraction of the classes of order n.
    Orders below 4 and above 12, the bicyclic sweeps' cap, are refused
    before any work, and so is an argument of the wrong type.
    """
    n, k, workers = _integer("n", n), _integer("k", k), _integer("workers", workers)
    if not isinstance(balanced_only, bool):
        raise UsageError(f"balanced_only must be True or False, got {balanced_only!r}")
    if not 3 <= k <= n:
        raise UsageError(f"need 3 <= k <= n, got k={k}, n={n}")
    tasks = [(shape, n, k, balanced_only) for shape in _bicyclic_shapes(n)]
    chunks = _run_tasks(_catalog_chunk, tasks, workers)
    entries = sorted((entry for chunk in chunks for entry in chunk), key=lambda e: e.code)
    return NullityCatalog(
        order=n, k=k, nullity=n - k, balanced_only=balanced_only, entries=tuple(entries)
    )
