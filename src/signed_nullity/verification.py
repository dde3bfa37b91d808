"""Exhaustive verification sweeps and nullity catalogs.

Each sweep checks one classification statement over every enumerated
instance and reports the violations (an empty list is the expected
outcome).  Work is split into independent chunks -- one per base shape or
per (order, edge count) -- so sweeps can run on a process pool; results are
merged commutatively and sorted, which makes reports and catalogs
byte-identical regardless of the worker count.  The bicyclic sweeps and
the catalogs share one generator, which keeps one canonical graph per
isomorphism class of bicyclic graphs.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional

from .canonical import canonical_form
from .enumeration import (
    SOFT_ORDER_LIMIT,
    BaseShape,
    base_graph,
    base_order,
    bicyclic_base_shapes,
    check_order,
    connected_labeled_graphs,
    labeled_trees,
    leaf_extensions,
    prufer_graph,
    signature_representatives,
)
from .graphs import SignedGraph, adjacency_matrix, build_graph, cycle_sign, fundamental_cycles
from .graphio import serialize_graph
from .rank import cycle_nullity_formula, forest_nullity_formula, nullity, rank
from .recognizers import (
    BicyclicBase,
    bicyclic_base,
    is_extremal_bicyclic,
    low_rank_neighborhood_check,
    recognize_rank2,
    recognize_rank3,
)
from .reductions import (
    contract_special_path,
    delete_pendant_pair,
    find_pendants,
    find_special_paths,
    normalize_special_path,
)


@dataclass(frozen=True)
class Violation:
    """A failed instance, with a replayable witness graph."""

    order: int
    detail: str
    witness: str  # graph-file text


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    orders_checked: tuple[int, ...]
    instances_checked: int
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# bicyclic classes: the one generator of bicyclic graphs


def _shape_classes(n: int, shape: BaseShape) -> dict[str, SignedGraph]:
    """Canonical code -> canonical graph of every class of order n whose 2-core is ``shape``.

    Built one order at a time: the base graph alone, then at each next order
    every class of the order before with one leaf hung from each vertex,
    de-duplicated by canonical code.  This meets every class: a graph that is
    more than its 2-core has a pendant vertex, and deleting it leaves a class
    of the order before with the same 2-core (McKay's isomorph-free
    generation by extension).
    """
    code, canon = canonical_form(base_graph(shape))
    level = {code: canon}
    for _ in range(base_order(shape), n):
        grown: dict[str, SignedGraph] = {}
        for g in level.values():
            for h in leaf_extensions(g):
                code, canon = canonical_form(h)
                grown.setdefault(code, canon)
        level = grown
    return level


def _shape_class_edges(task: tuple[int, BaseShape]) -> list[tuple[str, tuple]]:
    return [(code, g.edges) for code, g in _shape_classes(*task).items()]


def bicyclic_classes(n: int, workers: int = 1) -> dict[str, SignedGraph]:
    """Canonical code -> canonical graph for every bicyclic class of order n, in code order.

    Classes are split by 2-core shape, which a leaf never changes, so each
    shape is one independent chunk.
    """
    if n < 4:
        raise ValueError("the smallest bicyclic graph has 4 vertices")
    check_order(n)
    tasks = [(n, shape) for shape in bicyclic_base_shapes(n)]
    found = [pair for chunk in _run_tasks(_shape_class_edges, tasks, workers) for pair in chunk]
    return {code: SignedGraph._trusted(n, edges) for code, edges in sorted(found)}


def bicyclic_underlying(n: int) -> Iterator[SignedGraph]:
    """One all-positive canonical graph per isomorphism class of connected
    graphs with n vertices and n+1 edges, in code order.

    Orders below 4 and above the enumeration ceiling are rejected.
    """
    return iter(bicyclic_classes(n).values())


# ---------------------------------------------------------------------------
# sweep checks: each yields every checked instance with its violation
# details, the empty tuple when it passes

Checked = Iterator[tuple[SignedGraph, tuple[str, ...]]]


def _check_trees(n: int, *prefix: int) -> Checked:
    """Labeled trees of order n, or those whose Pruefer code starts with ``prefix``."""
    trees = labeled_trees(n)
    if prefix:
        rests = product(range(n), repeat=n - 2 - len(prefix))
        trees = (prufer_graph(n, prefix + rest) for rest in rests)
    for g in trees:
        ok = forest_nullity_formula(g) == nullity(g)
        yield g, () if ok else ("tree nullity formula disagrees with rank kernel",)


def _check_cycles(length: int) -> Checked:
    path = [(i, i + 1, 1) for i in range(length - 1)]
    for balanced in (True, False):
        g = build_graph(length, path + [(0, length - 1, 1 if balanced else -1)])
        kind = "balanced" if balanced else "unbalanced"
        ok = cycle_nullity_formula(length, balanced) == nullity(g)
        yield g, () if ok else (f"{kind} cycle formula disagrees with rank kernel",)


def _signed_connected(n: int, m: int) -> Iterator[SignedGraph]:
    for g in connected_labeled_graphs(n, m):
        yield from signature_representatives(g)


def _check_rank2(n: int, m: int) -> Checked:
    for rep in _signed_connected(n, m):
        ok = recognize_rank2(rep).matches == (rank(adjacency_matrix(rep)) == 2)
        yield rep, () if ok else ("rank-2 recognizer disagrees with rank kernel",)


def _check_rank3(n: int, m: int) -> Checked:
    for rep in _signed_connected(n, m):
        r = rank(adjacency_matrix(rep))
        details: tuple[str, ...] = ()
        if recognize_rank3(rep).matches != (r == 3):
            details = ("rank-3 recognizer disagrees with rank kernel",)
        if r <= 3 and n >= 2:
            bad = [x for x in range(n) if not low_rank_neighborhood_check(rep, x)]
            if bad:
                details += (f"neighborhood split check fails at vertices {bad} despite rank {r}",)
        yield rep, details


def _is_star(g: SignedGraph) -> bool:
    return len(g.edges) == g.order - 1 and any(
        g.degree(v) == g.order - 1 for v in range(g.order)
    )


def _check_pendant_bound(n: int, m: int) -> Checked:
    for g in connected_labeled_graphs(n, m):
        if n < 4 or _is_star(g) or not find_pendants(g):
            continue
        for rep in signature_representatives(g):
            ok = nullity(rep) <= n - 4
            yield rep, () if ok else ("pendant vertex present but nullity exceeds n-4",)


def _check_bicyclic_bound(n: int, shape: BaseShape) -> Checked:
    for g in _shape_classes(n, shape).values():
        base = bicyclic_base(g)  # signs do not change the 2-core
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


def _check_special_path_bound(n: int, shape: BaseShape) -> Checked:
    for g in _shape_classes(n, shape).values():
        reasons = ()
        if find_special_paths(g):
            reasons += ("special path present but nullity exceeds n-4",)
        if find_pendants(g):
            reasons += ("pendant vertex present but nullity exceeds n-4",)
        if not reasons:
            continue
        for rep in signature_representatives(g):
            yield rep, reasons if nullity(rep) > n - 4 else ()


def _check_reductions(n: int, shape: BaseShape) -> Checked:
    for g in _shape_classes(n, shape).values():
        pendants = find_pendants(g)
        paths = find_special_paths(g)
        for rep in signature_representatives(g):
            eta = nullity(rep)
            details = tuple(
                f"pendant deletion ({v},{u}) changed the nullity"
                for v, u in pendants
                if nullity(delete_pendant_pair(rep, v, u)) != eta
            )
            details += tuple(
                f"contraction of special path ({p.v1},{p.v2},{p.v3}) changed the nullity"
                for p in paths
                if nullity(contract_special_path(normalize_special_path(rep, p)[0], p)) != eta
            )
            yield rep, details


# ---------------------------------------------------------------------------
# the sweep table and engine


@dataclass(frozen=True)
class Sweep:
    """One exhaustive sweep: its chunks for a given max_n, and the check run on each."""

    describe: str
    min_n: int
    tasks: Callable[[int], list[tuple]]  # max_n -> the check's arguments, one tuple per chunk
    check: Callable[..., Checked]
    max_len: Optional[int] = None  # when set, caps max_n in place of the enumeration ceiling


def _tree_tasks(max_n: int) -> list[tuple]:
    tasks: list[tuple] = []
    for n in range(1, max_n + 1):
        # from order 7 on, one chunk per first Pruefer symbol keeps the pool balanced
        tasks.extend([(n,)] if n <= 6 else [(n, first) for first in range(n)])
    return tasks


def _connected_tasks(max_n: int) -> list[tuple]:
    tasks: list[tuple] = []
    for n in range(1, max_n + 1):
        pairs = n * (n - 1) // 2
        tasks.extend((n, m) for m in range(max(n - 1, 0), pairs + 1))
    return tasks


def _bicyclic_tasks(max_n: int) -> list[tuple]:
    tasks: list[tuple] = []
    for n in range(4, max_n + 1):
        tasks.extend((n, shape) for shape in bicyclic_base_shapes(n))
    return tasks


_SWEEPS: dict[str, Sweep] = {
    "lemma2.1i": Sweep(
        "nullity of every labeled signed tree equals n - 2*matching", 1, _tree_tasks, _check_trees
    ),
    "lemma2.1ii": Sweep(
        "closed-form cycle nullity matches the rank kernel for both balance classes",
        3,
        lambda max_n: [(length,) for length in range(3, max_n + 1)],
        _check_cycles,
        # linear work per length, so the enumeration ceiling does not apply;
        # still capped to keep a typo from launching cubic-cost giants
        max_len=128,
    ),
    "theorem2.3": Sweep(
        "rank-2 recognizer agrees with the rank kernel on all connected signed graphs",
        1,
        _connected_tasks,
        _check_rank2,
    ),
    "theorem2.4": Sweep(
        "rank-3 recognizer agrees with the rank kernel; neighborhood split holds at rank <= 3",
        1,
        _connected_tasks,
        _check_rank3,
    ),
    "corollary2.6": Sweep(
        "connected non-star graphs of order >= 4 with a pendant have nullity <= n-4",
        1,
        _connected_tasks,
        _check_pendant_bound,
    ),
    "corollary2.9": Sweep(
        "bicyclic graphs with a special path or pendant have nullity <= n-4",
        4,
        _bicyclic_tasks,
        _check_special_path_bound,
    ),
    "theorem3.1": Sweep(
        "unbalanced bicyclic nullity is at most n-3, extremal exactly at the doubled-triangle shape",
        4,
        _bicyclic_tasks,
        _check_bicyclic_bound,
    ),
    "lemma2.5": Sweep(
        "pendant deletions and special-path contractions preserve the nullity",
        4,
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


def _run_tasks(fn: Callable, tasks: list, workers: int) -> list:
    """``fn`` over every task, in order; on a process pool when workers > 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only pool users pay for the import

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def available_theorems() -> list[tuple[str, str]]:
    """(canonical id, description) pairs for every supported sweep."""
    return [(key, sweep.describe) for key, sweep in sorted(_SWEEPS.items())]


def _resolve_theorem(theorem_id: str) -> str:
    key = theorem_id.strip().lower().replace(" ", "")
    key = _ALIASES.get(key, key)
    if key not in _SWEEPS:
        known = ", ".join(sorted(_SWEEPS))
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    return key


def verify_theorem(theorem_id: str, max_n: int, workers: int = 1) -> TheoremReport:
    """Run one exhaustive sweep up to order (or cycle length) ``max_n``."""
    key = _resolve_theorem(theorem_id)
    sweep = _SWEEPS[key]
    if sweep.max_len is not None:
        if max_n > sweep.max_len:
            raise ValueError(f"sweep {key} supports max_n up to {sweep.max_len}")
    else:
        check_order(max_n)
        if max_n > SOFT_ORDER_LIMIT:
            warnings.warn(
                f"sweep {key} at n={max_n} is beyond the fast range (n <= {SOFT_ORDER_LIMIT}) "
                "and may take a long time",
                stacklevel=2,
            )
    if max_n < sweep.min_n:
        raise ValueError(f"sweep {key} needs max_n >= {sweep.min_n}")
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


@dataclass(frozen=True)
class CatalogEntry:
    code: str
    base: BicyclicBase
    profiles: tuple[BalanceProfile, ...]
    achieving_classes: int
    witness: SignedGraph


@dataclass(frozen=True)
class NullityCatalog:
    order: int
    k: int
    nullity: int
    balanced_only: bool
    entries: tuple[CatalogEntry, ...]


def catalog_nullity_classes(
    n: int, k: int, balanced_only: bool = False, workers: int = 1
) -> NullityCatalog:
    """Catalog every bicyclic class of order n that reaches nullity n-k.

    Each entry records which of the four switching classes achieve the
    nullity, as balance profiles over the base's two fundamental cycles and
    their edge-set sum; the witness revalidates through the rank kernel.
    """
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    classes = bicyclic_classes(n, workers)
    entries = []
    for code in sorted(classes):
        canon = classes[code]
        base = bicyclic_base(canon)
        assert base is not None
        c1, c2 = fundamental_cycles(canon)
        edges1 = {frozenset((c1[i], c1[(i + 1) % len(c1)])) for i in range(len(c1))}
        edges2 = {frozenset((c2[i], c2[(i + 1) % len(c2)])) for i in range(len(c2))}
        union_len = len(edges1 ^ edges2)
        achieved: list[tuple[BalanceProfile, SignedGraph]] = []
        for rep in signature_representatives(canon):
            if nullity(rep) != n - k:
                continue
            s1 = cycle_sign(rep, c1)
            s2 = cycle_sign(rep, c2)
            if balanced_only and (s1 != 1 or s2 != 1):
                continue
            profile: BalanceProfile = tuple(
                sorted(((len(c1), s1), (len(c2), s2), (union_len, s1 * s2)))
            )
            achieved.append((profile, rep))
        if achieved:
            entries.append(
                CatalogEntry(
                    code=code,
                    base=base,
                    profiles=tuple(sorted({profile for profile, _ in achieved})),
                    achieving_classes=len(achieved),
                    witness=achieved[0][1],
                )
            )
    return NullityCatalog(
        order=n, k=k, nullity=n - k, balanced_only=balanced_only, entries=tuple(entries)
    )
