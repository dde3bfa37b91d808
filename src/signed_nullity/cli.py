"""Command-line front end.

Data goes to stdout, diagnostics to stderr.  Exit status: 0 success,
1 verification violations, 2 usage errors (including the arguments that
``verify`` and ``catalog`` refuse), 3 input/output errors (files not in
UTF-8 or announcing more than ``graphio.MAX_FILE_ORDER`` vertices
included), 4 unexpected internal errors (with a traceback on stderr, or
one ``error:`` line when a pool worker process crashed).  A file command
reports every input error as a ``GraphFormatError``, and ``verify`` and
``catalog`` refuse their arguments with a ``verification.UsageError``, so
any other ``ValueError`` is internal.

The module imports only the graph, file and rank layers; each subcommand
imports the other layers it runs (documents, recognizers, reductions,
verification) when it is called.  A one-graph call thus loads ``graphs``,
``graphio``, ``rank`` and this module, plus ``documents`` for ``classify``
and ``reduce``, ``recognizers`` for ``classify`` and
``reductions`` for ``reduce``: never the sweeps or the canonizer.  The
records are NamedTuples and ``SignedGraph`` a plain class, so none of them
loads ``inspect``, ``ast`` or ``dis``.
"""

from __future__ import annotations

import argparse
import sys

from .graphio import GraphFormatError, parse_graph, signs_text, to_dot
from .graphs import SignedGraph, is_balanced
from .rank import nullity

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signed-nullity",
        description="Exact rank/nullity toolkit for signed graphs.",
        epilog=(
            "Graph files: a header line 'n m', then m lines 'u v s' with s in {+,-}; "
            "'#' starts a comment.  verify and catalog refuse an order above the sweep's "
            "cap, and the message names the cap."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nullity", help="order, exact rank and nullity of a graph file")
    p.add_argument("file")

    p = sub.add_parser("balance", help="balance test with switching or negative-cycle witness")
    p.add_argument("file")

    p = sub.add_parser("classify", help="rank-2/rank-3 verdicts, bicyclic base, extremal bound")
    p.add_argument("file")

    p = sub.add_parser("reduce", help="delete pendant pairs to a fixpoint, with trace")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run an exhaustive verification sweep")
    p.add_argument("--theorem", required=True, metavar="ID", help="sweep id (see the theorems command)")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("catalog", help="catalog bicyclic classes reaching nullity n-k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--balanced-only", action="store_true", dest="balanced_only")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("convert", help="convert a graph file to another format")
    p.add_argument("file")
    p.add_argument("--to", required=True, choices=["dot"])

    sub.add_parser("theorems", help="list the verification sweep ids")
    return parser


def _load_graph(path: str) -> tuple[SignedGraph, str]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_graph(text), text


def _cmd_nullity(args) -> int:
    g, _ = _load_graph(args.file)
    eta = nullity(g)
    print(f"n={g.order} rank={g.order - eta} nullity={eta}")
    return EXIT_OK


def _cmd_balance(args) -> int:
    g, _ = _load_graph(args.file)
    witness = is_balanced(g)
    if witness.balanced:
        print(f"balanced theta={signs_text(witness.switching)}")
    else:
        print("unbalanced cycle=" + " ".join(map(str, witness.negative_cycle)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import documents
    from .recognizers import bicyclic_base, recognize_rank2, recognize_rank3, unbalanced_bicyclic_verdict

    g, text = _load_graph(args.file)
    eta = nullity(g)
    base = bicyclic_base(g)
    bound = None
    if base is not None and not is_balanced(g).balanced:
        bound = unbalanced_bicyclic_verdict(g)
    payload = {
        "order": g.order,
        "rank": g.order - eta,
        "nullity": eta,
        "rank2": documents.verdict_dict(recognize_rank2(g)),
        "rank3": documents.verdict_dict(recognize_rank3(g)),
        "bicyclic_base": documents.base_dict(base),
        "unbalanced_bicyclic": documents.bound_verdict_dict(bound),
    }
    doc = documents.document("classification", documents.text_digest(text), payload)
    print(documents.dumps(doc), end="")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    from . import documents
    from .reductions import reduce as reduce_pendants

    g, text = _load_graph(args.file)
    reduced, trace = reduce_pendants(g)
    payload = {
        "input": documents.graph_dict(g),
        "reduced": documents.graph_dict(reduced),
        "steps": documents.trace_dict(trace),
    }
    doc = documents.document("reduction", documents.text_digest(text), payload)
    print(documents.dumps(doc), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import documents
    from .verification import verify_theorem

    report = verify_theorem(args.theorem, args.max_n, workers=args.workers)
    doc = documents.verification_document(report)
    print(documents.dumps(doc), end="")
    print(f"checked {report.instances_checked} instances in {report.elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_catalog(args) -> int:
    from . import documents
    from .verification import catalog_nullity_classes

    catalog = catalog_nullity_classes(
        args.n, args.k, balanced_only=args.balanced_only, workers=args.workers
    )
    print(documents.dumps(documents.catalog_document(catalog)), end="")
    return EXIT_OK


def _cmd_convert(args) -> int:
    g, _ = _load_graph(args.file)
    print(to_dot(g), end="")
    return EXIT_OK


def _cmd_theorems(args) -> int:
    from .verification import available_theorems

    for key, description in available_theorems():
        print(f"{key:14s} {description}")
    return EXIT_OK


_COMMANDS = {
    "nullity": _cmd_nullity,
    "balance": _cmd_balance,
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "convert": _cmd_convert,
    "theorems": _cmd_theorems,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (GraphFormatError, UnicodeDecodeError) as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # only verify and catalog refuse arguments, after loading the sweeps;
        # looking the module up keeps a file command from loading them
        verification = sys.modules.get(f"{__package__}.verification")
        if verification is not None and isinstance(exc, verification.UsageError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):  # a pool worker died; its traceback is lost
            print(f"error: a worker process crashed: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        import traceback

        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
