"""JSON report documents: stable schema, deterministic bytes.

Documents are plain dicts rendered with sorted keys, so identical inputs
produce byte-identical output.  Each document carries the tool version and
a digest of what it was computed from; wall-clock timings never enter a
document (they go to stderr) to keep the bytes reproducible.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Optional

from .graphio import serialize_graph, signs_text

if TYPE_CHECKING:
    from .graphs import SignedGraph
    from .recognizers import BicyclicBase, RankClassVerdict, UnbalancedBicyclicVerdict
    from .reductions import ReductionTrace
    from .verification import NullityCatalog, TheoremReport

TOOL_VERSION = "0.1.0"  # also the package version: pyproject.toml reads it from here


def text_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def params_digest(**params) -> str:
    canonical = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return text_digest(canonical)


def document(kind: str, digest: str, payload: dict) -> dict:
    doc = {
        "document": kind,
        "tool": {"name": "signed-nullity", "version": TOOL_VERSION},
        "input_digest": digest,
    }
    doc.update(payload)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def verdict_dict(v: RankClassVerdict) -> dict:
    return {
        "matches": v.matches,
        "reason": v.reason,
        "parts": [list(p) for p in v.parts] if v.parts is not None else None,
        "switching": signs_text(v.switching) if v.switching is not None else None,
        "neighborhoods": (
            [{"positive": list(pos), "negative": list(neg)} for pos, neg in v.neighborhoods]
            if v.neighborhoods is not None
            else None
        ),
    }


def base_dict(base: Optional[BicyclicBase]) -> Optional[dict]:
    if base is None:
        return None
    return {
        "kind": base.kind,
        "p": base.p,
        "q": base.q,
        "l": base.l,
        "vertices": list(base.base_vertices),
        "cycle_lengths": list(base.cycle_lengths()),
    }


def bound_verdict_dict(v: Optional[UnbalancedBicyclicVerdict]) -> Optional[dict]:
    if v is None:
        return None
    return {"bound_holds": v.bound_holds, "is_extremal": v.is_extremal}


def report_dict(report: TheoremReport) -> dict:
    return {
        "theorem": report.theorem,
        "orders_checked": list(report.orders_checked),
        "instances_checked": report.instances_checked,
        "ok": report.ok,
        "violations": [
            {"order": v.order, "detail": v.detail, "witness": v.witness}
            for v in report.violations
        ],
    }


def verification_document(report: TheoremReport) -> dict:
    digest = params_digest(
        theorem=report.theorem,
        orders="-".join(map(str, report.orders_checked)),
    )
    return document("verification-report", digest, report_dict(report))


def catalog_document(catalog: NullityCatalog) -> dict:
    digest = params_digest(n=catalog.order, k=catalog.k, balanced_only=catalog.balanced_only)
    return document("nullity-catalog", digest, catalog_dict(catalog))


def catalog_dict(catalog: NullityCatalog) -> dict:
    return {
        "order": catalog.order,
        "k": catalog.k,
        "nullity": catalog.nullity,
        "balanced_only": catalog.balanced_only,
        "entry_count": len(catalog.entries),
        "entries": [
            {
                "code": e.code,
                "base": base_dict(e.base),
                "profiles": [
                    [[length, "+" if sign == 1 else "-"] for length, sign in profile]
                    for profile in e.profiles
                ],
                "achieving_classes": e.achieving_classes,
                "witness": serialize_graph(e.witness),
            }
            for e in catalog.entries
        ],
    }


def trace_dict(trace: ReductionTrace) -> list[dict]:
    return [
        {
            "op": "delete-pendant-pair",
            "pendant": step.pendant,
            "neighbor": step.neighbor,
            "relabeling": list(step.relabeling),
        }
        for step in trace.steps
    ]


def graph_dict(g: SignedGraph) -> dict:
    return {"order": g.order, "edge_count": len(g.edges), "text": serialize_graph(g)}
