"""Exact-arithmetic toolkit for the nullity of signed graphs.

Core value types and operations are re-exported here; the verification
sweeps and catalogs live in :mod:`signed_nullity.verification` and the
command-line front end in :mod:`signed_nullity.cli`.

Importing the package loads none of its modules: each name below, and each
submodule name, resolves on first use (PEP 562) and is then cached here, so
a caller pays only for the layers it touches.

The name ``rank`` belongs to the function: ``signed_nullity.rank`` and
``import signed_nullity.rank as m`` both give the function ``rank``.  The
module of that name is ``importlib.import_module("signed_nullity.rank")``.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

_EXPORTS = {
    "graphs": (
        "BalanceWitness",
        "SignedGraph",
        "adjacency_matrix",
        "build_graph",
        "cycle_sign",
        "fundamental_cycles",
        "induced_subgraph",
        "is_balanced",
        "is_connected",
        "switch",
        "switching_equivalent",
    ),
    "rank": (
        "cycle_nullity_formula",
        "forest_nullity_formula",
        "matching_number",
        "nullity",
        "rank",
    ),
    "reductions": (
        "ReductionTrace",
        "SpecialPath",
        "contract_special_path",
        "delete_pendant_pair",
        "find_pendants",
        "find_special_paths",
        "normalize_special_path",
        "reduce",
        "rewire_special_path",
    ),
    "recognizers": (
        "BicyclicBase",
        "RankClassVerdict",
        "UnbalancedBicyclicVerdict",
        "bicyclic_base",
        "low_rank_neighborhood_check",
        "may_be_extremal_bicyclic",
        "may_match_rank2",
        "may_match_rank3",
        "recognize_rank2",
        "recognize_rank3",
        "unbalanced_bicyclic_verdict",
    ),
    "canonical": ("canonical_code", "canonical_form"),
    "enumeration": ("signature_representatives",),
    "graphio": ("GraphFormatError", "parse_graph", "serialize_graph", "to_dot"),
    "verification": (
        "NullityCatalog",
        "TheoremReport",
        "bicyclic_classes",
        "catalog_nullity_classes",
        "verify_theorem",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "documents", "cli")

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name == "__version__":
        value = _import_module(".documents", __name__).TOOL_VERSION
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES, "__version__"})


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on its package.  The submodule ``rank``
        # shares its name with the function ``rank``, which keeps the name.
        if name in _ORIGIN and isinstance(value, _ModuleType):
            return
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
