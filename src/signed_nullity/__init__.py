"""Exact-arithmetic toolkit for the nullity of signed graphs.

Core value types and operations are re-exported here; the verification
sweeps and catalogs live in :mod:`signed_nullity.verification` and the
command-line front end in :mod:`signed_nullity.cli`.
"""

from .graphs import (
    BalanceWitness,
    SignedGraph,
    adjacency_matrix,
    build_graph,
    cycle_sign,
    disjoint_union,
    fundamental_cycles,
    induced_subgraph,
    is_balanced,
    is_connected,
    switch,
    switching_equivalent,
)
from .rank import (
    cycle_nullity_formula,
    forest_nullity_formula,
    matching_number,
    nullity,
    rank,
)
from .reductions import (
    ReductionTrace,
    SpecialPath,
    contract_special_path,
    delete_pendant_pair,
    find_pendants,
    find_special_paths,
    normalize_special_path,
    reduce,
    rewire_special_path,
)
from .recognizers import (
    BicyclicBase,
    RankClassVerdict,
    UnbalancedBicyclicVerdict,
    bicyclic_base,
    low_rank_neighborhood_check,
    recognize_rank2,
    recognize_rank3,
    unbalanced_bicyclic_verdict,
)
from .canonical import canonical_code, canonical_form
from .enumeration import (
    connected_labeled_graphs,
    labeled_trees,
    signature_representatives,
)
from .graphio import GraphFormatError, parse_graph, serialize_graph, to_dot
from .verification import (
    NullityCatalog,
    TheoremReport,
    bicyclic_underlying,
    catalog_nullity_classes,
    verify_theorem,
)
from . import documents
from .documents import TOOL_VERSION as __version__

__all__ = [
    "BalanceWitness",
    "BicyclicBase",
    "GraphFormatError",
    "NullityCatalog",
    "RankClassVerdict",
    "ReductionTrace",
    "SignedGraph",
    "SpecialPath",
    "TheoremReport",
    "UnbalancedBicyclicVerdict",
    "adjacency_matrix",
    "bicyclic_base",
    "bicyclic_underlying",
    "build_graph",
    "canonical_code",
    "canonical_form",
    "catalog_nullity_classes",
    "connected_labeled_graphs",
    "contract_special_path",
    "cycle_nullity_formula",
    "cycle_sign",
    "delete_pendant_pair",
    "disjoint_union",
    "find_pendants",
    "find_special_paths",
    "forest_nullity_formula",
    "fundamental_cycles",
    "induced_subgraph",
    "is_balanced",
    "is_connected",
    "labeled_trees",
    "low_rank_neighborhood_check",
    "matching_number",
    "normalize_special_path",
    "nullity",
    "parse_graph",
    "rank",
    "recognize_rank2",
    "recognize_rank3",
    "reduce",
    "rewire_special_path",
    "serialize_graph",
    "signature_representatives",
    "switch",
    "switching_equivalent",
    "to_dot",
    "unbalanced_bicyclic_verdict",
    "verify_theorem",
]
