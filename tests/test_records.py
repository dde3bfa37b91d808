"""Record types: immutable values that pickle, hash by value and print as
``Name(field=...)``."""

from __future__ import annotations

import pickle

import pytest

from signed_nullity import (
    build_graph,
    catalog_nullity_classes,
    find_special_paths,
    is_balanced,
    recognize_rank3,
    reduce,
    serialize_graph,
)
from signed_nullity.recognizers import bicyclic_base, unbalanced_bicyclic_verdict
from signed_nullity.verification import _SWEEPS, TheoremReport, Violation
from oracles import cycle_graph

DOUBLED_TRIANGLE = [(0, 1, 1), (0, 2, -1), (0, 3, -1), (1, 2, 1), (1, 3, 1)]


def _doubled_triangle():
    return build_graph(4, DOUBLED_TRIANGLE)


def _trace():
    # a triangle with a pendant vertex: one pendant-pair deletion
    return reduce(build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1)]))[1]


def _report():
    g = _doubled_triangle()
    violation = Violation(4, "synthetic counterexample", serialize_graph(g))
    return TheoremReport("theorem3.1", (4,), 3, (violation,), 0.25)


# each builder makes a new instance of one record type on every call
BUILDERS = {
    "SignedGraph": _doubled_triangle,
    "BalanceWitness": lambda: is_balanced(_doubled_triangle()),
    "RankClassVerdict": lambda: recognize_rank3(_doubled_triangle()),
    "UnbalancedBicyclicVerdict": lambda: unbalanced_bicyclic_verdict(_doubled_triangle()),
    "BicyclicBase": lambda: bicyclic_base(_doubled_triangle()),
    "SpecialPath": lambda: find_special_paths(cycle_graph(5))[0],
    "PendantDeletion": lambda: _trace().steps[0],
    "ReductionTrace": _trace,
    "Violation": lambda: _report().violations[0],
    "TheoremReport": _report,
    "Sweep": lambda: _SWEEPS["theorem3.1"],
    "CatalogEntry": lambda: catalog_nullity_classes(4, 3).entries[0],
    "NullityCatalog": lambda: catalog_nullity_classes(4, 3),
}


@pytest.fixture(params=sorted(BUILDERS))
def record(request):
    value = BUILDERS[request.param]()
    assert type(value).__name__ == request.param
    return value


def test_pickle_round_trip_gives_an_equal_value(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_equal_values_hash_equal(record):
    again = BUILDERS[type(record).__name__]()
    assert again == record and hash(again) == hash(record)


def test_attributes_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, type(record).__match_args__[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_repr_names_every_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in type(record).__match_args__)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_signed_graph_repr_is_unchanged():
    assert repr(_doubled_triangle()) == (
        "SignedGraph(order=4, edges=((0, 1, 1), (0, 2, -1), (0, 3, -1), (1, 2, 1), (1, 3, 1)))"
    )
    assert repr(build_graph(0, [])) == "SignedGraph(order=0, edges=())"


def test_a_signed_graph_equals_only_a_signed_graph():
    g = _doubled_triangle()
    assert g != (g.order, g.edges) and g != serialize_graph(g)
    with pytest.raises(AttributeError):
        del g.order
