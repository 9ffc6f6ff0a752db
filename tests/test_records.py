"""Value records (errors.Record): construction, copies and pickles."""

import copy
import pickle

import pytest

from formula_forge import ConstantEstimate, RewriteGraph, RhoEstimate, Sum, X, build_graph
from formula_forge import constant_estimate, rho_estimate
from formula_forge.counting import FAMILIES
from formula_forge.symexpr import Interned


def _records():
    return [FAMILIES["am"], FAMILIES["lop"], build_graph(6),
            rho_estimate("ame", 20, 5, 53), constant_estimate(20, 5, 53)]


def _round_trips(record):
    yield copy.copy(record)
    yield copy.deepcopy(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_copies_and_pickles_are_equal_records(record):
    for twin in _round_trips(record):
        assert type(twin) is type(record) and twin == record
        assert all(getattr(twin, name) == getattr(record, name)
                   for name in type(record).__slots__)


def test_fields_by_position_or_keyword():
    est = rho_estimate("am", 20, 5, 53)
    fields = est._values()
    assert RhoEstimate(*fields) == est
    assert RhoEstimate(**dict(zip(est.__match_args__, fields))) == est
    assert RhoEstimate(*fields[:3], **dict(zip(est.__match_args__[3:], fields[3:]))) == est
    assert ConstantEstimate.__match_args__ == (
        "rho", "constant", "radicand", "ratios", "terms", "iterations", "precision_bits")
    g = build_graph(4)
    assert RewriteGraph(g.n, g.vertices, g.adjacency, g.edge_labels) == g


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    (tuple(range(7)), {}),
    (tuple(range(9)), {}),
    (tuple(range(8)), {"family": "am"}),
    (tuple(range(7)), {"residual": 0, "other": 1}),
    (tuple(range(7)), {"family": "am"}),
])
def test_wrong_fields_are_a_type_error(args, kwargs):
    with pytest.raises(TypeError, match="RhoEstimate takes the fields family, rho"):
        RhoEstimate(*args, **kwargs)


def test_estimates_are_immutable_and_hashable():
    est = constant_estimate(20, 5, 53)
    assert hash(est) == hash(copy.copy(est))
    assert repr(est).startswith("ConstantEstimate(rho=mpf(")
    with pytest.raises(AttributeError):
        est.rho = 4
    with pytest.raises(AttributeError):
        del est.rho


def test_interned_nodes_take_no_python_level_init():
    assert Interned.__init__ is object.__init__
    node = Sum((X, X))
    assert Sum((X, X)) is node and copy.copy(node) is node
