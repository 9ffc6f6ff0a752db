"""Value records (errors.Record): construction, copies, pickles and the
dataclasses API."""

import copy
import dataclasses
import pickle
import pprint
from dataclasses import dataclass

import pytest

from formula_forge import ONE, ConstantEstimate, RewriteGraph, RhoEstimate, ShortestEntry
from formula_forge import SieveState, Sum, X, build_graph, encode_goodstein, run_sieve
from formula_forge import constant_estimate, rho_estimate, shortest
from formula_forge.counting import FAMILIES
from formula_forge.symexpr import Interned


def _records():
    return [FAMILIES["am"], FAMILIES["lop"], build_graph(6),
            rho_estimate("ame", 20, 5, 53), constant_estimate(20, 5, 53),
            shortest(6), run_sieve(2)]


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


# what ShortestEntry and SieveState were before they became Records
@dataclass(frozen=True)
class _Entry:
    n: int
    size: int
    witness: object


@dataclass(frozen=True)
class _State:
    level: int
    integers: tuple
    primes: tuple


def _variants(record):
    """record, an equal copy, and one record per field with that field
    replaced by another record's."""
    other = {ShortestEntry: shortest(12), SieveState: run_sieve(1)}[type(record)]
    values = record._values()
    yield record
    yield type(record)(*values)
    for i, value in enumerate(other._values()):
        yield type(record)(*values[:i], value, *values[i + 1:])


@pytest.mark.parametrize("record, twin_class", [(shortest(6), _Entry), (run_sieve(2), _State)],
                         ids=["ShortestEntry", "SieveState"])
def test_value_records_behave_as_their_frozen_dataclass(record, twin_class):
    cls = type(record)
    names = tuple(f.name for f in dataclasses.fields(twin_class))
    assert cls.__match_args__ == twin_class.__match_args__ == names
    pairs = [(r, twin_class(*r._values())) for r in _variants(record)]
    for r, twin in pairs:
        assert repr(r) == repr(twin).replace("_Entry(", "ShortestEntry(").replace(
            "_State(", "SieveState(")
        assert hash(r) == hash(twin) and r != twin
        for s, other_twin in pairs:
            assert (r == s) is (twin == other_twin)
            assert (r != s) is (twin != other_twin)
    values = record._values()
    assert cls(**dict(zip(names, values))) == record
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields {', '.join(names)}"):
        cls(*values[:2])
    with pytest.raises(TypeError):
        cls(*values, 1)
    with pytest.raises(TypeError):
        cls(*values[:2], **{names[0]: values[0]})


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_dataclasses_api_reads_the_fields(record):
    cls, names = type(record), type(record).__match_args__
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert dataclasses.fields(cls) == dataclasses.fields(record)
    assert dataclasses.asdict(record) == dict(zip(names, record._values()))
    assert dataclasses.replace(record) == record
    first = names[0]
    changed = dataclasses.replace(record, **{first: "changed"})
    assert type(changed) is cls and getattr(changed, first) == "changed"
    assert changed._values()[1:] == record._values()[1:]
    # pprint reads __dataclass_params__ for a repr wider than its line
    assert pprint.pformat(record, width=10) == repr(record)


def test_interned_nodes_are_no_dataclasses():
    for node in (ONE, X, Sum((X, ONE)), encode_goodstein(5)):
        assert not dataclasses.is_dataclass(node)
        assert not dataclasses.is_dataclass(type(node))
        with pytest.raises(TypeError):
            dataclasses.fields(node)
        with pytest.raises(TypeError):
            dataclasses.replace(node)
