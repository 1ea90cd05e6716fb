"""The value classes: slot classes on one immutable base (graphs._Value).

They replaced frozen dataclasses, so each must still build positionally and
by keyword, compare and hash by its fields within its own class only, refuse
assignment, pickle, and repr exactly as the dataclass did.
"""

import pickle
from dataclasses import make_dataclass

import pytest

from cmgraph import harness
from cmgraph.cohen_macaulay import CMReport, HHOrdering, HomologyWitness, PurityWitness
from cmgraph.complexes import ShellingResult
from cmgraph.covers import BasicCliqueCover, RMatching
from cmgraph.graphs import Graph, _Value
from cmgraph.harness import Claim, GraphEnsemble, GraphFilters
from cmgraph.homology import BoundaryMatrix, FieldSpec

# each class with a function building one set of its fields afresh
SAMPLES = {
    FieldSpec: lambda: (3,),
    BoundaryMatrix: lambda: (((),), ((1,), (2,)), ((1, 1),)),
    HomologyWitness: lambda: ((1, 2), 0),
    PurityWitness: lambda: ((1,), (2, 3)),
    CMReport: lambda: (FieldSpec(2), False, HomologyWitness((1,), 0)),
    HHOrdering: lambda: (((1, 2), (3, 4)),),
    ShellingResult: lambda: ("shellable", ((1, 2), (2, 3)), 2),
    RMatching: lambda: (2, ((1, 2), (3, 4))),
    BasicCliqueCover: lambda: (((1, 2), (3,)), (2,)),
    GraphFilters: lambda: (True, 3, 3, True, False, True),
    GraphEnsemble: lambda: (3, GraphFilters(r_partite=2), (Graph(2, [(1, 2)]), Graph(3))),
    Claim: lambda: (
        "main-theorem r={r}", "main", harness._main_filters, True,
        harness._check_bipartite_equiv, (0, 2), False,
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)


def test_every_value_class_is_sampled():
    package = {c for c in _Value.__subclasses__() if c.__module__.startswith("cmgraph.")}
    assert set(SAMPLES) == package


@CLASSES
def test_equal_fields_give_equal_values_with_equal_hashes(cls):
    a, b = cls(*SAMPLES[cls]()), cls(*SAMPLES[cls]())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@CLASSES
def test_a_value_equals_neither_its_field_tuple_nor_another_class(cls):
    fields = SAMPLES[cls]()
    twin = type(cls.__name__, (_Value,), {"__slots__": cls.__slots__})
    a = cls(*fields)
    assert a != fields and fields != a
    assert a != twin(*fields) and twin(*fields) != a
    assert twin(*fields) == twin(*fields)


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    a = cls(*SAMPLES[cls]())
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*SAMPLES[cls]())


@CLASSES
def test_pickle_round_trips(cls):
    a = cls(*SAMPLES[cls]())
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and b == a


@CLASSES
def test_repr_is_the_frozen_dataclass_repr(cls):
    fields = SAMPLES[cls]()
    reference = make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    assert repr(cls(*fields)) == repr(reference(*fields))


@CLASSES
def test_keyword_construction_equals_positional(cls):
    fields = SAMPLES[cls]()
    assert cls(**dict(zip(cls.__slots__, fields))) == cls(*fields)
    assert cls(*fields[:1], **dict(zip(cls.__slots__[1:], fields[1:]))) == cls(*fields)


def test_left_out_fields_take_the_class_defaults():
    assert GraphFilters() == GraphFilters(False, None, None, False, False, False)
    assert GraphFilters(r_partite=3, class_g=True).max_clique_size is None
    claim = Claim("c", "main", harness._main_filters, True, harness._check_bipartite_equiv)
    assert (claim.needs_chars, claim.violation) == ((), True)
    assert Claim(*SAMPLES[Claim]()[:5], violation=False).violation is False


@CLASSES
def test_a_wrong_arity_or_keyword_raises_type_error(cls):
    fields = SAMPLES[cls]()
    name = cls.__slots__[0]
    with pytest.raises(TypeError):
        cls(*fields, fields[0])
    with pytest.raises(TypeError):
        cls(*fields, **{name: fields[0]})
    with pytest.raises(TypeError):
        cls(*fields[:-1], unknown=1)
    if cls is not GraphFilters:
        with pytest.raises(TypeError):
            cls()


def test_validation_still_raises_value_error():
    with pytest.raises(ValueError, match="prime"):
        FieldSpec(4)
    with pytest.raises(ValueError, match="connected 'no' is not a bool"):
        GraphFilters(connected="no")
    with pytest.raises(ValueError, match="r must be at least 1"):
        GraphFilters(r_partite=0)
