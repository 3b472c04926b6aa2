"""Records behave as the frozen dataclasses they replace, without generated code."""

import dataclasses
import importlib
from dataclasses import FrozenInstanceError, field, make_dataclass

import pytest

from vbx.record import Record, record


@record
class Cell(Record):
    """A record with a default and a field that equality ignores."""

    name: str
    value: float
    note: str = ""
    origin: object = field(default=None, compare=False)


# The frozen dataclass that Cell stands for.
Twin = make_dataclass("Cell", [("name", str), ("value", float), ("note", str, ""),
                               ("origin", object, field(default=None, compare=False))],
                      frozen=True)

CALLS = [(("a", 1.0), {}), (("a",), {"value": 1.0}), ((), {"value": 2, "name": "b"}),
         (("a", 1.0, "n"), {}), (("a", 1.0, "n", 7), {}), (("a", 1.0), {"origin": [1]}),
         (("a", -0.0), {"note": "x"})]


@pytest.mark.parametrize("args,kwargs", CALLS)
def test_a_record_is_built_compared_hashed_and_printed_as_its_dataclass(args, kwargs):
    r, t = Cell(*args, **kwargs), Twin(*args, **kwargs)
    assert [getattr(r, f.name) for f in dataclasses.fields(Cell)] == [
        getattr(t, f.name) for f in dataclasses.fields(Twin)]
    assert repr(r) == repr(t)
    for a2, k2 in CALLS:
        assert (r == Cell(*a2, **k2)) == (t == Twin(*a2, **k2))
        assert (r != Cell(*a2, **k2)) == (t != Twin(*a2, **k2))
    assert hash(r) == hash(t)
    assert dataclasses.replace(r, value=3.0) == Cell(r.name, 3.0, r.note, r.origin)
    assert (r == t) is False and Cell.__match_args__ == Twin.__match_args__


@pytest.mark.parametrize("args,kwargs", [((), {}), (("a",), {}), (("a", 1, "", None, 5), {}),
                                         (("a", 1), {"name": "b"}), (("a", 1), {"other": 0})])
def test_a_bad_call_is_a_type_error_as_for_the_dataclass(args, kwargs):
    with pytest.raises(TypeError):
        Twin(*args, **kwargs)
    with pytest.raises(TypeError, match="Cell()"):
        Cell(*args, **kwargs)


def test_a_record_refuses_assignment_and_deletion():
    r = Cell("a", 1.0)
    for name in ("name", "note", "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 2.0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    assert r == Cell("a", 1.0)


def test_a_field_record_cannot_honour_is_refused():
    with pytest.raises(TypeError, match="only a default and compare"):
        record(type("Listed", (Record,), {"__annotations__": {"items": "list"},
                                          "items": field(default_factory=list)}))


RECORDS = {
    "calculus": ["SmoothMap"], "constructions": ["Pulling"],
    "coords": ["VectorSpace", "Tensor", "Box"], "expr": ["Program"],
    "linalg": ["LinearMap", "OrderedBasis"], "pointwise": ["TotalPoint"],
    "report": ["CheckRecord", "CheckReport"],
    "spec": ["ChartSpec", "OverlapSpec", "BaseAtlasSpec", "BundleEdge", "VectorBundleSpec",
             "TensorFieldSpec", "BundleMorphismSpec"],
    "specio": ["SpecDocument"], "tensors": ["GradedTensor"],
}


def test_the_library_records_share_their_methods():
    for module, names in RECORDS.items():
        for name in names:
            cls = getattr(importlib.import_module(f"vbx.{module}"), name)
            assert dataclasses.is_dataclass(cls) and issubclass(cls, Record), name
            for method in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__"):
                assert getattr(cls, method) is getattr(Record, method), (name, method)


def _subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_every_record_built_by_record_init_keeps_its_fields_in_its_dict():
    for module in sorted(RECORDS):
        importlib.import_module(f"vbx.{module}")
    built = [cls for cls in _subclasses(Record)
             if dataclasses.is_dataclass(cls) and cls.__init__ is Record.__init__]
    assert Cell in built and len(built) >= sum(map(len, RECORDS.values()))
    for cls in built:
        assert cls.__dictoffset__ != 0, cls  # instances have a __dict__
        values = [object() for _ in cls._names]
        r = cls(*values)
        assert [getattr(r, name) for name in cls._names] == values, cls
        assert vars(r) == dict(zip(cls._names, values)), cls
        for name in (*cls._names, "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(r, name)
