"""The contract every value class keeps through polyring.Record."""

import copy
import gc
import inspect
import json
import pickle
from fractions import Fraction

import pytest

from inttiles.cmcheck import CmReport, cm_report, fiber_decompose
from inttiles.constructions import (
    Theorem2Checks,
    Theorem2Instance,
    Theorem2Params,
    diameter_counterexample,
)
from inttiles.polyring import IntPolynomial, Record
from inttiles.search import PeriodResult, minimal_tiling_period
from inttiles.tilingset import CyclicTiling, IntegerSet, is_tiling


def _records():
    """One value of each record class, most of them built by the library."""
    tile, complement = IntegerSet.of(0, 1), IntegerSet.of(0, 2)
    params = Theorem2Params(7, 11, 13, 2, target_beta=Fraction(11, 10), epsilon=Fraction(1, 10))
    checks = Theorem2Checks(True, True, 4, True, 2, True, True, True)
    # small stand-in fields: the contract does not depend on them
    instance = Theorem2Instance(params, tile, complement, complement, 0, 2, checks)
    return [
        IntPolynomial((1, 0, -2)),
        tile,
        is_tiling(tile, IntegerSet.of(0, 1), 4),
        CyclicTiling(tile, complement, 4),
        minimal_tiling_period(IntegerSet.of(0, 2)),
        cm_report(IntegerSet.of(0, 1, 3)),
        fiber_decompose(IntegerSet.of(0, 3), 6, 2),
        params,
        checks,
        instance,
        diameter_counterexample(5, 7)[1],
    ]


def test_record_contract():
    values = _records()
    classes = [type(x) for x in values]
    # one value of each of the 11 record classes, and no class left out
    assert len(classes) == 11
    assert sorted(classes, key=str) == sorted(Record.__subclasses__(), key=str)
    names = {cls.__name__: cls for cls in classes} | {"Fraction": Fraction}
    inconclusive = PeriodResult("inconclusive", None, None, 5)
    assert repr(inconclusive) == (
        "PeriodResult(status='inconclusive', period=None, complement=None, cap_used=5, "
        "explored=())"
    )
    assert repr(IntegerSet.of(0, 2)) == "IntegerSet(elements=(0, 2))"
    for x in values:
        cls, fields = type(x), dict(vars(x))
        # the fields, in declaration order, are the constructor's parameters
        assert list(fields) == list(inspect.signature(cls).parameters), cls
        # equal fields give equal values, hashed as the field tuple
        same = cls(**fields)
        assert same is not x and same == x and not same != x
        assert hash(same) == hash(x) == hash(tuple(fields.values()))
        assert x != tuple(fields.values()) and x != object()
        # Name(field=value, ...), which rebuilds the value
        body = ", ".join(f"{key}={value!r}" for key, value in fields.items())
        assert repr(x) == f"{cls.__name__}({body})"
        assert eval(repr(x), names) == x
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert vars(x) == fields
        copies = [pickle.loads(pickle.dumps(x, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in [*copies, copy.deepcopy(x), copy.copy(x)]:
            assert type(y) is cls and y == x and list(vars(y)) == list(fields)
    assert inconclusive != PeriodResult("inconclusive", None, None, 6)
    assert IntegerSet.of(0, 1) != IntPolynomial((0, 1))


def test_to_json_dict_rule():
    # every record but Theorem2Instance, whose payload renames keys, writes
    # its fields in order, leaves None out, and turns tuples into arrays, a
    # set into its elements and a fraction into "p/q"
    overriding = [cls for cls in Record.__subclasses__() if "to_json_dict" in vars(cls)]
    assert overriding == [Theorem2Instance]
    for x in _records():
        if type(x) is Theorem2Instance:
            continue
        expected = {
            key: list(value.elements) if type(value) is IntegerSet
            else str(value) if type(value) is Fraction
            else json.loads(json.dumps(value))
            for key, value in vars(x).items()
            if value is not None
        }
        assert x.to_json_dict() == expected, type(x)
        assert list(x.to_json_dict()) == list(expected)
        if type(x) is Theorem2Params:
            assert x.to_json_dict()["target_beta"] == "11/10"
    # any other type passes through, so json.dumps refuses it
    odd = Theorem2Checks(object(), True, 4, True, 2, True, True, True)
    with pytest.raises(TypeError):
        json.dumps(odd.to_json_dict())


def test_constructor_rule():
    # the compiled __init__ binds its arguments as a def does
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'cap_used'"):
        PeriodResult("tiles", 2, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        PeriodResult("tiles", 2, None, 4, extra=1)
    with pytest.raises(TypeError, match="multiple values for argument 'status'"):
        PeriodResult("tiles", 2, None, 4, status="tiles")
    assert PeriodResult("tiles", 2, None, 4) == PeriodResult("tiles", 2, None, cap_used=4)
    assert PeriodResult.__init__.__qualname__ == "PeriodResult.__init__"
    # a default moves into the signature and out of the class namespace
    assert "explored" not in vars(PeriodResult)
    assert "half_bound_holds" not in vars(CmReport)
    assert inspect.signature(CmReport).parameters["half_bound_holds"].default is None
    # a record that writes its own __init__ keeps it
    for cls in (IntPolynomial, IntegerSet, Theorem2Params, CyclicTiling):
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert cls.__init__.__code__.co_filename == inspect.getfile(cls)
    assert PeriodResult.__init__.__code__.co_filename == "<string>"


def test_required_field_after_default_fails_at_definition():
    with pytest.raises(SyntaxError):

        class Throwaway(Record):
            optional: int = 0
            required: int

    class Fine(Record):
        required: int
        optional: int = 0

    assert repr(Fine(1)) == f"{Fine.__qualname__}(required=1, optional=0)"
    assert "optional" not in vars(Fine)
    # both throwaway classes leave Record's subclasses, which the contract counts
    del Fine
    gc.collect()
    assert len(Record.__subclasses__()) == 11
