"""The contract every value class keeps through polyring.Record."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from inttiles.cmcheck import cm_report, fiber_decompose
from inttiles.constructions import (
    Theorem2Checks,
    Theorem2Instance,
    Theorem2Params,
    diameter_counterexample,
    theorem2_exponent_report,
)
from inttiles.polyring import Factorization, IntPolynomial, Record
from inttiles.search import SearchConfig, minimal_tiling_period
from inttiles.tilingset import CyclicTiling, IntegerSet, is_tiling


def _records():
    """One value of each record class, most of them built by the library."""
    tile, complement = IntegerSet.of(0, 1), IntegerSet.of(0, 2)
    params = Theorem2Params(7, 11, 13, 2, target_beta=Fraction(11, 10), epsilon=Fraction(1, 10))
    checks = Theorem2Checks(True, True, 4, True, 2, True, True, True)
    # small stand-in fields: the contract does not depend on them
    instance = Theorem2Instance(params, 4, tile, complement, complement, 0, 2, 1, 1.5, checks)
    return [
        IntPolynomial((1, 0, -2)),
        Factorization(((2, 3), (5, 1))),
        tile,
        is_tiling(tile, IntegerSet.of(0, 1), 4),
        CyclicTiling(tile, complement, 4),
        SearchConfig(node_budget=5),
        minimal_tiling_period(IntegerSet.of(0, 2)),
        cm_report(IntegerSet.of(0, 1, 3)),
        fiber_decompose(IntegerSet.of(0, 3), 6, 2),
        params,
        checks,
        instance,
        theorem2_exponent_report(instance),
        diameter_counterexample(5, 7)[1],
    ]


def test_record_contract():
    values = _records()
    classes = [type(x) for x in values]
    # one value of each of the 14 record classes, and no class left out
    assert len(classes) == 14
    assert sorted(classes, key=str) == sorted(Record.__subclasses__(), key=str)
    names = {cls.__name__: cls for cls in classes} | {"Fraction": Fraction}
    assert repr(SearchConfig(node_budget=5)) == (
        "SearchConfig(candidate_mode='restricted', max_modulus_override=None, node_budget=5)"
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
    assert SearchConfig(node_budget=5) != SearchConfig(node_budget=6)
    assert IntegerSet.of(0, 1) != IntPolynomial((0, 1))
