"""Metamorphic relations: transforms of a set or a tiling whose effect on the
verdicts is a theorem, over every normalized set within {0..10} and on the
(7, 11, 13, 2) column-shift tile.

- Dilation: if gcd(t, |A|) = 1, then S_tA = S_A. Every spectrum power and
  (T2) product is made of primes of |A|, and for gcd(t, s) = 1,
  Phi_s | A(X^t) iff Phi_s | A(X). So (T1) and (T2) keep their verdicts,
  and by Tijdeman (1995) A + B = Z_M gives tA + B = Z_M. When |A| has at
  most two primes, as every |A| <= 11 here does, A tiles exactly when (T1)
  and (T2) hold, and then with least period lcm S_A (Coven-Meyerowitz
  Theorems A, B1 and B2), so tA has the status and the period of A.
- Reflection: max(A) - A has the mask X^max(A) A(1/X), and Phi_s is
  self-reciprocal for s > 1, so the spectrum, the verdicts, the status and
  the minimal period are unchanged.
- Lifting: A + B = Z_M gives A + (B + M{0..k-1}) = Z_kM.
"""

import math

import pytest

from inttiles.cmcheck import cm_report
from inttiles.search import minimal_tiling_period
from inttiles.tilingset import IntegerSet, is_tiling


def _verdicts(tile):
    report = cm_report(tile)
    return report.spectrum, report.t1, report.t2


def _dilate(tile, t, modulus=None):
    return IntegerSet.from_iterable(
        t * x if modulus is None else t * x % modulus for x in tile.elements
    )


def test_dilation_keeps_the_spectrum_and_the_tilings(corpus10):
    relations = tilings = 0
    for tile, result in corpus10:
        verdicts = _verdicts(tile)
        for t in range(2, 8):
            if math.gcd(t, len(tile)) != 1:
                continue
            relations += 1
            assert _verdicts(_dilate(tile, t)) == verdicts, (tile.elements, t)
            if result.status == "tiles":
                tilings += 1
                dilated = _dilate(tile, t, result.period)
                assert is_tiling(dilated, result.complement, result.period).tiles, (
                    tile.elements, t,
                )
    assert (relations, tilings) == (3746, 347)


def test_dilation_keeps_the_minimal_period(corpus10):
    # t = 5 takes minutes: the dilated sets reach diameter 50
    relations = tiles = 0
    for tile, result in corpus10:
        for t in (2, 3):
            if math.gcd(t, len(tile)) != 1:
                continue
            relations += 1
            dilated = minimal_tiling_period(_dilate(tile, t))
            assert (dilated.status, dilated.period) == (result.status, result.period), (
                tile.elements, t,
            )
            tiles += dilated.status == "tiles"
    assert (relations, tiles) == (1194, 107)


def test_reflection_keeps_the_verdicts_and_the_period(corpus10):
    # the reflection of a normalized set within {0..10} is another one
    results = {tile.elements: result for tile, result in corpus10}
    for tile, result in corpus10:
        mirror = IntegerSet.from_iterable(tile.elements[-1] - x for x in tile.elements)
        reflected = results[mirror.elements]
        assert (reflected.status, reflected.period) == (result.status, result.period)
        assert _verdicts(mirror) == _verdicts(tile), tile.elements


@pytest.mark.parametrize("k", [2, 3])
def test_lifted_complement_tiles_k_periods(corpus10, k):
    lifts = 0
    for tile, result in corpus10:
        if result.status != "tiles":
            continue
        lifts += 1
        m = result.period
        lifted = IntegerSet.from_iterable(
            b + m * j for b in result.complement.elements for j in range(k)
        )
        assert is_tiling(tile, lifted, k * m).tiles, (tile.elements, k)
    assert lifts == 99


@pytest.mark.parametrize("t", [2, 3, 5])
def test_dilated_theorem2_tile_still_tiles(desk_instance, t):
    modulus = desk_instance.modulus
    assert math.gcd(t, len(desk_instance.tile)) == 1
    dilated = _dilate(desk_instance.tile, t, modulus)
    assert is_tiling(dilated, desk_instance.complement, modulus).tiles
