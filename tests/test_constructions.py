import math
from fractions import Fraction

import pytest

from inttiles.cmcheck import check_t1, check_t2, cm_report, spectrum
from inttiles import constructions
from inttiles.constructions import (
    EPSILON_DENOMINATOR_LIMIT,
    Theorem2Params,
    diameter_counterexample,
    standard_tile,
    theorem2_generate,
)
from inttiles.polyring import factorize
from inttiles.search import find_complement, minimal_tiling_period
from inttiles.tilingset import IntegerSet, is_tiling


# --- parameter validation -------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 15, 2)  # 15 not prime
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 17, 2)  # 17 >= 2*7
    with pytest.raises(ValueError):
        Theorem2Params(11, 7, 13, 2)  # not increasing
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 1)  # n < 2
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 2, target_beta=Fraction(3, 2))
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 2, epsilon=Fraction(0))
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 2, epsilon=Fraction(3))  # alpha = 0
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 2, epsilon=Fraction(10**9))
    with pytest.raises(ValueError):
        Theorem2Params(7, 11, 13, 2, epsilon=Fraction(1, EPSILON_DENOMINATOR_LIMIT + 1))


def test_bad_n_and_exponents_refused_before_primality(monkeypatch):
    # trial division of a large prime would take hours
    def forbidden(n):
        raise AssertionError("primality tested before the cheap checks")

    monkeypatch.setattr(constructions, "is_prime", forbidden)
    with pytest.raises(ValueError, match="n >= 2"):
        Theorem2Params(2**61 - 1, 11, 13, 1)
    with pytest.raises(ValueError, match="exponents"):
        standard_tile([(2**61 - 1, 0)])


def test_alpha_formula():
    params = Theorem2Params(7, 11, 13, 2, epsilon=Fraction(1, 10))
    assert params.alpha == Fraction(29, 25)  # (3 - 1/10) * 2 / 5
    assert Theorem2Params(7, 11, 13, 2).alpha is None


def test_alpha_approaches_three_halves():
    # alpha = (3 - eps) n / (2n + 1) tends to 3/2 as n grows and eps shrinks
    for n, eps, gap in [(10, Fraction(1, 10), Fraction(1, 5)),
                        (100, Fraction(1, 100), Fraction(1, 50)),
                        (10**4, Fraction(1, 10**4), Fraction(1, 5000))]:
        alpha = (3 - eps) * n / Fraction(2 * n + 1)
        assert 0 < Fraction(3, 2) - alpha < gap


# --- the column-shift instance ---------------------------------------------------

DESK = Theorem2Params(7, 11, 13, 2)


def test_instance_sizes_and_shifts(desk_instance):
    inst = desk_instance
    assert inst.modulus == 1002001
    assert len(inst.tile) == 1001
    assert len(inst.complement_base) == 1001
    assert len(inst.complement) == 1001
    # diameter formula: sum of (p_i - 1) M / p_i^n
    assert inst.diam == 6 * 20449 + 10 * 8281 + 12 * 5929 == 276652
    # shift offsets from the displayed formulas
    assert inst.shift_a == 12 * (1002001 // 13) == 924924
    assert inst.shift_b == 10 * (1002001 // 11) + 6 * (1002001 // 7) == 1769768


def test_instance_tilings_verified(desk_instance):
    checks = desk_instance.checks
    assert checks.tiling_base and checks.tiling_shifted
    assert checks.all_pass()


def test_instance_least_periods(desk_instance):
    inst = desk_instance
    assert inst.checks.shifted_least_period == inst.modulus
    lp0 = inst.checks.base_least_period
    for p in (7, 11, 13):
        assert (inst.modulus // p) % lp0 == 0
    assert lp0 < inst.modulus


def test_instance_prime_sets(desk_instance):
    inst = desk_instance
    assert [p for p, _ in factorize(inst.modulus)] == [7, 11, 13]
    assert [p for p, _ in factorize(len(inst.tile))] == [7, 11, 13]


def test_tile_minimal_period_is_lcm_of_its_spectrum(desk_instance):
    # M is the period of this one tiling; the tile's own minimal period is
    # lcm_sa = 1001 = |A|, where A is a complete set of residues
    tile = desk_instance.tile
    rep = cm_report(tile)
    assert rep.spectrum == (7, 11, 13) and rep.t1 and rep.t2
    assert rep.lcm_sa == 1001 == len(tile)
    assert is_tiling(tile, IntegerSet.of(0), 1001).tiles


def test_instance_determinism(desk_instance):
    again = theorem2_generate(DESK)
    assert again.tile == desk_instance.tile
    assert again.complement == desk_instance.complement
    assert again.shift_a == desk_instance.shift_a


def test_exponent_report(desk_instance):
    assert DESK.diam_upper_bound == 3 * 1002001 // 7 == 429429
    assert DESK.beta_below_alpha is None and DESK.prime_growth_ok is None
    report = desk_instance.to_json_dict()["exponent_report"]
    # the None verdicts are left out
    assert list(report) == ["diam", "diam_upper_bound", "diam_within_bound", "exponent"]
    assert report["diam"] == desk_instance.diam == 276652
    assert report["diam_upper_bound"] == 429429 and report["diam_within_bound"]
    assert report["exponent"] == desk_instance.log_ratio
    assert desk_instance.log_ratio == math.log(1002001) / math.log(276652)
    assert abs(desk_instance.log_ratio - 1.1026) < 1e-3


def test_exponent_report_with_targets():
    # the targets feed only the verdicts, which the parameters decide
    params = Theorem2Params(7, 11, 13, 2, target_beta=Fraction(11, 10), epsilon=Fraction(1, 10))
    assert params.alpha == Fraction(29, 25)
    assert params.beta_below_alpha is True  # 11/10 < 29/25 < 3/2
    # 7^(1/10) / 2 < 1, so the prime-growth condition fails at desk scale
    assert params.prime_growth_ok is False
    # beta_below_alpha needs both targets
    assert Theorem2Params(7, 11, 13, 2, target_beta=Fraction(11, 10)).beta_below_alpha is None
    # beta = 6/5 is not below alpha = 29/25
    assert Theorem2Params(
        7, 11, 13, 2, target_beta=Fraction(6, 5), epsilon=Fraction(1, 10)
    ).beta_below_alpha is False
    # exact comparison sanity: it holds once p1^eps exceeds 2
    assert Theorem2Params(7, 11, 13, 2, epsilon=Fraction(2)).prime_growth_ok is True


@pytest.mark.parametrize(
    "epsilon",
    [Fraction(1, EPSILON_DENOMINATOR_LIMIT), Fraction(3 * EPSILON_DENOMINATOR_LIMIT - 1,
                                                      EPSILON_DENOMINATOR_LIMIT),
     Fraction(1, 3), Fraction(5, 4), Fraction(7, 3)],
)
def test_exponent_report_verdict_at_epsilon_bounds(epsilon):
    # the exact comparison agrees with floats away from the threshold, and
    # stays cheap at the largest epsilon and denominator accepted
    expected = (7 ** float(epsilon) / 2) ** 2 > 1.5**1.5
    assert Theorem2Params(7, 11, 13, 2, epsilon=epsilon).prime_growth_ok is expected


def test_second_desk_instance():
    inst = theorem2_generate(Theorem2Params(11, 13, 17, 2))
    assert inst.modulus == (11 * 13 * 17) ** 2
    assert inst.checks.all_pass()
    assert inst.checks.shifted_least_period == inst.modulus


def test_witnesses_and_period_bound_on_desk_instance(desk_instance):
    from inttiles.polyring import cyclotomic_divides, divisors
    from inttiles.search import period_bound_check, top_power_witnesses
    from inttiles.tilingset import CyclicTiling

    inst = desk_instance
    tiling = CyclicTiling(inst.tile, inst.complement, inst.modulus)
    witnesses = top_power_witnesses(tiling)
    assert [(p, e) for p, e, _ in witnesses] == [(7, 2), (11, 2), (13, 2)]
    mask = dict(inst.tile.mask_polynomial().terms())
    divs = divisors(inst.modulus)
    for p, e, s in witnesses:
        assert s % p**e == 0 and inst.modulus % s == 0
        # cross-check against the full divisor scan
        assert s in [d for d in divs if cyclotomic_divides(d, mask)]
    assert period_bound_check(tiling)  # 1002001 <= (2 * 276652)^3


# --- diameter counterexample -----------------------------------------------------


def test_counterexample_7_11():
    tile, report = diameter_counterexample(7, 11)
    assert report.modulus == 5929
    assert report.diam == 152 == tile.diameter()
    assert report.eq3_threshold == 5082  # (p-1) M / p
    assert report.eq3_holds is False
    assert len(tile) == 77
    assert spectrum(tile) == (49, 121)
    assert check_t2(tile) is False


def test_counterexample_11_13():
    tile, report = diameter_counterexample(11, 13)
    assert report.modulus == 20449
    assert report.diam == 110 + 156 == 266
    assert report.eq3_threshold == 18590
    assert report.eq3_holds is False


@pytest.mark.parametrize("p, q, explored", [(5, 7, 10), (7, 11, 9), (11, 13, 9), (13, 17, 8)])
def test_counterexample_is_t1_without_t2_and_does_not_tile(p, q, explored):
    # Coven-Meyerowitz Theorem B2: a tile whose size has at most two primes
    # satisfies (T2). These sets have |A| = pq and (T1) without (T2), so
    # none tiles, and the period search proves it
    tile, _ = diameter_counterexample(p, q)
    report = cm_report(tile)
    assert report.t1 and not report.t2
    result = minimal_tiling_period(tile)
    assert (result.status, len(result.explored)) == ("does_not_tile", explored)


def test_counterexample_validation():
    with pytest.raises(ValueError):
        diameter_counterexample(7, 15)  # not prime
    with pytest.raises(ValueError):
        diameter_counterexample(7, 17)  # q >= 2p
    with pytest.raises(ValueError):
        diameter_counterexample(11, 7)  # q < p


# --- box tiles --------------------------------------------------------------------


def test_standard_tile_examples():
    assert standard_tile([(2, 1)]).elements == (0, 1)
    assert standard_tile([(2, 2)]).elements == (0, 1, 2, 3)
    assert standard_tile([(2, 1), (3, 1)]).elements == (0, 2, 3, 4, 5, 7)


def test_standard_tile_tiles_and_satisfies_conditions():
    cases = [[(2, 1)], [(2, 2)], [(2, 1), (3, 1)], [(3, 2)], [(2, 2), (3, 1)], [(2, 1), (5, 1)]]
    for case in cases:
        tile = standard_tile(case)
        modulus = math.prod(p**a for p, a in case)
        assert len(tile) == modulus
        b = find_complement(tile, modulus)
        assert b is not None
        assert is_tiling(tile, b, modulus).tiles
        assert check_t1(tile) and check_t2(tile)


def _digit_scale_tile(spec):
    """The box tile as a direct sum of {0..p-1} at the digit scales
    p^(j-1) * N / p^e, j = 1..e, one loop level per scale."""
    exponents = {}
    for p, a in spec:
        exponents[p] = exponents.get(p, 0) + a
    total = math.prod(p**e for p, e in exponents.items())
    elems = [0]
    for p in sorted(exponents):
        e = exponents[p]
        for j in range(1, e + 1):
            step = p ** (j - 1) * total // p**e
            elems = [x + i * step for x in elems for i in range(p)]
    return tuple(sorted(elems))


@pytest.mark.parametrize(
    "spec",
    [[(2, 1)], [(2, 3)], [(3, 2), (2, 1)], [(2, 3), (3, 2), (5, 1)], [(5, 1), (2, 2), (5, 1)],
     [(7, 1), (3, 1), (2, 4)], [(2, 2), (3, 1), (5, 1), (7, 1)], [(11, 2), (2, 1)]],
)
def test_standard_tile_matches_digit_scales(spec):
    assert standard_tile(spec).elements == _digit_scale_tile(spec)


def test_standard_tile_merges_repeated_primes():
    assert standard_tile([(2, 1), (2, 2)]) == standard_tile([(2, 3)])


def test_standard_tile_validation():
    with pytest.raises(ValueError):
        standard_tile([])
    with pytest.raises(ValueError):
        standard_tile([(4, 1)])
    with pytest.raises(ValueError):
        standard_tile([(2, 0)])


def test_standard_tile_complete_residue_system():
    tile = standard_tile([(2, 1), (3, 2)])
    assert sorted(x % 18 for x in tile.elements) == list(range(18))
