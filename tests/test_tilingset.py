import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inttiles.cmcheck import check_t1, check_t2, cm_report
from inttiles.constructions import (
    Theorem2Params,
    diameter_counterexample,
    standard_tile,
    theorem2_generate,
)
from inttiles.polyring import cyclotomic_divides, divisors, factorize, mul_mod_cyclic
from inttiles import tilingset
from inttiles.tilingset import (
    CyclicTiling,
    IntegerSet,
    _cyclotomic_route,
    _direct_route,
    _progression_factors,
    is_tiling,
    least_period,
)


# --- IntegerSet --------------------------------------------------------------


def test_integer_set_validation():
    for elements, message in [
        ((), "set must be nonempty"),
        ((-1, 2), "elements must be nonnegative"),
        ((-3,), "elements must be nonnegative"),
        ((2, 1), "elements must be strictly increasing"),
        ((1, 1), "duplicate element 1"),
        ((0, 4, 4, 9), "duplicate element 4"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            IntegerSet(elements)
        if "increasing" not in message:  # from_iterable sorts first
            with pytest.raises(ValueError, match=f"^{message}$"):
                IntegerSet.from_iterable(reversed(elements))
    # in sorted input a duplicate is reported before a negative element
    with pytest.raises(ValueError, match="^duplicate element -1$"):
        IntegerSet.from_iterable([-1, 5, -1])


def test_integer_set_basics():
    a = IntegerSet.of(7, 5)
    assert a.elements == (5, 7)
    assert len(a) == 2
    assert a.diameter() == 2
    assert 5 in a and 6 not in a


def test_integer_set_contains_each_element_and_nothing_else():
    a = IntegerSet.of(2, 3, 7, 11, 10**15)
    below, gaps, above = [-1, 0, 1], [4, 5, 6, 8, 9, 10, 12, 10**15 - 1], [10**15 + 1]
    assert all(x in a for x in a.elements)
    assert not any(x in a for x in below + gaps + above)
    # an equal float is a member; a value no int orders against is not
    assert 7.0 in a and "7" not in a and None not in a


def test_normalize_examples():
    assert IntegerSet.of(5, 7).normalize().elements == (0, 2)
    a = IntegerSet.of(0, 1, 3)
    assert a.normalize() is a  # already normalized
    assert IntegerSet.of(100).normalize().elements == (0,)


def test_normalize_preserves_diameter():
    rng = random.Random(5)
    for _ in range(50):
        elems = sorted(rng.sample(range(200), rng.randrange(1, 8)))
        a = IntegerSet(elems)
        assert a.normalize().diameter() == a.diameter()


def test_mask_polynomial_examples():
    assert IntegerSet.of(0, 1, 2, 3).mask_polynomial().coeffs == (1, 1, 1, 1)
    assert IntegerSet.of(0).mask_polynomial().coeffs == (1,)
    assert IntegerSet.of(0, 2).mask_polynomial().coeffs == (1, 0, 1)


@given(st.sets(st.integers(0, 60), min_size=1, max_size=10))
def test_mask_polynomial_counts_elements(elems):
    a = IntegerSet.from_iterable(elems)
    mask = a.mask_polynomial()
    assert sum(mask.coeffs) == len(a)
    assert len(mask.coeffs) - 1 == max(elems)
    assert all(c in (0, 1) for c in mask.coeffs)


# --- is_tiling ---------------------------------------------------------------


def test_is_tiling_examples():
    assert is_tiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 4).tiles
    verdict = is_tiling(IntegerSet.of(0, 1), IntegerSet.of(0, 1), 4)
    assert not verdict.tiles
    assert verdict.first_overcovered == 1  # residue 1 covered twice
    assert verdict.first_undercovered == 3  # residue 3 never covered
    assert not verdict.direct_route and not verdict.cyclotomic_route


def test_is_tiling_trivial_modulus():
    assert is_tiling(IntegerSet.of(0), IntegerSet.of(0), 1).tiles


def test_is_tiling_symmetry():
    cases = [
        ((0, 1), (0, 2), 4),
        ((0, 2), (0, 1), 4),
        ((0, 1, 4, 5), (0, 2), 8),
        ((0, 3), (0, 1, 2), 6),
    ]
    for a, b, m in cases:
        assert is_tiling(IntegerSet(a), IntegerSet(b), m).tiles
        assert is_tiling(IntegerSet(b), IntegerSet(a), m).tiles


def test_is_tiling_verdict_is_symmetric():
    # every field, not only .tiles, and on non-tilings too: the direct route
    # may shift either set, but the verdict must not depend on which
    instance = theorem2_generate(Theorem2Params(7, 11, 13, 2))
    tile, base, complement = instance.tile, instance.complement_base, instance.complement
    moved = complement.elements[:-1] + (complement.elements[-1] + 1,)
    cases = [
        # near misses
        ((0, 1), (0, 1), 4),
        ((0, 1, 4, 5), (0, 3), 8),
        ((0, 2, 3), (0, 3, 6), 9),
        (tile.elements, moved, instance.modulus),
        # size mismatches
        ((0, 1, 2), (0, 2), 5),
        ((0,), (0, 1, 2), 6),
        ((0, 1), (0, 2), 5),
        # repeated residues
        ((0, 8), (0, 1, 2, 3), 8),
        ((0, 6), (0, 2, 4), 6),
        ((1, 7, 9), (0, 2), 6),
        ((0, 4), (0, 1), 4),
        ((0, 1, 9), (0, 3, 6), 9),
        # equal sizes, unequal spans
        ((0, 1), (0, 2), 4),
        ((0, 1, 2), (0, 3, 6), 9),
        ((0, 1, 2), (0, 4, 8), 9),
        ((0, 1, 5), (0, 3, 7), 9),
        # the theorem2 tiling at n = 2, before and after the column shift
        (tile.elements, base.elements, instance.modulus),
        (tile.elements, complement.elements, instance.modulus),
    ]
    rng = random.Random(26)
    cases += [
        (a.elements, b.elements, m) for a, b, m in (_random_instance(rng) for _ in range(300))
    ]
    for a, b, m in cases:
        forward = is_tiling(IntegerSet(a), IntegerSet(b), m)
        backward = is_tiling(IntegerSet(b), IntegerSet(a), m)
        assert vars(forward) == vars(backward), (a, b, m)


def test_is_tiling_symmetry_on_corpus(corpus10):
    for tile, result in corpus10:
        if result.status == "tiles":
            assert is_tiling(result.complement, tile, result.period).tiles


def test_is_tiling_translation_invariance():
    a = IntegerSet.of(0, 1, 4, 5)
    b = IntegerSet.of(0, 2)
    for da in (0, 1, 3, 8, 11):
        for db in (0, 2, 7):
            assert is_tiling(a.translate(da), b.translate(db), 8).tiles
    bad_a = IntegerSet.of(0, 1)
    for da in (1, 2, 5):
        assert not is_tiling(bad_a.translate(da), bad_a, 4).tiles


def test_is_tiling_size_mismatch_is_not_a_tiling():
    assert not is_tiling(IntegerSet.of(0), IntegerSet.of(0), 2).tiles
    assert not is_tiling(IntegerSet.of(0, 1, 2), IntegerSet.of(0, 2), 5).tiles


def _box_pair(factors, split):
    """Residues of a box tiling of Z_prod(factors): A on factors[:split]."""
    a, scale = [0], 1
    for p in factors[:split]:
        a = [x + i * scale for x in a for i in range(p)]
        scale *= p
    b = [0]
    for p in factors[split:]:
        b = [x + i * scale for x in b for i in range(p)]
        scale *= p
    return a, b


def _random_instance(rng):
    m = rng.randrange(1, 41)
    kind = rng.random()
    if kind < 0.45:
        a = sorted(rng.sample(range(m), rng.randrange(1, min(m, 7) + 1)))
        b = sorted(rng.sample(range(m), rng.randrange(1, min(m, 7) + 1)))
        return IntegerSet(a), IntegerSet(b), m
    # random box tiling of Z_m, translated: guaranteed positive cases
    factors = [p for p, e in factorize(m) for _ in range(e)]
    rng.shuffle(factors)
    split = rng.randrange(len(factors) + 1) if factors else 0
    a_elems, b_elems = _box_pair(factors, split)
    da, db = rng.randrange(m), rng.randrange(m)
    a = IntegerSet(sorted((x + da) % m for x in a_elems))
    b = IntegerSet(sorted((x + db) % m for x in b_elems))
    return a, b, m


def test_route_agreement_randomized():
    # routes must agree on every instance; is_tiling raises on disagreement
    rng = random.Random(424242)
    tilings = 0
    for _ in range(800):
        a, b, m = _random_instance(rng)
        if is_tiling(a, b, m).tiles:
            tilings += 1
    assert tilings > 100  # the generator produces real positives


# --- cyclotomic route: per-factor criterion vs the dense product -------------


def _dense_cyclotomic_route(tile, complement, modulus):
    """Reference: fold the reduced product A(X)B(X) mod X^M - 1 per divisor."""
    if len(tile) * len(complement) != modulus:
        return False, None
    product = mul_mod_cyclic(
        tile.mask_polynomial(), complement.mask_polynomial(), modulus
    )
    coeffs = list(product.coeffs) + [0] * (modulus - len(product.coeffs))
    for s in divisors(modulus)[1:]:
        if not cyclotomic_divides(s, {r: sum(coeffs[r::s]) for r in range(s)}):
            return False, s
    return True, None


@st.composite
def route_instances(draw):
    """Box tilings and their near misses, size mismatches, lifted elements
    (>= M) and tiles that are not injective mod M, all translated."""
    m = draw(st.integers(1, 96))
    factors = draw(st.permutations([p for p, e in factorize(m) for _ in range(e)]))
    a, b = _box_pair(factors, draw(st.integers(0, len(factors))))
    lift = st.integers(0, 2)
    a = [x + k * m for x, k in zip(a, draw(st.lists(lift, min_size=len(a), max_size=len(a))))]
    b = [x + k * m for x, k in zip(b, draw(st.lists(lift, min_size=len(b), max_size=len(b))))]
    kind = draw(st.sampled_from(("box", "near_miss", "mismatch", "non_injective")))
    if kind == "near_miss":
        i = draw(st.integers(0, len(b) - 1))
        b[i] = draw(st.integers(0, 3 * m).filter(lambda x: x not in b))
    elif kind == "mismatch":
        a.append(draw(st.integers(0, 3 * m).filter(lambda x: x not in a)))
    elif kind == "non_injective":
        if len(a) >= 2:
            a[0] = a[1] + m  # same size, two elements in one residue class
        else:
            a.append(a[0] + m)  # e.g. {0, M}
    da, db = draw(st.integers(0, 2 * m)), draw(st.integers(0, 2 * m))
    return (
        IntegerSet.from_iterable(x + da for x in a),
        IntegerSet.from_iterable(x + db for x in b),
        m,
    )


@settings(max_examples=400, deadline=None)
@given(route_instances())
def test_cyclotomic_route_matches_dense_product(instance):
    a, b, m = instance
    expected = _dense_cyclotomic_route(a, b, m)
    assert _cyclotomic_route(a, b, m) == expected
    verdict = is_tiling(a, b, m)  # raises if the routes disagree
    assert (verdict.tiles, verdict.failing_divisor) == expected


# --- cyclotomic route: progression factors ----------------------------------


@st.composite
def progression_sum_instances(draw):
    """Translated sums of 1-3 progressions {0, d, ..., (k-1)d} per set, not
    lifted, so that the factor path is reached: box tilings of Z_M, and
    pairs whose progression lengths multiply to M with free steps (equal
    steps and colliding sums included)."""
    m = draw(st.integers(1, 96))
    primes = draw(st.permutations([p for p, e in factorize(m) for _ in range(e)]))
    if draw(st.booleans()):
        a, b = _box_pair(primes, draw(st.integers(0, len(primes))))
    else:
        lengths = [[1] * draw(st.integers(1, 3)) for _ in range(2)]
        for p in primes:
            side = lengths[draw(st.integers(0, 1))]
            side[draw(st.integers(0, len(side) - 1))] *= p

        def progression_sum(ks):
            elems = [0]
            for k in ks:
                d = draw(st.integers(1, 2 * m))
                elems = [x + i * d for x in elems for i in range(k)]
            return elems

        a, b = progression_sum(lengths[0]), progression_sum(lengths[1])
    da, db = draw(st.integers(0, 2 * m)), draw(st.integers(0, 2 * m))
    return (
        IntegerSet.from_iterable({x + da for x in a}),
        IntegerSet.from_iterable({x + db for x in b}),
        m,
    )


# chains of unequal length whose ends all lie in the set: {1..6, 8, 10..14}
# has starts 1, 8, 10 for d = 1 and 12 = 3 * 4 elements, yet is not
# {1, 8, 10} + {0, 1, 2, 3}
UNEQUAL_CHAINS = IntegerSet([1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 14])


@settings(max_examples=400, deadline=None)
@given(progression_sum_instances())
@example((IntegerSet.of(0, 12, 24, 36, 48, 60), UNEQUAL_CHAINS, 72))
@example((IntegerSet.of(8, 15, 17, 32, 57, 63), UNEQUAL_CHAINS, 72))
@example((IntegerSet.of(0, 1, 2, 3), IntegerSet.of(0, 4), 8))  # {0,1} + {0,2}
@example((IntegerSet.of(5), IntegerSet(range(3, 15)), 12))  # one element, all of Z_M
@example((IntegerSet.of(0), IntegerSet.of(0), 1))
def test_cyclotomic_route_matches_dense_on_progression_sums(instance):
    a, b, m = instance
    for x, y in ((a, b), (b, a)):
        expected = _dense_cyclotomic_route(x, y, m)
        assert _cyclotomic_route(x, y, m) == expected
        verdict = is_tiling(x, y, m)  # raises if the routes disagree
        assert (verdict.tiles, verdict.failing_divisor) == expected


@st.composite
def chain_runs(draw):
    """c runs {x, x + d, ...} of step d, one missing term apart, with c * k
    elements in all but lengths that may differ: a short run's end
    x + (k - 1)d then lies in a later run, as in UNEQUAL_CHAINS."""
    d, c, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    cuts = draw(st.sets(st.integers(1, c * k - 1), min_size=c - 1, max_size=c - 1))
    bounds = [0, *sorted(cuts), c * k]
    x, elems = draw(st.integers(0, 10)), []
    for lo, hi in zip(bounds, bounds[1:]):
        elems += [x + i * d for i in range(hi - lo)]
        x = elems[-1] + 2 * d
    return IntegerSet(elems)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        progression_sum_instances().map(lambda instance: instance[0]),
        chain_runs(),
        st.sets(st.integers(0, 60), min_size=1, max_size=16).map(IntegerSet.from_iterable),
    )
)
@example(UNEQUAL_CHAINS)
def test_progression_factors_rebuild_the_set(tile):
    rest, factors = _progression_factors(tile.elements)
    rebuilt = list(rest)
    for d, k in factors:
        assert d > 0 and k >= 2
        rebuilt = [x + i * d for x in rebuilt for i in range(k)]
    assert sorted(rebuilt) == list(tile.elements)
    assert len(rest) * math.prod(k for _, k in factors) == len(tile)


def test_progression_factors_examples():
    assert _progression_factors(UNEQUAL_CHAINS.elements) == (
        dict.fromkeys(UNEQUAL_CHAINS.elements, 1),
        [],
    )
    assert _progression_factors((0, 1, 2, 3)) == ({0: 1}, [(1, 4)])
    assert _progression_factors((0, 1, 4, 5)) == ({0: 1}, [(1, 2), (4, 2)])
    assert _progression_factors((7,)) == ({7: 1}, [])
    # whole progressions, d = 1 and d > 1, peeled in one step
    assert _progression_factors(tuple(range(5, 5 + 19781))) == ({5: 1}, [(1, 19781)])
    assert _progression_factors((3, 10, 17, 24)) == ({3: 1}, [(7, 4)])
    assert _progression_factors((4, 9)) == ({4: 1}, [(5, 2)])
    # the span of a progression with first gap 2, but not one
    assert _progression_factors((0, 2, 3, 6)) == (dict.fromkeys((0, 2, 3, 6), 1), [])
    # d = 1 blocks of two that each span 1, but 3, 4, 5, 6 is one run
    assert _progression_factors((0, 1, 3, 4, 5, 6)) == (dict.fromkeys((0, 1, 3, 4, 5, 6), 1), [])
    assert _progression_factors((0, 1, 3, 4, 6, 7)) == ({0: 1}, [(1, 2), (3, 3)])
    # d = 2: the least chain has 3 elements, the greatest 2
    unequal_ends = (0, 2, 4, 10, 12, 14, 16, 30, 32)
    assert _progression_factors(unequal_ends) == (dict.fromkeys(unequal_ends, 1), [])
    # chains of 2, 4 and 2: 2 divides 8 and both ends fit, the middle does not
    unequal_middle = (0, 2, 10, 12, 14, 16, 30, 32)
    assert _progression_factors(unequal_middle) == (dict.fromkeys(unequal_middle, 1), [])
    # chains of 2, 1, 3 and 2: four starts of 8 elements, so only the chain
    # ends (2, 5, 13, 18 against 2, 7, 11, 18) reject
    unequal_count = (0, 2, 5, 9, 11, 13, 16, 18)
    assert _progression_factors(unequal_count) == (dict.fromkeys(unequal_count, 1), [])
    instance = theorem2_generate(Theorem2Params(7, 11, 13, 2))
    assert _progression_factors(instance.tile.elements) == (
        {0: 1},
        [(5929, 13), (8281, 11), (20449, 7)],
    )


def _progression_factors_by_range(elements):
    """Reference: _progression_factors as it was when a whole progression
    of any step, d = 1 included, was recognised by building its range and
    comparing it with the set; verbatim apart from its name."""
    rest, factors = list(elements), []
    while len(rest) > 1:
        d = rest[1] - rest[0]
        # one whole progression, peeled as the general peel below would;
        # the span test keeps the range from outgrowing the set
        if rest[-1] - rest[0] == d * (len(rest) - 1) and rest == list(
            range(rest[0], rest[-1] + 1, d)
        ):
            factors.append((d, len(rest)))
            rest = rest[:1]
            continue
        members = set(rest)
        starts = [x for x in rest if x - d not in members]
        k, left = divmod(len(rest), len(starts))
        if left or {x + i * d for x in starts for i in range(k)} != members:
            break
        factors.append((d, k))
        rest = starts
    return dict.fromkeys(rest, 1), factors


@st.composite
def first_gap_one_non_intervals(draw):
    """Translated intervals of at least 4 elements with one change that
    keeps the first gap 1: an inner element dropped, or the last one moved
    further out. Either way the span is no longer |set| - 1."""
    start, n = draw(st.integers(0, 10**6)), draw(st.integers(4, 2000))
    elems = list(range(start, start + n))
    if draw(st.booleans()):
        del elems[draw(st.integers(2, n - 2))]
    else:
        elems[-1] += draw(st.integers(1, 3 * n))
    return IntegerSet(elems)


@st.composite
def stepped_progressions(draw):
    """Progressions of step d > 1, whole or with one element moved off the
    step, so that some keep the span d * (|set| - 1) without being one."""
    start, d, n = draw(st.integers(0, 10**6)), draw(st.integers(2, 50)), draw(st.integers(2, 300))
    elems = [start + i * d for i in range(n)]
    if n > 2 and draw(st.booleans()):
        elems[draw(st.integers(1, n - 2))] += draw(st.integers(1, d - 1))
    return IntegerSet(elems)


@st.composite
def dense_subsets(draw):
    """n-element subsets of [0, 3n), n up to 3,000, with a first gap of 1 or
    more: the peel rejects nearly all of them, most at its first check."""
    n, gap, rng = draw(st.integers(2, 3000)), draw(st.integers(1, 4)), draw(st.randoms())
    return IntegerSet([0, gap, *sorted(rng.sample(range(gap + 1, 3 * n), n - 2))])


@st.composite
def chains_of_drawn_lengths(draw):
    """Chains {x, x + d, ...} of step d >= 1 placed one after another,
    often of the first chain's length k and often ending with one of length
    k again, so that some sets pass the checks on the least and the
    greatest chain and fail only the full one. A chain that starts d past
    the end of the one before touches it, and the two are one chain of the
    set."""
    d, k = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    lengths = [k, *draw(st.lists(st.one_of(st.just(k), st.integers(1, 8)), min_size=1, max_size=12))]
    if draw(st.booleans()):
        lengths.append(k)
    x, elems = draw(st.integers(0, 10)), []
    for length in lengths:
        elems += [x + i * d for i in range(length)]
        x = elems[-1] + draw(st.integers(1, 3 * d))
    return IntegerSet(elems)


@st.composite
def chains_past_the_bisection_checks(draw):
    """Chains of one step d > 1 that pass both bisection checks of the peel:
    the least chain and the greatest have length k, and |set| is a multiple
    of k. The chains between have drawn lengths, equal to k or not, and lie
    in drawn classes mod d, so that chains of different classes interleave
    and only the chain ends decide the peel."""
    d, k = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    lengths = draw(st.lists(st.one_of(st.just(k), st.integers(1, 2 * k)), max_size=6))
    if sum(lengths) % k:
        lengths.append(-sum(lengths) % k)
    elems = {i * d for i in range(k)}
    for length in lengths:
        # past d, so the first gap stays d; slid up until the chain and a
        # free cell on either side of it fit
        x = draw(st.integers(d + 1, max(elems) + 3 * d))
        while any(x + i * d in elems for i in range(-1, length + 1)):
            x += d
        elems.update(x + i * d for i in range(length))
    x = max(elems) + draw(st.integers(1, 2 * d))
    while x - d in elems:
        x += 1
    elems.update(x + i * d for i in range(k))
    return IntegerSet.from_iterable(elems)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(0, 10**12), st.integers(1, 20_000)).map(
            lambda sn: IntegerSet(range(sn[0], sn[0] + sn[1]))
        ),
        first_gap_one_non_intervals(),
        stepped_progressions(),
        dense_subsets(),
        chains_of_drawn_lengths(),
        chains_past_the_bisection_checks(),
        progression_sum_instances().map(lambda instance: instance[0]),
        chain_runs(),
        st.sets(st.integers(0, 60), min_size=1, max_size=16).map(IntegerSet.from_iterable),
    )
)
@example(IntegerSet.of(0, 2, 3, 6))  # the span of a progression with first gap 2
@example(IntegerSet.of(0, 1, 3))  # first gap 1, span one past |set| - 1
@example(IntegerSet.of(0, 1, 5, 6, 10, 11))  # {0, 1} + {0, 5, 10}: two rounds
@example(IntegerSet.of(3, 4, 5, 10, 11, 12, 17, 18, 19))  # a whole progression of starts
@example(IntegerSet.of(0, 1, 3, 4, 5, 6))  # blocks of two, runs of 2 and 4
@example(IntegerSet.of(0, 1, 3, 4, 6, 7))  # {0, 1} + {0, 3, 6}
@example(IntegerSet.of(0, 2, 4, 10, 12, 14, 16, 30, 32))  # least chain 3, greatest 2
@example(IntegerSet.of(0, 2, 10, 12, 14, 16, 30, 32))  # chains of 2, 4 and 2
@example(IntegerSet.of(0, 2, 5, 9, 11, 13, 16, 18))  # chains of 2, 1, 3 and 2
@example(UNEQUAL_CHAINS)
def test_progression_factors_match_the_range_comparison(tile):
    # only the first round can see first gap 1: later rounds peel the
    # starts, which hold the least element but never it plus one
    assert _progression_factors(tile.elements) == _progression_factors_by_range(tile.elements)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 63, 64, 65, 1000, 19781, 20_000])
def test_progression_factors_peel_a_translated_interval_at_once(n):
    for start in (0, 1, 7, 10**12):
        elements = tuple(range(start, start + n))
        expected = ({start: 1}, [(1, n)] if n > 1 else [])
        assert _progression_factors(elements) == expected
        assert _progression_factors_by_range(elements) == expected


def test_box_tilings_need_no_kernel_call(monkeypatch):
    # every divisor of a box tiling is settled by a progression factor; the
    # kernel would cost O(p) even on a one-term rest at a large prime p
    def forbidden(*args, **kwargs):
        raise AssertionError("cyclotomic_divides called")

    monkeypatch.setattr(tilingset, "cyclotomic_divides", forbidden)
    for factors, split, m in (
        ([19997], 0, 19997),
        ([2, 9133], 1, 18266),
        ([2, 2, 3, 5], 2, 60),
    ):
        a, b = _box_pair(factors, split)
        a = IntegerSet.from_iterable(x + 5 for x in a)
        b = IntegerSet.from_iterable(x + 3 for x in b)
        assert _cyclotomic_route(a, b, m) == (True, None)
        assert _cyclotomic_route(b, a, m) == (True, None)


def test_is_tiling_builds_no_dense_product(monkeypatch):
    k = 7
    tile = IntegerSet(k * x for x in standard_tile([(2, 2), (3, 1), (5, 1)]))
    complement = IntegerSet(range(k))
    near_miss = IntegerSet(list(range(k - 1)) + [k])
    modulus = 60 * k
    expected_miss = _dense_cyclotomic_route(tile, near_miss, modulus)
    assert expected_miss[0] is False and expected_miss[1] is not None
    counterexample, _ = diameter_counterexample(7, 11)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense mask polynomial or cyclic product built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "inttiles" and hasattr(module, "mul_mod_cyclic"):
            monkeypatch.setattr(module, "mul_mod_cyclic", forbidden)
    monkeypatch.setattr(IntegerSet, "mask_polynomial", forbidden)

    verdict = is_tiling(tile, complement, modulus)
    assert verdict.tiles and verdict.failing_divisor is None
    verdict = is_tiling(tile, near_miss, modulus)
    assert not verdict.tiles
    assert verdict.failing_divisor == expected_miss[1]
    # the Coven-Meyerowitz report reads its conditions off the sparse mask too
    report = cm_report(counterexample)
    assert report.spectrum == (49, 121)
    assert report.t1 and not report.t2
    assert check_t1(counterexample) and not check_t2(counterexample)


# --- direct route: residue bitmasks vs the counting list --------------------


def _counting_direct_route(tile, complement, modulus):
    """Reference: count every residue a + b mod M into a length-M list."""
    counts = [0] * modulus
    bmod = [b % modulus for b in complement.elements]
    for a in tile.elements:
        am = a % modulus
        for bm in bmod:
            r = am + bm
            if r >= modulus:
                r -= modulus
            counts[r] += 1
    under = next((r for r, c in enumerate(counts) if c == 0), None)
    over = next((r for r, c in enumerate(counts) if c > 1), None)
    return under is None and over is None, under, over


@st.composite
def residue_collision_pairs(draw):
    """Two sets of any sizes whose residues mod M may repeat within a set."""
    m = draw(st.integers(1, 48))

    def lifted(size):
        residues = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=size))
        return IntegerSet.from_iterable(r + k * m for k, r in enumerate(residues))

    return lifted(12), lifted(12), m


@settings(max_examples=400, deadline=None)
@given(st.one_of(route_instances(), residue_collision_pairs()))
@example((IntegerSet.of(0), IntegerSet.of(0), 1))  # M = 1, a tiling
@example((IntegerSet.of(0, 1), IntegerSet.of(5), 1))  # M = 1, covered twice
@example((IntegerSet.of(0), IntegerSet.of(0, 2), 2))  # collision in the larger set
@example((IntegerSet.of(0, 4), IntegerSet.of(0, 1, 2), 4))  # in the smaller set
@example((IntegerSet.of(0, 1), IntegerSet.of(0, 1), 2))  # residue 0 at 0 and 2
@example((IntegerSet.of(0, 1, 4, 5), IntegerSet.of(0, 2), 8))  # |A| > |B|, tiles
def test_direct_route_matches_counting(instance):
    a, b, m = instance
    assert _direct_route(a, b, m) == _counting_direct_route(a, b, m)
    assert _direct_route(b, a, m) == _counting_direct_route(b, a, m)


@st.composite
def dense_cutoff_pairs(draw):
    """Pairs with M up to 2*10^4 on both sides of the dense residue-mask
    cutoff (|large| >= 64 and a row [lo, max(large)] of at most 64 integers
    per element, lo the multiple of M at or below min(large)): translated
    intervals, among them copies of Z_M and runs of M + 1 that cover a
    residue twice; random elements in rows of M to 4M, the top of the row
    among them: as many as the cutoff allows and one fewer or more, or a
    quarter or half of the row, so that residues repeat up to four times
    inside the dense row; and |A||B| = M pairs {0..k-1} + {0, k, ...},
    lifted, that tile or have one repeated residue in either set, so that
    the popcount certificate both holds and falls back. Either set may then
    move by a multiple of M up to 10^12, which moves lo and keeps the row."""
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(1, 20000))
    kind = draw(st.sampled_from(("interval", "random", "matched")))
    if kind == "interval":
        n = draw(st.sampled_from((m, m + 1, max(1, m // 64), max(1, m // 2))))
        t = rng.randrange(2 * m)
        a = range(t, t + n)
        b = rng.sample(range(3 * m), rng.randint(1, min(3, 3 * m)))
    elif kind == "random":
        row = rng.randint(1, 4) * m
        cut = row // 64
        n = draw(st.sampled_from((cut - 1, cut, cut + 1, 63, 64, row // 4, row // 2)))
        n = min(max(1, n), row)
        # the top of the row and n - 1 elements below it; Hypothesis' own
        # sample cannot draw more than 8,192
        below = random.Random(rng.getrandbits(64)).sample(range(row - 1), n - 1)
        a = [row - 1, *below]
        b = rng.sample(range(4 * m), rng.randint(1, min(4, 4 * m)))
    else:
        k = rng.choice(divisors(m))
        a = [rng.randrange(3) * m + i for i in range(k)]
        b = [rng.randrange(3) * m + j * k for j in range(m // k)]
        repeated = draw(st.sampled_from((None, a, b)))
        if repeated is not None and len(repeated) >= 2:
            repeated[0] = repeated[1] + 3 * m  # above every other element
        ta, tb = rng.randrange(m), rng.randrange(m)
        a, b = [x + ta for x in a], [x + tb for x in b]
    far = rng.randrange(10**12 // m + 1) * m
    lift_a, lift_b = (draw(st.sampled_from((0, m, far))) for _ in "ab")
    return (
        IntegerSet.from_iterable(x + lift_a for x in a),
        IntegerSet.from_iterable(x + lift_b for x in b),
        m,
    )


M_LARGE = 19781  # prime
Z_M_COPY = IntegerSet(range(777, 777 + M_LARGE))
# 64 elements whose row [0, max] is 64 * 64 integers long (the dense row) or
# one longer (the bit loop), with residue 0 hit once or twice
AT_CUTOFF = IntegerSet([*range(0, 4032, 64), 4095])
PAST_CUTOFF = IntegerSet([*range(0, 4032, 64), 4096])
FAR = 10**12


@settings(max_examples=150, deadline=None)
@given(dense_cutoff_pairs())
@example((IntegerSet.of(0, 1), IntegerSet.of(0, 3), 4))  # disjoint in [0, 2M), not mod M
@example((Z_M_COPY, IntegerSet.of(5), M_LARGE))  # a translate of Z_M, tiles
@example((Z_M_COPY, IntegerSet.of(5, 5 + M_LARGE), M_LARGE))  # Z_M twice
@example((IntegerSet(range(M_LARGE - 1)), IntegerSet.of(0), M_LARGE))  # one short
@example(  # |A||B| = M, a residue repeated in the larger set
    (IntegerSet([*range(5999), 5998 + 12000]), IntegerSet.of(0, 6000), 12000)
)
@example((IntegerSet(range(0, 4096, 64)), IntegerSet(range(64)), 4096))  # tiles
@example((AT_CUTOFF, IntegerSet(range(64)), 4095))  # dense, 0 twice
@example((AT_CUTOFF, IntegerSet(range(64)), 4096))  # dense, distinct
@example((PAST_CUTOFF, IntegerSet(range(64)), 4096))  # bit loop, 0 twice
@example((PAST_CUTOFF, IntegerSet(range(64)), 4097))  # bit loop, distinct
# the same rows far from 0, where lo is a multiple of M near 10^12
@example((AT_CUTOFF.translate(FAR // 4095 * 4095), IntegerSet(range(64)), 4095))
@example((PAST_CUTOFF.translate(FAR // 4096 * 4096), IntegerSet(range(64)), 4096))
# rows past 2M, folded twice, with residue 0 in M-bit chunks 1, 2 and 3
# (from 0); in chunks 1 and 3 only, which the first fold meets in its upper
# half; and in chunks 0 and 2 only, in its lower half
@example((IntegerSet([*range(1, 4096), 4096, 8192, 12288]), IntegerSet.of(0), 4096))
@example((IntegerSet([*range(1, 4096), 4096, 12288]), IntegerSet.of(0), 4096))
@example((IntegerSet([*range(4096), 8192]), IntegerSet.of(0), 4096))
# a translate of Z_M from past lo, over two chunks
@example((IntegerSet(range(FAR + 5, FAR + 5 + M_LARGE)), IntegerSet.of(3), M_LARGE))
def test_direct_route_matches_counting_across_dense_cutoff(instance):
    a, b, m = instance
    assert _direct_route(a, b, m) == _counting_direct_route(a, b, m)
    assert _direct_route(b, a, m) == _counting_direct_route(b, a, m)


def test_is_tiling_memory_below_two_bytes_per_residue():
    instance = theorem2_generate(Theorem2Params(7, 11, 13, 2))
    modulus = instance.modulus
    tracemalloc.start()
    try:
        verdict = is_tiling(instance.tile, instance.complement, modulus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.tiles
    assert peak < 2 * modulus  # a counting list of M ints takes 8 bytes each


def test_dense_row_memory_does_not_grow_with_the_elements():
    # the row starts at the multiple of M at or below min(A), so a dense set
    # far from 0 costs what it costs at 0, not 10^15 bytes
    n = 4096
    tile = IntegerSet(range(10**15, 10**15 + n))
    tracemalloc.start()
    try:
        verdict = is_tiling(tile, IntegerSet.of(0), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.tiles
    assert peak < 64 * n + 8 * (n // 8)  # 64 bytes per element, 8 M-bit masks


# --- least_period ------------------------------------------------------------


def test_least_period_examples():
    assert least_period(IntegerSet.of(0, 2), 4) == 2
    assert least_period(IntegerSet.of(0, 1), 4) == 4
    assert least_period(IntegerSet.of(0), 1) == 1


def test_least_period_requires_reduced_elements():
    with pytest.raises(ValueError):
        least_period(IntegerSet.of(0, 5), 4)


def test_least_period_divides_and_characterizes():
    rng = random.Random(99)
    from inttiles.polyring import divisors

    for _ in range(120):
        m = rng.randrange(1, 37)
        b = IntegerSet(sorted(rng.sample(range(m), rng.randrange(1, m + 1))))
        lp = least_period(b, m)
        assert m % lp == 0
        base = frozenset(b.elements)
        for d in divisors(m):
            shifted = frozenset((x + d) % m for x in base)
            assert (shifted == base) == (d % lp == 0)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60).flatmap(
        lambda m: st.tuples(st.sets(st.integers(0, m - 1), min_size=1), st.just(m))
    )
)
def test_least_period_matches_translate_equality(instance):
    elements, m = instance
    base = frozenset(elements)
    expected = next(d for d in divisors(m) if frozenset((x + d) % m for x in base) == base)
    assert least_period(IntegerSet.from_iterable(elements), m) == expected


# --- CyclicTiling ------------------------------------------------------------


def test_cyclic_tiling_accepts_valid():
    t = CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 4)
    assert t.modulus == 4


def test_cyclic_tiling_rejects_invalid():
    with pytest.raises(ValueError):
        CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 1), 4)
    with pytest.raises(ValueError):
        CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 5), 4)
    with pytest.raises(ValueError):
        CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 8)
