import math
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import cyclotomic_poly
from sympy.abc import x as sym_x

from dense_oracle import add, cyclotomic, exact_divide, mul
from inttiles.polyring import (
    Factorization,
    IntPolynomial,
    cyclotomic_divides,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mul_mod_cyclic,
    smallest_prime_factor,
)
from inttiles.polyring import _vanishes


def sympy_cyclotomic_coeffs(s: int) -> tuple[int, ...]:
    poly = cyclotomic_poly(s, sym_x, polys=True)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def _terms(f: tuple[int, ...]) -> dict[int, int]:
    """The sparse map of a dense coefficient tuple, as cyclotomic_divides takes it."""
    return {e: c for e, c in enumerate(f) if c}


# --- IntPolynomial, the dense record ----------------------------------------


def test_zero_polynomial_degree_is_none():
    # the zero polynomial has no coefficients, so no degree
    assert IntPolynomial().coeffs == ()
    assert IntPolynomial((0, 0, 0)).coeffs == ()
    assert IntPolynomial.from_terms({}).coeffs == ()


def test_trailing_zeros_stripped():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial.from_terms({3: 2, 0: 1, 5: 0}).coeffs == (1, 0, 0, 2)
    assert list(IntPolynomial((0, 4, 0, -1)).terms()) == [(1, 4), (3, -1)]


# --- the dense oracle: Phi_s by long division -------------------------------


def test_arithmetic():
    f = (1, 1)  # 1 + X
    g = (1, 0, 1)  # 1 + X^2
    assert add(f, g) == (2, 1, 1)
    assert add(g, (-1, -1, -1)) == (0, -1)
    assert mul(f, g) == (1, 1, 1, 1)
    assert mul(f, ()) == ()


def test_cyclotomic_base_case():
    assert cyclotomic(1) == (-1, 1)  # X - 1


def test_cyclotomic_4():
    # divide X^4 - 1 by Phi_1 * Phi_2 = X^2 - 1 by hand: X^2 + 1
    assert cyclotomic(4) == (1, 0, 1)


def test_cyclotomic_6():
    # (X^6 - 1) / (Phi_1 Phi_2 Phi_3) = X^2 - X + 1
    assert cyclotomic(6) == (1, -1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: IntPolynomial.from_terms({-1: 1}),
        lambda: smallest_prime_factor(1),
        lambda: factorize(0),
        lambda: euler_phi(0),
        lambda: mul_mod_cyclic(IntPolynomial((1,)), IntPolynomial((1,)), 0),
        lambda: cyclotomic_divides(0, {}),
    ],
    ids=["from_terms", "smallest_prime_factor", "factorize", "euler_phi",
         "mul_mod_cyclic", "cyclotomic_divides"],
)
def test_out_of_range_arguments_raise(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("s", list(range(1, 80)) + [105, 128, 210, 255, 300])
def test_cyclotomic_matches_sympy(s):
    assert cyclotomic(s) == sympy_cyclotomic_coeffs(s)


def test_cyclotomic_product_identity_small():
    for n in range(1, 40):
        product = (1,)
        for d in divisors(n):
            product = mul(product, cyclotomic(d))
        assert product == (-1,) + (0,) * (n - 1) + (1,)


def test_cyclotomic_degree_is_totient_small():
    for s in range(1, 120):
        assert len(cyclotomic(s)) - 1 == euler_phi(s)


def test_cyclotomic_at_one():
    # prime powers evaluate to p at 1, indices with >= 2 prime factors to 1
    for s in range(2, 301):
        fac = factorize(s)
        value = sum(cyclotomic(s))
        if fac.num_distinct_primes() == 1:
            assert value == fac.primes[0]
        else:
            assert value == 1


# --- euler_phi ---------------------------------------------------------------


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    for p in (2, 3, 5, 7, 11, 13):
        assert euler_phi(p) == p - 1
    assert euler_phi(32) == 16


def test_euler_phi_against_counting():
    for s in range(1, 200):
        count = sum(1 for k in range(1, s + 1) if math.gcd(k, s) == 1)
        assert euler_phi(s) == count


# --- exact_divide ------------------------------------------------------------


def test_exact_divide_examples():
    x4m1 = (-1, 0, 0, 0, 1)
    assert exact_divide(x4m1, (1, 0, 1)) == (-1, 0, 1)
    # mask of {0,1,2,3} equals Phi_2 * Phi_4; dividing by X^2 + 1 leaves 1 + X
    mask = (1, 1, 1, 1)
    quotient = exact_divide(mask, (1, 0, 1))
    assert quotient == (1, 1)
    assert mul(quotient, (1, 0, 1)) == mask
    assert exact_divide((1, 1, 1), (1, 1)) is None


def test_exact_divide_zero_dividend():
    assert exact_divide((), (1, 1)) == ()


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=12).map(
    lambda cs: IntPolynomial(cs).coeffs
)
monic_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=8).map(
    lambda cs: tuple(cs) + (1,)
)


@given(f=small_polys, g=monic_polys)
def test_exact_divide_roundtrip(f, g):
    assert exact_divide(mul(f, g), g) == f


@given(f=small_polys, g=monic_polys, h=small_polys)
def test_exact_divide_detects_nonzero_remainder(f, g, h):
    # f*g + h is divisible by g iff h is; when deg h < deg g that means h = 0
    if len(h) < len(g):
        result = exact_divide(add(mul(f, g), h), g)
        if not h:
            assert result == f
        else:
            assert result is None


# --- mul_mod_cyclic ----------------------------------------------------------


def test_mul_mod_cyclic_examples():
    f = IntPolynomial((1, 1))
    assert mul_mod_cyclic(f, f, 2).coeffs == (2, 2)
    assert mul_mod_cyclic(f, IntPolynomial((1, 0, 1)), 4).coeffs == (1, 1, 1, 1)
    cube = IntPolynomial((0, 0, 0, 1))
    assert mul_mod_cyclic(cube, cube, 4).coeffs == (0, 0, 1)


@given(f=small_polys, g=small_polys, m=st.integers(1, 20))
def test_mul_mod_cyclic_agrees_with_folding(f, g, m):
    folded = [0] * m
    for e, c in enumerate(mul(f, g)):
        folded[e % m] += c
    assert mul_mod_cyclic(IntPolynomial(f), IntPolynomial(g), m).coeffs == IntPolynomial(folded).coeffs


# --- factorize ---------------------------------------------------------------


def test_factorize_examples():
    assert factorize(1).pairs == ()
    assert factorize(5929).pairs == ((7, 2), (11, 2))  # 77^2
    assert factorize(1002001).pairs == ((7, 2), (11, 2), (13, 2))  # 1001^2


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        assert fac.value == n
        assert all(is_prime(p) for p in fac.primes)
        assert list(fac.primes) == sorted(fac.primes)


def _factorize_by_loop(n: int) -> tuple[tuple[int, int], ...]:
    # the reference: factorize's own trial-division loop before it called
    # smallest_prime_factor
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def test_factorize_matches_trial_division_loop():
    for n in range(1, 10**5 + 1):
        assert factorize(n).pairs == _factorize_by_loop(n), n
    for n in (2**40, 3**25, 999983 * 1000003, 10**12 + 39):
        assert factorize(n).pairs == _factorize_by_loop(n), n
    assert factorize(10**12 + 39).pairs == ((10**12 + 39, 1),)


def test_factorization_validates():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not sorted
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent


def test_divisors_sorted():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert factorize(5929).divisors() == [1, 7, 11, 49, 77, 121, 539, 847, 5929]


def test_is_prime_matches_sieve():
    # trial division against a sieve of Eratosthenes over [0, 500)
    sieve = [n >= 2 for n in range(500)]
    for p in range(2, 23):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    assert [n for n in range(2, 21) if sieve[n]] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [n for n in range(-3, 500) if is_prime(n)] == [n for n in range(500) if sieve[n]]


# --- cyclotomic_divides -------------------------------------------------------


def test_cyclotomic_divides_small_cases():
    mask = {0: 1, 1: 1, 2: 1, 3: 1}  # {0,1,2,3}
    assert cyclotomic_divides(2, mask)
    assert cyclotomic_divides(4, mask)
    assert not cyclotomic_divides(3, mask)
    assert not cyclotomic_divides(1, mask)  # value at 1 is 4, not 0


def test_cyclotomic_divides_accepts_mappings():
    assert cyclotomic_divides(4, {0: 1, 2: 1})
    assert cyclotomic_divides(4, {6: 1, 0: 1})  # exponents fold mod 4


def test_cyclotomic_divides_agrees_with_division():
    rng = random.Random(20240)
    for _ in range(500):
        s = rng.randrange(1, 48)
        n_terms = rng.randrange(0, 8)
        terms = {}
        for _ in range(n_terms):
            e = rng.randrange(0, 96)
            terms[e] = terms.get(e, 0) + rng.randrange(-3, 4)
        f = IntPolynomial.from_terms(terms).coeffs
        if rng.random() < 0.5:
            f = mul(f, cyclotomic(s))
        by_division = exact_divide(f, cyclotomic(s)) is not None
        assert cyclotomic_divides(s, _terms(f)) == by_division, (s, f)


def test_cyclotomic_divides_large_sparse():
    # the mask of {i*7 + j*11 : i<7, j<11} is Phi_49 * Phi_121
    terms = {i * 7 + j * 11: 1 for i in range(7) for j in range(11)}
    assert cyclotomic_divides(49, terms)
    assert cyclotomic_divides(121, terms)
    assert not cyclotomic_divides(7, terms)
    assert not cyclotomic_divides(5929, terms)  # degree 4620 exceeds 152


@pytest.mark.parametrize(
    "s", [8, 9, 12, 16, 27, 30, 36, 60, 72, 105, 120, 180, 210, 252, 300]
)
def test_cyclotomic_divides_composite_indices(s):
    # indices mixing prime powers and several primes, against long division
    phi = cyclotomic(s)
    shifted = mul(phi, (3, -1, 0, 2, 5))
    assert cyclotomic_divides(s, _terms(phi))
    assert cyclotomic_divides(s, _terms(shifted))
    near_miss = add(shifted, (1,))
    assert cyclotomic_divides(s, _terms(near_miss)) == (
        exact_divide(near_miss, phi) is not None
    )
    assert not cyclotomic_divides(s, {0: 1})


def test_cyclotomic_divides_all_ones_block():
    # 1 + X + ... + X^(N-1) is divisible by every cyclotomic at s | N, s > 1
    n = 360
    block = {r: 1 for r in range(n)}
    for s in divisors(n):
        if s > 1:
            assert cyclotomic_divides(s, block)
    assert not cyclotomic_divides(7, block)  # 7 does not divide 360


def _vanishes_all_classes(terms: dict[int, int], s: int) -> bool:
    """Reference: the kernel as it was when it built all p classes at every
    level, whatever the number of terms; verbatim apart from its name."""
    # terms: exponent -> coefficient with exponents already in [0, s).
    if not terms:
        return True
    if s == 1:
        return sum(terms.values()) == 0
    p = smallest_prime_factor(s)
    t = s // p
    classes: list[dict[int, int]] = [defaultdict(int) for _ in range(p)]
    if t % p == 0:
        # p^2 | s: zeta^a = zeta^(a mod p) * (zeta^p)^(a div p), and
        # 1, zeta, ..., zeta^(p-1) are a basis over Q(zeta^p).
        for a, c in terms.items():
            classes[a % p][a // p] += c
        residual = classes
    else:
        # p exactly divides s: split by a mod p against coordinates mod t,
        # then eliminate the omega^(p-1) component via 1 + omega + ... = 0.
        for a, c in terms.items():
            classes[a % p][a % t] += c
        last = classes[p - 1]
        residual = []
        for j in range(p - 1):
            d = dict(classes[j])
            for e, c in last.items():
                d[e] = d.get(e, 0) - c
            residual.append(d)
    seen = set()
    for cl in residual:
        reduced = {e: c for e, c in cl.items() if c}
        key = frozenset(reduced.items())
        if key in seen:
            continue
        seen.add(key)
        if not _vanishes_all_classes(reduced, t):
            return False
    return True


@st.composite
def sparse_maps(draw):
    """(terms, s) with s up to 2*10^4 and exponents in [0, s): a few random
    terms, on top of a sum of whole cosets {e + j*s/p : j < p} for primes
    p | s, each of which vanishes at a primitive s-th root of unity."""
    s = draw(st.one_of(st.integers(1, 20000), st.sampled_from((4373, 19997, 8746, 17161))))
    terms: dict[int, int] = {}
    for p in draw(st.lists(st.sampled_from(factorize(s).primes or (1,)), max_size=2)):
        e, c = draw(st.integers(0, s - 1)), draw(st.integers(-2, 2))
        for j in range(p):
            r = (e + j * (s // p)) % s
            terms[r] = terms.get(r, 0) + c
    for _ in range(draw(st.integers(0, 6))):
        r = draw(st.integers(0, s - 1))
        terms[r] = terms.get(r, 0) + draw(st.integers(-3, 3))
    return {e: c for e, c in terms.items() if c}, s


@settings(max_examples=300, deadline=None)
@given(sparse_maps())
@example(({5: 1}, 19997))
@example(({5: 1}, 4373))
@example(({0: 1, 1: -1}, 4373 * 2))
@example((dict.fromkeys(range(19997), 1), 19997))  # 1 + X + ... vanishes
@example((dict.fromkeys(range(0, 8746, 2), 1), 8746))  # class 1 of p = 2 is empty
def test_vanishes_matches_all_classes_kernel(instance):
    terms, s = instance
    assert _vanishes(terms, s) == _vanishes_all_classes(terms, s)



@st.composite
def tower_maps(draw):
    """(terms, s) with s = p^a * m: p in {2, 3, 5, 7}, a <= 12 and m a
    square-free product of at most two other primes up to 13. terms sums
    whole cosets {e + j*s/r : j < r} for primes r | s, each of which
    vanishes at a primitive s-th root of unity, and adds at most two noise
    terms, each at a random exponent or on a coset term."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    others = [r for r in (2, 3, 5, 7, 11, 13) if r != p]
    s = p ** draw(st.integers(0, 12)) * math.prod(draw(st.sets(st.sampled_from(others), max_size=2)))
    terms: dict[int, int] = {}
    for r in draw(st.lists(st.sampled_from(factorize(s).primes or (1,)), max_size=4)):
        e, c = draw(st.integers(0, s - 1)), draw(st.integers(-2, 2))
        for j in range(r):
            x = (e + j * (s // r)) % s
            terms[x] = terms.get(x, 0) + c
    for _ in range(draw(st.integers(0, 2))):
        spots = st.integers(0, s - 1)
        if terms:
            spots = st.one_of(spots, st.sampled_from(sorted(terms)))
        x = draw(spots)
        terms[x] = terms.get(x, 0) + draw(st.integers(-2, 2))
    return {e: c for e, c in terms.items() if c}, s


@settings(max_examples=300, deadline=None)
@given(tower_maps())
@example(({0: 1, 2**11: 1}, 2**12))  # 1 + X^(s/2) = Phi_s(X) at s = 2^12
@example(({0: 1, 3**11: 1}, 3**12))  # two of the three classes mod 3^11
@example(({0: 1, 7**11: 1, 2 * 7**11: 2}, 7**12 * 13))
def test_vanishes_on_prime_power_towers(instance):
    terms, s = instance
    verdict = _vanishes(terms, s)
    assert verdict == _vanishes_all_classes(terms, s)
    if s <= 200:
        f = IntPolynomial.from_terms(terms).coeffs
        assert verdict == (exact_divide(f, cyclotomic(s)) is not None)


def test_vanishes_depth_is_the_number_of_primes(monkeypatch):
    # one level per distinct prime of s: a whole prime-power tower is peeled
    # at once, and a prime power is settled without recursing. The coset
    # {j*s/r : j < r} of the largest prime r vanishes and reaches the last level.
    import inttiles.polyring as polyring

    depth = deepest = 0
    kernel = polyring._vanishes

    def counting(terms, s):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return kernel(terms, s)
        finally:
            depth -= 1

    monkeypatch.setattr(polyring, "_vanishes", counting)
    for s in (2**1101, 3**700, 2**40 * 3**30 * 5, 7**12 * 11 * 13, 360, 9699690):
        primes = factorize(s).primes
        deepest = 0
        assert cyclotomic_divides(s, {j * (s // primes[-1]): 1 for j in range(primes[-1])})
        assert deepest == len(primes), s
        deepest = 0
        assert not cyclotomic_divides(s, {0: 1, 1: 1})
        assert deepest <= len(primes), s


def test_vanishes_calls_on_the_theorem2_masks(monkeypatch):
    # equal class differences are tested once. The masks of A, B0 and B of
    # the (7, 11, 13, 2) construction at every divisor s > 1 of M take 165
    # kernel calls, and 759 without that dedupe; 171 is the count when each
    # class was compared with the class r0 + (p - 1) P of its group
    import inttiles.polyring as polyring
    from inttiles.constructions import Theorem2Params, theorem2_generate

    instance = theorem2_generate(Theorem2Params(7, 11, 13, 2))
    masks = [
        dict.fromkeys(x.elements, 1)
        for x in (instance.tile, instance.complement_base, instance.complement)
    ]
    calls = 0
    kernel = polyring._vanishes

    def counting(terms, s):
        nonlocal calls
        calls += 1
        return kernel(terms, s)

    monkeypatch.setattr(polyring, "_vanishes", counting)
    verdicts = [cyclotomic_divides(s, f) for f in masks for s in divisors(instance.modulus)[1:]]
    assert sum(verdicts) == 45
    assert calls <= 171


@st.composite
def prime_power_maps(draw):
    """(f, s) with s = p^k and f a sparse map with exponents up to 3s.
    A few classes of exponents mod s/p get 1 to p terms each, of one
    coefficient or of mixed ones, negative included; cancelling pairs
    c X^e - c X^(e + js) reduce to zero mod X^s - 1."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    s = p ** draw(st.integers(1, {2: 8, 3: 5, 5: 3}.get(p, 2)))
    step = s // p
    f: dict[int, int] = {}

    def add(e, c):
        f[e] = f.get(e, 0) + c

    coeffs = st.integers(-3, 3).filter(bool)
    for r in draw(st.sets(st.integers(0, step - 1), max_size=4)):
        c, mixed = draw(coeffs), draw(st.booleans())
        for j in draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p)):
            add(r + j * step + s * draw(st.integers(0, 2)), draw(coeffs) if mixed else c)
    for _ in range(draw(st.integers(0, 3))):
        e, c = draw(st.integers(0, s - 1)), draw(coeffs)
        add(e, c)
        add(e + s * draw(st.integers(1, 2)), -c)
    return f, s


@settings(max_examples=300, deadline=None)
@given(prime_power_maps())
@example(({0: 1, 4: 1}, 8))  # Phi_8 = 1 + X^4
@example(({0: 1}, 9))  # a class with fewer than p terms
@example(({0: 1, 3: 1, 6: 1, 1: 1, 4: 1}, 9))  # p does not divide the count
@example(({0: 1, 3: 1, 6: 1, 1: 1, 4: 1, 2: 1}, 9))  # 3 classes of 3, 2 and 1 terms
@example(({0: 1, 3: 1, 6: 2, 1: 1, 4: 1, 7: 1}, 9))  # unequal in one class
@example(({0: 2, 3: 2, 15: 2, 1: -1, 4: -1, 7: -1}, 9))  # two classes, one negative
@example(({5: 1, 32: -1, 6: 3, 60: -3}, 27))  # reduces to zero
@example(({0: 1, 7: 0, 16: 1}, 16))  # a zero coefficient; 1 + X^16 = 2 mod X^16 - 1
@example(({0: 1, 7: -1}, 1))  # f(1) = 0
@example(({0: 1, 7: 1}, 1))  # f(1) = 2
@example(({}, 1))
def test_cyclotomic_divides_matches_division_at_prime_powers(instance):
    f, s = instance
    poly = IntPolynomial.from_terms(f).coeffs
    expected = exact_divide(poly, cyclotomic(s)) is not None
    assert cyclotomic_divides(s, f) == expected
