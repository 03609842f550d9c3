import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_normalized_sets
from dense_oracle import cyclotomic, exact_divide
from inttiles.cmcheck import (
    CmReport,
    check_t1,
    check_t2,
    cm_report,
    fiber_decompose,
    spectrum,
)
from inttiles.constructions import diameter_counterexample, standard_tile
from inttiles.polyring import cyclotomic_divides, euler_phi, factorize
from inttiles.tilingset import IntegerSet


# --- spectrum ----------------------------------------------------------------


def test_spectrum_examples():
    assert spectrum(IntegerSet.of(0, 1, 2, 3)) == (2, 4)
    assert spectrum(IntegerSet.of(0, 1, 2, 3, 4, 5)) == (2, 3)
    assert spectrum(IntegerSet.of(0)) == ()


@pytest.mark.parametrize("k", [1, 2, 1100, 3000])
def test_spectrum_of_a_three_adic_tower(k):
    # 1 + X^(3^k) + X^(2*3^k) = Phi_3(X^(3^k)) = Phi_(3^(k+1))(X); a kernel
    # that recursed once per factor 3 passed the recursion limit at k = 1100,
    # and one that divided once per factor 3 to find 3^k in each of the k
    # indices took seconds at k = 3000
    tile = IntegerSet.of(0, 3**k, 2 * 3**k)
    assert spectrum(tile) == (3 ** (k + 1),)
    report = cm_report(tile)
    assert report.t1 and report.t2 and report.lcm_sa == 3 ** (k + 1)


def test_spectrum_agrees_with_division():
    # the divisibility backend and plain long division must agree
    for elems in [(0, 1, 2, 3), (0, 1, 4), (0, 2, 4), (0, 1, 2, 3, 4, 5), (0, 6)]:
        a = IntegerSet(elems)
        mask = a.mask_polynomial().coeffs
        for s in spectrum(a):
            assert exact_divide(mask, cyclotomic(s)) is not None


# Closed forms that reach far past the dense reference's diameters.


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 10**12))
def test_spectrum_of_pair(m):
    # 1 + X^m is the product of Phi_d over d | 2m with d not dividing m;
    # the one prime power among them is 2^(v2(m) + 1)
    assert spectrum(IntegerSet.of(0, m)) == (2 * (m & -m),)


def test_spectrum_of_interval():
    # 1 + X + ... + X^(n-1) is the product of Phi_d over d | n, d > 1
    for n in range(1, 301):
        expected = tuple(
            d for d in range(2, n + 1)
            if n % d == 0 and factorize(d).num_distinct_primes() == 1
        )
        assert spectrum(IntegerSet(tuple(range(n)))) == expected, n


def test_spectrum_translation_invariant_after_normalization():
    a = IntegerSet.of(0, 1, 2, 3)
    shifted = a.translate(17).normalize()
    assert spectrum(shifted) == spectrum(a)


# --- T1 / T2 -----------------------------------------------------------------


def test_check_t1_examples():
    assert check_t1(IntegerSet.of(0, 1, 2, 3))  # 4 = Phi_2(1) * Phi_4(1)
    assert check_t1(IntegerSet.of(0, 1, 2, 3, 4, 5))  # 6 = 2 * 3
    a = IntegerSet.of(0, 1, 4)
    assert spectrum(a) == ()  # 1 + X + X^4 has no prime-power cyclotomic divisor
    assert not check_t1(a)  # |A| = 3 but the empty product is 1


def test_check_t2_examples():
    assert check_t2(IntegerSet.of(0, 1, 2, 3))  # single prime: vacuous
    six = IntegerSet.of(0, 1, 2, 3, 4, 5)
    assert cyclotomic_divides(6, dict(six.mask_polynomial().terms()))
    assert check_t2(six)


def test_check_t2_counterexample_set():
    a, _ = diameter_counterexample(7, 11)
    assert spectrum(a) == (49, 121)
    # Phi_{49*121} has degree 4620 > diam 152, so divisibility is impossible
    assert not check_t2(a)


def test_t1_t2_translation_invariant_after_normalization():
    a = IntegerSet.of(0, 1, 2, 3, 4, 5)
    shifted = a.translate(9).normalize()
    assert check_t1(shifted) == check_t1(a)
    assert check_t2(shifted) == check_t2(a)


# --- cm_report ---------------------------------------------------------------


def test_cm_report_interval():
    rep = cm_report(IntegerSet.of(0, 1, 2, 3))
    assert rep.spectrum == (2, 4)
    assert rep.t1 and rep.t2
    assert rep.lcm_sa == 4
    assert rep.phi_lcm_divides
    assert rep.half_bound_holds is True  # 3 >= 4/2
    assert rep.eq3_holds is True  # 2*3 >= 1*4
    assert rep.diam == 3


def test_cm_report_counterexample():
    a, _ = diameter_counterexample(7, 11)
    rep = cm_report(a)
    assert rep.lcm_sa == 5929
    assert rep.diam == 152
    assert rep.eq3_holds is False  # 152 < 6/7 * 5929 = 5082
    assert rep.phi_lcm_divides is False  # Phi_5929 cannot divide by degree
    assert rep.half_bound_holds is None


def test_cm_report_singleton():
    rep = cm_report(IntegerSet.of(0))
    assert rep.spectrum == ()
    assert rep.lcm_sa == 1
    assert rep.t1 and rep.t2  # empty product equals |A| = 1; (T2) vacuous
    assert rep.half_bound_holds is None
    assert rep.eq3_holds is None


@pytest.fixture
def kernel_indices(monkeypatch):
    """Every index cm_report passes to the cyclotomic kernel, in order."""
    import inttiles.cmcheck as cmcheck

    indices = []
    kernel = cmcheck.cyclotomic_divides

    def recording(s, f):
        indices.append(s)
        return kernel(s, f)

    monkeypatch.setattr(cmcheck, "cyclotomic_divides", recording)
    return indices


def test_cm_report_does_not_test_phi_1(kernel_indices):
    # {0, 1, 3} has an empty spectrum, so lcm_sa = 1; Phi_1 = X - 1 never
    # divides a nonempty set's mask, whose value at 1 is |A|, so the kernel
    # is not asked at s = 1
    rep = cm_report(IntegerSet.of(0, 1, 3))
    assert rep.spectrum == () and rep.lcm_sa == 1
    assert rep.phi_lcm_divides is False
    assert rep.half_bound_holds is None
    assert kernel_indices == [3]  # the spectrum's one test, at 3


def test_cm_report_kernel_calls_over_corpus12(kernel_indices):
    # one pass tests each prime of |A| at the powers whose totient fits the
    # diameter, then the (T2) products whose totient fits, then lcm_sa: over
    # every set within {0..12} that asks the kernel 13,942 times
    for tile in enumerate_normalized_sets(12):
        cm_report(tile)
    assert len(kernel_indices) == 13942


def test_cm_report_json_omits_absent_fields():
    d = cm_report(IntegerSet.of(0)).to_json_dict()
    assert "half_bound_holds" not in d
    assert "eq3_holds" not in d
    full = cm_report(IntegerSet.of(0, 1, 2, 3)).to_json_dict()
    assert full["half_bound_holds"] is True
    assert json.loads(json.dumps(full)) == full


def test_half_bound_theorem_on_samples():
    # whenever Phi_lcm divides the mask and the spectrum is nonempty,
    # the diameter is at least lcm/2
    for elems in [(0, 1), (0, 1, 2, 3), (0, 2), (0, 1, 2, 3, 4, 5), (0, 2, 3, 4, 5, 7)]:
        rep = cm_report(IntegerSet(elems))
        if rep.spectrum and rep.phi_lcm_divides:
            assert rep.half_bound_holds is True


def _reference_report(tile):
    """CmReport rebuilt from long division on the dense mask polynomial."""
    diam = tile.diameter()
    mask = tile.mask_polynomial().coeffs

    def divides(s):
        return euler_phi(s) <= diam and exact_divide(mask, cyclotomic(s)) is not None

    spec = tuple(
        s for s in range(2, 2 * diam + 1)
        if factorize(s).num_distinct_primes() == 1 and divides(s)
    )
    prime_of = {s: factorize(s).primes[0] for s in spec}
    t2 = all(
        divides(math.prod(chosen))
        for k in range(2, len(spec) + 1)
        for chosen in itertools.combinations(spec, k)
        if len({prime_of[s] for s in chosen}) == k
    )
    lcm_sa = math.lcm(*spec) if spec else 1
    phi_lcm_divides = divides(lcm_sa)
    eq3 = None
    if len(tile) > 1:
        p = factorize(len(tile)).primes[0]
        eq3 = p * diam >= (p - 1) * lcm_sa
    return CmReport(
        spectrum=spec,
        t1=math.prod(prime_of.values()) == len(tile),
        t2=t2,
        lcm_sa=lcm_sa,
        phi_lcm_divides=phi_lcm_divides,
        diam=diam,
        half_bound_holds=2 * diam >= lcm_sa if phi_lcm_divides else None,
        eq3_holds=eq3,
    )


def test_cm_report_matches_dense_reference():
    tiles = list(enumerate_normalized_sets(12))
    tiles += [diameter_counterexample(7, 11)[0], diameter_counterexample(5, 7)[0]]
    # the three-prime lift A' + 63 {0, 1} of the (5, 7) set: its (T2)
    # product 50 and its lcm_sa 2450 are composite indices
    lift = diameter_counterexample(5, 7)[0].elements
    tiles.append(IntegerSet(lift + tuple(x + 63 for x in lift)))
    tiles += [
        standard_tile(spec)
        for spec in (
            [(2, 2), (3, 1)], [(2, 1), (3, 1), (5, 1)], [(3, 2)], [(2, 3), (3, 1)],
            [(2, 2), (3, 1), (5, 1)],
        )
    ]
    # three primes of |A|: the interval has a group for each, and random
    # sets fail (T1) with short or empty groups
    tiles.append(IntegerSet(tuple(range(30))))
    rng = random.Random(25)
    tiles += [
        IntegerSet(tuple(sorted(rng.sample(range(3 * n), n)))).normalize()
        for n in (30, 42, 60)
        for _ in range(50)
    ]
    t2_failures = 0
    for tile in tiles:
        expected = _reference_report(tile)
        assert cm_report(tile) == expected, tile.elements
        assert (check_t1(tile), check_t2(tile)) == (expected.t1, expected.t2), tile.elements
        t2_failures += not expected.t2
    assert t2_failures > 0  # the reference exercises both (T2) verdicts


# --- fiber decomposition -------------------------------------------------------


def _fiber_multiset(decomp):
    counts = Counter()
    for base in decomp.p_fibers:
        step = decomp.modulus // decomp.p
        for k in range(decomp.p):
            counts[base + k * step] += 1
    for base in decomp.q_fibers:
        step = decomp.modulus // decomp.q
        for k in range(decomp.q):
            counts[base + k * step] += 1
    return counts


def test_fiber_decompose_single_prime():
    d = fiber_decompose(IntegerSet.of(0, 2), 4, 2, 2)
    assert d is not None
    assert d.p_fibers == (0,)
    assert d.q_fibers == ()
    assert d.unique
    assert fiber_decompose(IntegerSet.of(0, 2), 4, 2) == d  # q omitted


def test_fiber_decompose_full_interval():
    a = IntegerSet.of(0, 1, 2, 3, 4, 5)
    d = fiber_decompose(a, 6, 2, 3)
    assert d is not None
    assert _fiber_multiset(d) == Counter(a.elements)
    # both three 2-fibers and two 3-fibers work, so not unique
    assert not d.unique
    # deterministic first answer under the branching order: 2-fiber first
    assert d.p_fibers == (0, 1, 2)
    assert d.q_fibers == ()


def test_fiber_decompose_deeper_than_recursion_limit():
    # Z_3000 as 1500 2-fibers: one search level per fiber
    d = fiber_decompose(IntegerSet(range(3000)), 3000, 2)
    assert d is not None
    assert d.p_fibers == tuple(range(1500))
    assert d.unique


def test_fiber_decompose_long_scan():
    # Z_12000 as 6000 2-fibers: each level finds its residue by a scan
    # that starts at the parent level's residue
    d = fiber_decompose(IntegerSet(range(12000)), 12000, 2)
    assert d is not None
    assert d.p_fibers == tuple(range(6000))
    assert d.q_fibers == ()
    assert d.unique


def test_fiber_decompose_none():
    assert fiber_decompose(IntegerSet.of(0, 1, 3), 6, 2, 3) is None
    # residue 0 twice, 3 once: one 2-fiber {0,3} leaves a 0 nothing covers
    assert fiber_decompose(IntegerSet.of(0, 3, 6), 6, 2) is None


def test_fiber_decompose_multiset_reduction():
    # elements folding to the same residue mod M give multiplicity 2;
    # {0,2,3,4,6} mod 6 is the 2-fiber {0,3} plus the 3-fiber {0,2,4}
    a = IntegerSet.of(0, 2, 3, 4, 6)
    d = fiber_decompose(a, 6, 2, 3)
    assert d is not None
    assert _fiber_multiset(d) == Counter(x % 6 for x in a.elements)
    assert d.p_fibers == (0,)
    assert d.q_fibers == (0,)
    assert d.to_json_dict() == {
        "modulus": 6, "p": 2, "q": 3, "p_fibers": [0], "q_fibers": [0], "unique": False
    }


def test_fiber_decompose_validates_primes():
    with pytest.raises(ValueError):
        fiber_decompose(IntegerSet.of(0, 2), 4, 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        fiber_decompose(IntegerSet.of(0, 2), 8, 4)  # 4 is not prime
    with pytest.raises(ValueError):
        fiber_decompose(IntegerSet.of(0, 1), 6, 2, 5)  # 5 does not divide 6


def test_fiber_decompose_prime_power_tile():
    # single-prime reading on a prime-power tile: {0,1,2,3} mod 4, p = 2
    a = IntegerSet.of(0, 1, 2, 3)
    d = fiber_decompose(a, 4, 2)
    assert d is not None
    assert _fiber_multiset(d) == Counter(a.elements)
    assert d.p_fibers == (0, 1)


# --- corpus-wide invariants (all normalized sets within {0..12}) -----------------


def test_corpus_tiles_satisfy_t1(corpus12):
    # Coven-Meyerowitz: every tile satisfies (T1) (Theorem B1), and one with
    # at most two primes in |A| satisfies (T2) (Theorem B2); (T1) and (T2)
    # give a tiling at lcm_sa (Theorem A), and by (T1) every period is a
    # multiple of lcm_sa. Each |A| <= 13 here has at most two primes, so the
    # search tiles exactly when (T1) and (T2) hold, and then at lcm_sa.
    tiles = 0
    for tile, result in corpus12:
        assert factorize(len(tile)).num_distinct_primes() <= 2
        report = cm_report(tile)
        assert (result.status == "tiles") == (report.t1 and report.t2), tile.elements
        if result.status == "tiles":
            tiles += 1
            assert result.period == report.lcm_sa, tile.elements
    assert tiles == 211


def test_corpus_t1_t2_tiles_admit_lcm_period(corpus12):
    from inttiles.search import find_complement

    for tile, result in corpus12:
        if result.status != "tiles":
            continue
        report = cm_report(tile)
        if not (report.t1 and report.t2) or report.lcm_sa == 1:
            continue
        assert find_complement(tile, report.lcm_sa) is not None, tile.elements
        assert report.lcm_sa <= 2 * tile.diameter(), tile.elements


def test_half_bound_holds_on_every_corpus_set(corpus12):
    # not just tiles: any set whose lcm-indexed cyclotomic divides its mask
    for tile, _ in corpus12:
        report = cm_report(tile)
        if report.spectrum and report.phi_lcm_divides:
            assert report.half_bound_holds is True, tile.elements


def test_two_prime_fiber_structure_on_corpus(corpus12):
    from inttiles.polyring import factorize

    checked = 0
    for tile, result in corpus12:
        if result.status != "tiles":
            continue
        fac = factorize(len(tile))
        if fac.num_distinct_primes() != 2:
            continue
        report = cm_report(tile)
        if not report.phi_lcm_divides:
            continue
        checked += 1
        p, q = fac.primes
        modulus = report.lcm_sa
        decomposition = fiber_decompose(tile, modulus, p, q)
        assert decomposition is not None, tile.elements
        assert _fiber_multiset(decomposition) == Counter(
            x % modulus for x in tile.elements
        )
        assert tile.diameter() * p >= (p - 1) * modulus, tile.elements
    assert checked > 0
