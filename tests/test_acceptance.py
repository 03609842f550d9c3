"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and enforces the stated tolerances and runtime limits.
"""

import io
import random
import time
from collections import Counter

import pytest

from inttiles import cli
from inttiles.cmcheck import cm_report
from inttiles.constructions import Theorem2Params, diameter_counterexample, theorem2_generate
from inttiles.polyring import IntPolynomial, cyclotomic, divisors, euler_phi, factorize
from inttiles.search import (
    SearchConfig,
    find_complement,
    minimal_tiling_period,
    period_bound_check,
    top_power_witnesses,
)
from inttiles.tilingset import CyclicTiling, IntegerSet, is_tiling, least_period
from inttiles.cmcheck import fiber_decompose

from conftest import enumerate_normalized_sets


def _report(number: int, description: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({description}): {verdict} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def corpus_results():
    """Restricted and unrestricted period searches over all A within {0..10},
    plus the wall time spent, shared by criteria 4 through 8."""
    started = time.perf_counter()
    restricted = []
    unrestricted = []
    for tile in enumerate_normalized_sets(10):
        restricted.append((tile, minimal_tiling_period(tile, SearchConfig())))
        unrestricted.append(
            minimal_tiling_period(tile, SearchConfig(candidate_mode="unrestricted"))
        )
    elapsed = time.perf_counter() - started
    return restricted, unrestricted, elapsed


def test_criterion_1_cyclotomic_identity_suite():
    cyclotomic.cache_clear()
    started = time.perf_counter()
    ok = True
    for n in range(1, 301):
        product = IntPolynomial.one()
        for d in divisors(n):
            product = product * cyclotomic(d)
        ok &= product == IntPolynomial.from_terms({n: 1, 0: -1})
    for s in range(1, 301):
        ok &= cyclotomic(s).degree == euler_phi(s)
    elapsed = time.perf_counter() - started
    _report(1, "cyclotomic identity suite", ok and elapsed < 10.0, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_2_long_period_construction():
    started = time.perf_counter()
    instance = theorem2_generate(Theorem2Params(7, 11, 13, 2))
    tile = instance.tile
    modulus = instance.modulus

    base_verdict = is_tiling(tile, instance.complement_base, modulus)
    shifted_verdict = is_tiling(tile, instance.complement, modulus)
    ok = base_verdict.direct_route and shifted_verdict.direct_route

    lp_shifted = least_period(instance.complement, modulus)
    lp_base = least_period(instance.complement_base, modulus)
    ok &= lp_shifted == modulus
    ok &= modulus % lp_base == 0 and lp_base < modulus  # proper divisor

    ok &= factorize(modulus).primes == (7, 11, 13)
    ok &= factorize(len(tile)).primes == (7, 11, 13)

    ok &= instance.diam == 276652
    ok &= instance.diam * 7 <= 3 * modulus  # diam <= 3M / p1^(n-1)

    elapsed = time.perf_counter() - started
    _report(2, "long-period construction at (7,11,13,2)", ok and elapsed < 60.0, elapsed)
    assert ok
    assert elapsed < 60.0


def test_criterion_3_diameter_counterexamples():
    started = time.perf_counter()
    tile_a, report_a = diameter_counterexample(7, 11)
    tile_b, report_b = diameter_counterexample(11, 13)
    ok = (report_a.diam, report_a.modulus, report_a.eq3_threshold) == (152, 5929, 5082)
    ok &= report_a.diam < report_a.eq3_threshold and not report_a.eq3_holds
    ok &= (report_b.diam, report_b.modulus, report_b.eq3_threshold) == (266, 20449, 18590)
    ok &= report_b.diam < report_b.eq3_threshold and not report_b.eq3_holds
    elapsed = time.perf_counter() - started
    _report(3, "diameter counterexamples", ok and elapsed < 5.0, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_4_minimal_period_oracle_equivalence(corpus_results):
    restricted, unrestricted, elapsed = corpus_results
    discrepancies = []
    for (tile, res), unres in zip(restricted, unrestricted):
        if (res.status, res.period) != (unres.status, unres.period):
            discrepancies.append((tile.elements, res.status, unres.status))
    ok = not discrepancies and elapsed < 600.0
    _report(4, "minimal-period oracle equivalence", ok, elapsed)
    assert discrepancies == []
    assert elapsed < 600.0


def _corpus_tilings(restricted):
    for tile, result in restricted:
        if result.status == "tiles":
            yield tile, CyclicTiling(
                tile.reduce_mod(result.period), result.complement, result.period
            )


def test_criterion_5_top_power_witness_suite(corpus_results):
    restricted, _, _ = corpus_results
    started = time.perf_counter()
    violations = []
    checked = 0
    for tile, tiling in _corpus_tilings(restricted):
        if least_period(tiling.complement, tiling.modulus) != tiling.modulus:
            continue
        checked += 1
        try:
            witnesses = top_power_witnesses(tiling)
        except Exception as exc:  # any violation or precondition failure counts
            violations.append((tile.elements, repr(exc)))
            continue
        assert len(witnesses) == len(factorize(tiling.modulus).pairs)
    elapsed = time.perf_counter() - started
    ok = not violations and checked > 0
    _report(5, f"top-power witnesses on {checked} tilings", ok, elapsed)
    assert violations == []


def test_criterion_6_period_bound_chain(corpus_results):
    restricted, _, _ = corpus_results
    started = time.perf_counter()
    failures = []
    checked = 0
    for tile, tiling in _corpus_tilings(restricted):
        # a restricted-minimal complement always has least period M; a
        # smaller period would yield a smaller restricted candidate
        assert least_period(tiling.complement, tiling.modulus) == tiling.modulus
        checked += 1
        if not period_bound_check(tiling):
            failures.append(tile.elements)
    elapsed = time.perf_counter() - started
    ok = not failures and checked > 0
    _report(6, f"period bound M <= (2D)^d on {checked} tilings", ok, elapsed)
    assert failures == []


def test_criterion_7_spectrum_condition_suite(corpus_results):
    restricted, _, _ = corpus_results
    started = time.perf_counter()
    failures = []
    for tile, result in restricted:
        if result.status != "tiles":
            continue
        report = cm_report(tile)
        if not report.t1:
            failures.append((tile.elements, "t1"))
        if factorize(len(tile)).num_distinct_primes() <= 2 and not report.t2:
            failures.append((tile.elements, "t2"))
        if report.t1 and report.t2:
            if report.lcm_sa == 1:
                continue  # vacuous: counts as a pass
            if find_complement(tile, report.lcm_sa) is None:
                failures.append((tile.elements, "no complement at lcm"))
            if report.lcm_sa > 2 * tile.diameter():
                failures.append((tile.elements, "lcm exceeds 2D"))
    elapsed = time.perf_counter() - started
    _report(7, "spectrum conditions on corpus tiles", not failures, elapsed)
    assert failures == []


def test_criterion_8_two_prime_fiber_suite(corpus_results):
    restricted, _, _ = corpus_results
    started = time.perf_counter()
    failures = []
    checked = 0
    for tile, result in restricted:
        if result.status != "tiles":
            continue
        fac = factorize(len(tile))
        if fac.num_distinct_primes() != 2:
            continue
        report = cm_report(tile)
        if not report.phi_lcm_divides:
            continue
        checked += 1
        modulus = report.lcm_sa
        p, q = fac.primes
        decomposition = fiber_decompose(tile, modulus, p, q)
        if decomposition is None:
            failures.append((tile.elements, "no fiber decomposition"))
            continue
        # the fibers' residues, as a multiset, are the tile mod M
        covered = Counter()
        for prime, bases in ((p, decomposition.p_fibers), (q, decomposition.q_fibers)):
            step = modulus // prime
            for base in bases:
                covered.update(range(base, modulus, step))
                # the tile's elements in the fiber are one class mod M/prime
                # and cover its prime residues mod M, so some two of them
                # differ by a nonzero multiple of M/prime: the step behind (3)
                members = [x for x in tile.elements if (x - base) % step == 0]
                if not members or members[-1] - members[0] < (prime - 1) * step:
                    failures.append((tile.elements, f"{prime}-fiber at {base} spans too little"))
        if covered != Counter(x % modulus for x in tile.elements):
            failures.append((tile.elements, "fiber residues differ from the tile mod M"))
        if tile.diameter() * p < (p - 1) * modulus:
            failures.append((tile.elements, "diameter below (p-1)M/p"))
    elapsed = time.perf_counter() - started
    ok = not failures and checked > 0
    _report(8, f"two-prime fiber structure on {checked} tiles", ok, elapsed)
    assert failures == []
    assert checked > 0


def _random_instance(rng, max_modulus):
    modulus = rng.randrange(1, max_modulus + 1)
    kind = rng.random()
    if kind < 0.4:
        a = sorted(rng.sample(range(modulus), rng.randrange(1, min(modulus, 8) + 1)))
        b = sorted(rng.sample(range(modulus), rng.randrange(1, min(modulus, 8) + 1)))
        return IntegerSet(a), IntegerSet(b), modulus
    if kind < 0.6 and modulus > 1:
        # matched sizes |A| * |B| = M: near misses for the cyclotomic route
        divs = [d for d in divisors(modulus) if 1 <= d <= modulus]
        size_a = rng.choice(divs)
        a = sorted(rng.sample(range(modulus), size_a))
        b = sorted(rng.sample(range(modulus), modulus // size_a))
        return IntegerSet(a), IntegerSet(b), modulus
    # a box tiling of Z_M, randomly split and translated: true positives
    factors = []
    rest = modulus
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            factors.append(d)
            rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    rng.shuffle(factors)
    split = rng.randrange(len(factors) + 1) if factors else 0
    a_elems, scale = [0], 1
    for p in factors[:split]:
        a_elems = [x + i * scale for x in a_elems for i in range(p)]
        scale *= p
    b_elems = [0]
    for p in factors[split:]:
        b_elems = [x + i * scale for x in b_elems for i in range(p)]
        scale *= p
    da, db = rng.randrange(modulus), rng.randrange(modulus)
    a = IntegerSet(sorted((x + da) % modulus for x in a_elems))
    b = IntegerSet(sorted((x + db) % modulus for x in b_elems))
    return a, b, modulus


def test_criterion_9_dual_route_agreement():
    started = time.perf_counter()
    rng = random.Random(1_000_003)
    tilings = 0
    for _ in range(10_000):
        a, b, modulus = _random_instance(rng, 60)
        # is_tiling raises InconsistentRoutesError on any disagreement
        verdict = is_tiling(a, b, modulus)
        assert verdict.direct_route == verdict.cyclotomic_route
        tilings += verdict.tiles
    elapsed = time.perf_counter() - started
    ok = tilings > 1000
    _report(9, f"dual-route agreement, {tilings}/10000 tilings", ok, elapsed)
    assert ok  # the mix includes plenty of real tilings and non-tilings


def test_criterion_10_corpus_determinism_across_workers():
    started = time.perf_counter()
    outputs = []
    for jobs in ("1", "2", "8"):
        out = io.StringIO()
        code = cli.main(
            ["corpus", "--max-diameter", "10", "--jobs", jobs], out=out, err=io.StringIO()
        )
        assert code == 0
        outputs.append(out.getvalue().encode("utf-8"))
    elapsed = time.perf_counter() - started
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0].splitlines()) == 1024
    _report(10, "corpus byte-identical across 1/2/8 workers", ok, elapsed)
    assert ok
