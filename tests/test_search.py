import bisect
import heapq
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import enumerate_normalized_sets, subprocess_env
from inttiles import search
from inttiles.cli import CORPUS_CHUNK, ordered_map, worker_count
from inttiles.faults import WitnessViolationError
from inttiles.polyring import cyclotomic_divides, factorize
from inttiles.search import (
    ELEMENT_SAFETY_LIMIT,
    SEARCH_MODULUS_LIMIT,
    NodeBudgetExceeded,
    PeriodResult,
    SearchConfig,
    default_cap,
    find_complement,
    minimal_tiling_period,
    restricted_candidates,
    period_bound_check,
    top_power_witnesses,
    unrestricted_candidates,
)
from inttiles.tilingset import CyclicTiling, IntegerSet, is_tiling, least_period


# --- find_complement ----------------------------------------------------------


def test_find_complement_examples():
    assert find_complement(IntegerSet.of(0, 1), 4).elements == (0, 2)
    assert find_complement(IntegerSet.of(0, 1, 4, 5), 8).elements == (0, 2)
    assert find_complement(IntegerSet.of(0, 1, 3), 6) is None
    # no element is 0 mod 4, so the complement need not contain 0
    assert find_complement(IntegerSet.of(2, 3), 4).elements == (1, 3)


def test_find_complement_contains_zero_and_tiles():
    for elems, m in [((0, 1), 4), ((0, 1, 4, 5), 8), ((0, 2), 4), ((0, 1, 2), 6)]:
        b = find_complement(IntegerSet(elems), m)
        assert b is not None and 0 in b
        assert is_tiling(IntegerSet(elems), b, m).tiles


def test_find_complement_quick_rejections():
    assert find_complement(IntegerSet.of(0, 1), 5) is None  # 2 does not divide 5
    assert find_complement(IntegerSet.of(0, 2), 2) is None  # not injective mod 2


def test_find_complement_budget():
    with pytest.raises(NodeBudgetExceeded):
        find_complement(IntegerSet.of(0, 1, 4, 5), 8, node_budget=1)


def test_find_complement_deeper_than_recursion_limit():
    # one search level per placed translate: 4096 / 2 = 2048 levels, each
    # placing its first candidate, so the search visits exactly 2048 nodes
    tile = IntegerSet.of(0, 2048)
    assert find_complement(tile, 4096).elements == tuple(range(2048))
    assert find_complement(tile, 4096, node_budget=2048).elements == tuple(range(2048))
    with pytest.raises(NodeBudgetExceeded):
        find_complement(tile, 4096, node_budget=2047)


def _recursive_find_complement(elems, m):
    """The earlier recursive search, as a reference: (complement, nodes)."""
    reduced = sorted({x % m for x in elems})
    full = (1 << m) - 1
    base = sum(1 << x for x in reduced)
    target = m // len(elems)
    chosen, nodes = [], 0

    def extend(covered):
        nonlocal nodes
        if len(chosen) == target:
            return True
        uncovered = ~covered & full
        t = (uncovered & -uncovered).bit_length() - 1
        for b in sorted((t - a) % m for a in reduced):
            nodes += 1
            mask = ((base << b) | (base >> (m - b))) & full
            if not covered & mask:
                chosen.append(b)
                if extend(covered | mask):
                    return True
                chosen.pop()
        return False

    found = extend(0)
    return (tuple(sorted(chosen)) if found else None), nodes


def test_find_complement_matches_recursive_search():
    # same complement and same node count (the budget at which the search
    # first completes) on every candidate modulus of every set within {0..8},
    # as given and translated by 1 and by 3, so that the root need not hold
    # residue 0 and the candidate order wraps past the modulus
    for normalized in enumerate_normalized_sets(8):
        for m in restricted_candidates(len(normalized), default_cap(normalized)):
            if len({x % m for x in normalized.elements}) != len(normalized):
                continue
            for shift in (0, 1, 3):
                tile = normalized.translate(shift)
                expected, nodes = _recursive_find_complement(tile.elements, m)
                found = find_complement(tile, m, node_budget=nodes)
                assert (found.elements if found else None) == expected
                if nodes > 1:
                    with pytest.raises(NodeBudgetExceeded):
                        find_complement(tile, m, node_budget=nodes - 1)


def _rotating_find_complement(elements, modulus):
    """The search before coverage dropped the residues below t, as a
    reference: (complement, largest t reached, nodes) on an injective tile
    whose size divides modulus. Coverage is a modulus-bit mask relative to
    t that keeps ones for the residues below t, wrapped past the top, and
    it is rotated at every placement and every backtrack."""
    reduced = sorted({x % modulus for x in elements})
    k = len(reduced)
    full = (1 << modulus) - 1
    base = 0
    for x in reduced:
        base |= 1 << x
    descending = reduced[::-1]
    indices = tuple(range(k))
    masks = [None] * k
    orders = [None] * (k + 1)
    target = modulus // k
    stack = []
    covered = t = reach = nodes = 0
    split = k - bisect.bisect_right(reduced, t)
    orders[split] = indices[split:] + indices[:split]
    untried = iter(orders[split])
    while True:
        for i in untried:
            nodes += 1
            m = masks[i]
            if m is None:
                a = descending[i]
                m = masks[i] = ((base >> a) | (base << (modulus - a))) & full
            if not covered & m:
                break
        else:
            if not stack:
                return None, reach, nodes
            i, parent_t, untried = stack.pop()
            step = t - parent_t
            covered = ((covered << step) | (covered >> (modulus - step))) & full
            covered ^= masks[i]
            t = parent_t
            continue
        stack.append((i, t, untried))
        if len(stack) == target:
            placed = sorted((t - descending[i]) % modulus for i, t, _ in stack)
            return IntegerSet(placed), reach, nodes
        covered |= m
        step = (~covered & (covered + 1)).bit_length() - 1
        covered = ((covered >> step) | (covered << (modulus - step))) & full
        t += step
        if t > reach:
            reach = t
        split = k - bisect.bisect_right(reduced, t)
        order = orders[split]
        if order is None:
            order = orders[split] = indices[split:] + indices[:split]
        untried = iter(order)


def test_find_complement_matches_rotating_search():
    # same complement and reach, and the same node count n: done within a
    # budget of n, exceeded at n - 1, on every multiple M <= 48 of |A| for
    # every set within {0..8}, translated by 0, 1, 3 and 50. At 50 every
    # element exceeds M, and the top element's residue need not be the top
    # residue, so the thresholds must rest on the residues alone
    cases = 0
    for normalized in enumerate_normalized_sets(8):
        k = len(normalized)
        for shift in (0, 1, 3, 50):
            tile = normalized.translate(shift)
            for m in range(k, 49, k):
                residues = sorted({x % m for x in tile.elements})
                if len(residues) != k:
                    assert find_complement(tile, m) is None
                    continue
                cases += 1
                expected, reach, nodes = _rotating_find_complement(tile.elements, m)
                found = search._find_complement(residues, m, nodes)
                assert found == (expected, reach), (tile, m)
                with pytest.raises(NodeBudgetExceeded):
                    search._find_complement(residues, m, nodes - 1)
    assert cases == 9628


@pytest.mark.parametrize("modulus", [0, -4])
def test_find_complement_rejects_a_nonpositive_modulus(modulus):
    with pytest.raises(ValueError, match="modulus must be positive"):
        find_complement(IntegerSet.of(0, 1), modulus)


@pytest.mark.parametrize("node_budget", [0, -5])
def test_find_complement_rejects_a_nonpositive_node_budget(node_budget):
    # as SearchConfig does, rather than a NodeBudgetExceeded at the first node
    with pytest.raises(ValueError, match="node_budget must be positive"):
        find_complement(IntegerSet.of(0, 1), 4, node_budget)


def test_local_refutation_refutes_every_larger_modulus():
    # wherever a probe at M flags its refutation as local, every larger
    # multiple of |A| refutes with exactly the node count n of the search at
    # M: within a budget of n, and not within n - 1. The range must reach
    # {0..8}: the margin 2E - 1 first fails at {0, 3, 4, 5, 8}
    for normalized in enumerate_normalized_sets(8):
        k = len(normalized)
        for shift in (0, 2):
            tile = normalized.translate(shift)
            for m in range(k, 101, k):
                if not search._probe(tile, m, None)[2]:
                    continue
                _, nodes = _recursive_find_complement(tile.elements, m)
                for larger in range(m + k, 101, k):
                    assert find_complement(tile, larger, node_budget=nodes) is None
                    with pytest.raises(NodeBudgetExceeded):
                        find_complement(tile, larger, node_budget=nodes - 1)


@pytest.mark.parametrize(
    "elems, m, larger, nodes, larger_nodes",
    [
        # a margin of t + E < M would call both refutations local
        ((0, 1, 3), 6, 9, 12, 15),
        # and so would a margin of t + 2E - 1 < M
        ((0, 3, 4, 5, 8), 20, 25, 60, 65),
    ],
)
def test_local_refutation_margin_is_tight(elems, m, larger, nodes, larger_nodes):
    tile = IntegerSet(elems)
    assert _recursive_find_complement(elems, m) == (None, nodes)
    assert _recursive_find_complement(elems, larger) == (None, larger_nodes)
    assert search._probe(tile, m, None) == ("refuted", None, False)


def test_coset_search_matches_full_search():
    # a probe searches A/g at M/g, g = gcd(M, *A); the full search is the
    # reference on every g * A' + shift, A' within {0..5}. The full search's
    # reach is g times the coset search's, so both call a refutation local
    # alike, except where |A| does not divide M/g: there the coset search
    # refutes by counting and is never local
    for normalized in enumerate_normalized_sets(5):
        k = len(normalized)
        for g in (1, 2, 3, 4):
            for shift in {0, 1, 3, g}:
                tile = IntegerSet(g * a + shift for a in normalized.elements)
                for m in range(k, 49, k):
                    if len({x % m for x in tile.elements}) != k:
                        continue
                    d = math.gcd(m, *tile.elements)
                    try:
                        # with d = 1 the probe runs this search itself, and
                        # its refutations of {1, 9} and the like are long
                        expected, reach = search._find_complement(
                            sorted(x % m for x in tile.elements), m,
                            2_000 if d == 1 else None,
                        )
                    except NodeBudgetExceeded:
                        continue
                    outcome, found, local = search._probe(tile, m, None)
                    assert found == expected, (tile, m)
                    assert outcome == ("refuted" if expected is None else "tiles")
                    full_local = expected is None and reach + 2 * tile.elements[-1] < m
                    if (m // d) % k:
                        assert not local, (tile, m)
                    else:
                        assert local == full_local, (tile, m)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_find_complement_memory_is_linear_in_modulus():
    # {0, 2^13} at M = 2^14 places 2^13 translates: a mask per translate or
    # a coverage copy per level would hold about 2^13 masks of 2^14 bits
    found, peak = _peak_mib(lambda: find_complement(IntegerSet.of(0, 2**13), 2**14))
    assert found.elements == tuple(range(2**13))
    assert peak < 8
    # masks are built per element on first use, not for every element up
    # front: the interval places translate 0 and stops
    found, peak = _peak_mib(lambda: find_complement(IntegerSet(range(2**13)), 2**13))
    assert found.elements == (0,)
    assert peak < 4


def test_find_complement_refuses_a_modulus_past_the_limit():
    # the counting checks still answer at any modulus; a search would
    # allocate M-bit masks, so past the limit it is refused
    assert find_complement(IntegerSet.of(0, 2**40), 2**40) is None  # not injective
    assert find_complement(IntegerSet.of(0, 1, 2), 2**40) is None  # 3 does not divide
    with pytest.raises(NodeBudgetExceeded):
        find_complement(IntegerSet.of(0, 1), SEARCH_MODULUS_LIMIT, node_budget=1)
    with pytest.raises(ValueError, match=str(SEARCH_MODULUS_LIMIT)):
        find_complement(IntegerSet.of(0, 1), 2 * SEARCH_MODULUS_LIMIT, node_budget=1)


def test_coset_complement_past_the_element_limit_is_refused():
    # {0, 2^k} tiles at 2^(k+1) with the complement {0, ..., 2^k - 1}; the
    # coset search finds it at M/g = 2 and expands it only up to the limit
    assert ELEMENT_SAFETY_LIMIT == 2**20
    result = minimal_tiling_period(IntegerSet.of(0, 2**20))
    assert (result.period, len(result.complement)) == (2**21, 2**20)
    with pytest.raises(ValueError, match=f"{2**21} elements"):
        minimal_tiling_period(IntegerSet.of(0, 2**21))


def _limit_address_space():
    # run in the child before exec: a 2 GB address space, as in CI
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024, 2_000_000 * 1024))


@pytest.mark.parametrize("budget", [[], ["--node-budget", "1000"]], ids=["coset", "budget"])
def test_min_period_past_the_size_limits_is_a_usage_error(budget):
    # a budget counts the coset search, so both guards stand with or
    # without one
    for elems in (
        # tiles first at 2^41, where the coset search would expand a
        # 2^40-element complement; unguarded, a MemoryError (exit 4)
        f"0,{2**40}",
        # injective first at 2^26, with g = 1: the search would rotate
        # 2^26-bit masks, past SEARCH_MODULUS_LIMIT
        f"0,1,{2**25},{2**25 + 1}",
    ):
        argv = ["min-period", "--set", elems, *budget]
        result = subprocess.run(
            [sys.executable, "-m", "inttiles.cli", *argv], env=subprocess_env(),
            capture_output=True, text=True, timeout=10, preexec_fn=_limit_address_space,
        )
        assert (result.returncode, result.stdout) == (2, ""), elems
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")


def _oracle_has_complement(elems, m):
    """Independent brute force: lexicographic enumeration of all candidate
    subsets containing 0, pruned only when a prefix already overlaps."""
    k = len(elems)
    if m % k:
        return False
    reduced = sorted({x % m for x in elems})
    if len(reduced) != k:
        return False
    target = m // k
    base = 0
    for v in reduced:
        base |= 1 << v
    full = (1 << m) - 1
    masks = [((base << b) | (base >> (m - b))) & full if b else base for b in range(m)]

    def dfs(covered, last, count):
        if count == target:
            return covered == full
        for b in range(last + 1, m):
            if not covered & masks[b]:
                if dfs(covered | masks[b], b, count + 1):
                    return True
        return False

    return dfs(masks[0], 0, 1)


def test_find_complement_matches_brute_force():
    # the whole family: M <= 24 and every normalized A with |A| <= 4 in [0, M)
    for m in range(1, 25):
        for size in range(0, 4):
            for rest in itertools.combinations(range(1, m), size):
                tile = IntegerSet((0,) + rest)
                found = find_complement(tile, m)
                assert (found is not None) == _oracle_has_complement(tile.elements, m)
                if found is not None:
                    assert is_tiling(tile, found, m).tiles


# --- candidate enumeration ------------------------------------------------------


def test_restricted_candidates():
    assert list(restricted_candidates(4, 20)) == [4, 8, 16]
    assert list(restricted_candidates(6, 100)) == [6, 12, 18, 24, 36, 48, 54, 72, 96]
    assert list(restricted_candidates(1, 5)) == [1]
    assert list(restricted_candidates(1, 0)) == []
    assert list(restricted_candidates(3, 6)) == [3]  # 6 brings in the prime 2


def _restricted_candidates_by_filter(size, cap):
    """The generator before it seeded its heap with size: every product of
    the primes of size, from 1 up, kept when size divides it."""
    primes = factorize(size).primes
    heap = [1]
    seen = {1}
    while heap:
        v = heapq.heappop(heap)
        if v > cap:
            return
        if v % size == 0:
            yield v
        for p in primes:
            w = v * p
            if w <= cap and w not in seen:
                seen.add(w)
                heapq.heappush(heap, w)


def test_restricted_candidates_match_filtered_products():
    for size in range(1, 301):
        for cap in (0, 1, size - 1, size, 97, 10**3, 10**5):
            expected = list(_restricted_candidates_by_filter(size, cap))
            assert list(restricted_candidates(size, cap)) == expected, (size, cap)


def test_unrestricted_candidates():
    assert list(unrestricted_candidates(4, 20)) == [4, 8, 12, 16, 20]
    assert list(unrestricted_candidates(1, 1)) == [1]


def test_default_cap():
    assert default_cap(IntegerSet.of(0)) == 1
    assert default_cap(IntegerSet.of(0, 2)) == 4  # (2*2)^1
    assert default_cap(IntegerSet.of(0, 1, 2, 3, 4, 5)) == 100  # (2*5)^2


# --- minimal_tiling_period -----------------------------------------------------


def test_minimal_period_examples():
    r = minimal_tiling_period(IntegerSet.of(0))
    assert (r.status, r.period, r.complement.elements) == ("tiles", 1, (0,))
    r = minimal_tiling_period(IntegerSet.of(0, 2))
    assert (r.status, r.period, r.complement.elements) == ("tiles", 4, (0, 1))
    r = minimal_tiling_period(IntegerSet.of(0, 1, 4, 5))
    assert (r.status, r.period, r.complement.elements) == ("tiles", 8, (0, 2))
    assert r.explored == ((4, "not_injective"), (8, "tiles"))


def test_minimal_period_does_not_tile():
    r = minimal_tiling_period(IntegerSet.of(0, 1, 3))
    assert r.status == "does_not_tile"
    assert r.cap_used == 6
    assert r.explored == ((3, "not_injective"),)


def test_minimal_period_result_verifies():
    for elems in [(0, 1), (0, 2), (0, 1, 2, 3), (0, 4), (0, 1, 6, 7)]:
        r = minimal_tiling_period(IntegerSet(elems))
        assert r.status == "tiles"
        assert is_tiling(IntegerSet(elems), r.complement, r.period).tiles


def test_minimal_period_cap_override_downgrades_negative():
    r = minimal_tiling_period(
        IntegerSet.of(0, 1, 3), SearchConfig(max_modulus_override=3)
    )
    assert r.status == "inconclusive"
    assert r.cap_used == 3
    # an override at or above the default keeps the proof-complete verdict
    r = minimal_tiling_period(
        IntegerSet.of(0, 1, 3), SearchConfig(max_modulus_override=6)
    )
    assert r.status == "does_not_tile"


def test_minimal_period_node_budget_inconclusive():
    r = minimal_tiling_period(
        IntegerSet.of(0, 1, 4, 5), SearchConfig(node_budget=1)
    )
    assert r.status == "inconclusive"
    assert r.explored[-1][1] == "budget_exhausted"


def test_minimal_period_node_budget_counts_the_coset_search():
    # {0,2048} is injective first at 4096, where the full search places 2048
    # translates in 2048 nodes; the coset search at 4096 / 2048 needs one,
    # and the budget counts the search that runs
    tile = IntegerSet.of(0, 2048)
    result = minimal_tiling_period(tile, SearchConfig(node_budget=1))
    assert (result.status, result.period, result.explored[-1]) == (
        "tiles", 4096, (4096, "tiles")
    )
    assert result.complement.elements == tuple(range(2048))


def test_coset_search_takes_no_more_nodes_than_the_full_search():
    # on every injective (set, M) within {0..8}, M <= 60, with g > 1: the
    # coset search of A/g at M/g takes at most the full search's nodes, so
    # a budget that the full search met is met by the probe too. Where |A|
    # does not divide M/g the coset search rejects by counting, in no nodes
    pairs = 0
    for tile in enumerate_normalized_sets(8):
        k = len(tile)
        for m in range(k, 61, k):
            g = math.gcd(m, *tile.elements)
            if g == 1 or len({x % m for x in tile.elements}) != k:
                continue
            pairs += 1
            _, full = _recursive_find_complement(tile.elements, m)
            coset = 0
            if (m // g) % k == 0:
                reduced = tuple(x // g for x in tile.elements)
                _, coset = _recursive_find_complement(reduced, m // g)
            assert coset <= full, (tile, m)
            assert search._probe(tile, m, full)[0] != "budget_exhausted", (tile, m)
    assert pairs == 324


def test_minimal_period_unrestricted_mode():
    r = minimal_tiling_period(
        IntegerSet.of(0, 2), SearchConfig(candidate_mode="unrestricted")
    )
    assert (r.status, r.period) == ("tiles", 4)
    assert [m for m, _ in r.explored] == [2, 4]


def test_restricted_equals_unrestricted_small():
    # smoke-scale version of the oracle equivalence; the full family runs
    # in the acceptance suite
    for mask in range(1 << 7):
        tile = IntegerSet((0,) + tuple(i + 1 for i in range(7) if mask >> i & 1))
        restricted = minimal_tiling_period(tile, SearchConfig())
        unrestricted = minimal_tiling_period(
            tile, SearchConfig(candidate_mode="unrestricted")
        )
        assert restricted.status == unrestricted.status, tile
        assert restricted.period == unrestricted.period, tile


def _probe_every_candidate(tile, config):
    """The period search before local refutations: every candidate searched.

    Without a budget the full search is the reference. A budget counts the
    nodes of the coset search, so under one the reference searches A/g at
    M/g itself and expands the complement over the g cosets.
    """
    cap = default_cap(tile)
    proof_complete = True
    if config.max_modulus_override is not None:
        proof_complete = config.max_modulus_override >= cap
        cap = config.max_modulus_override
    if config.candidate_mode == "restricted":
        candidates = restricted_candidates(len(tile), cap)
    else:
        candidates = unrestricted_candidates(len(tile), cap)
    explored = []
    for m in candidates:
        if len({x % m for x in tile.elements}) != len(tile):
            explored.append((m, "not_injective"))
            continue
        g = 1 if config.node_budget is None else math.gcd(m, *tile.elements)
        try:
            found = find_complement(
                IntegerSet(x // g for x in tile.elements), m // g, config.node_budget
            )
        except NodeBudgetExceeded:
            explored.append((m, "budget_exhausted"))
            return PeriodResult("inconclusive", None, None, cap, tuple(explored))
        if found is not None:
            found = IntegerSet(g * b + j for b in found.elements for j in range(g))
            explored.append((m, "tiles"))
            return PeriodResult("tiles", m, found, cap, tuple(explored))
        explored.append((m, "refuted"))
    status = "does_not_tile" if proof_complete else "inconclusive"
    return PeriodResult(status, None, None, cap, tuple(explored))


def test_period_search_matches_probing_every_candidate():
    # the search lists the candidates after a local refutation without a
    # budget, as the lemma refutes them; the reference probes each under it.
    # Within {0..8} each of those probes fits the budget too, so the two
    # agree on every config
    configs = [
        SearchConfig(candidate_mode=mode, max_modulus_override=cap, node_budget=budget)
        for mode, cap in (("restricted", None), ("restricted", 150), ("unrestricted", 150))
        for budget in (None, 1, 50, 500)
    ]
    for tile in enumerate_normalized_sets(8):
        for config in configs:
            assert minimal_tiling_period(tile, config) == _probe_every_candidate(
                tile, config
            ), (tile, config)


def test_local_refutation_listing_is_bounded():
    # {0,1,3} refutes locally at 12, leaving about 3 * 10^11 candidates up to
    # the cap: a usage error within 2 s, not an unbounded list
    argv = ["min-period", "--set", "0,1,3", "--mode", "unrestricted", "--cap", str(10**12)]
    result = subprocess.run(
        [sys.executable, "-m", "inttiles.cli", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=2,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert len(result.stderr.splitlines()) == 1
    assert "1048576" in result.stderr and str(10**12) in result.stderr


@pytest.mark.parametrize(
    "argv, period",
    [
        # the full search refutes some unrestricted candidates below 4096,
        # such as M = 74 and 90, in a number of nodes exponential in M
        (["--set", "0,2048", "--mode", "unrestricted", "--cap", "5000"], 4096),
        # the full search rotates the whole 2^18-bit coverage at each of its
        # 2^17 placements
        (["--set", "0,131072"], 262144),
        # a budget counts the nodes of the coset search, one here, not the
        # full search's 65536
        (["--set", "0,65536", "--node-budget", "1"], 131072),
    ],
    ids=["0,2048-unrestricted", "0,131072", "0,65536-budget-1"],
)
def test_subgroup_tiles_search_one_coset(argv, period):
    result = subprocess.run(
        [sys.executable, "-m", "inttiles.cli", "min-period", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=10,
    )
    assert (result.returncode, result.stderr) == (0, "")
    payload = json.loads(result.stdout)["payload"]
    assert (payload["status"], payload["period"]) == ("tiles", period)
    assert payload["complement"] == list(range(period // 2))


def test_worker_count(monkeypatch):
    cpus = os.cpu_count() or 1
    assert worker_count(0) == cpus
    assert worker_count(1) == 1
    assert worker_count(10**6) == cpus
    with pytest.raises(ValueError):
        worker_count(-1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [worker_count(j) for j in (0, 1, 3, 4, 5)] == [4, 1, 3, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(0) == 1


def _count_draws(monkeypatch, limit):
    """Make both candidate generators count what is drawn and fail past limit."""
    drawn = [0]

    def counting(real):
        def candidates(size, cap, *primes):
            for m in real(size, cap, *primes):
                drawn[0] += 1
                if drawn[0] > limit:
                    raise AssertionError(f"drew more than {limit} candidates")
                yield m

        return candidates

    for name in ("restricted_candidates", "unrestricted_candidates"):
        monkeypatch.setattr(search, name, counting(getattr(search, name)))
    return drawn


@pytest.mark.parametrize("mode", ["restricted", "unrestricted"])
def test_period_search_draws_candidates_lazily(monkeypatch, mode):
    # {0,1} tiles at the first candidate, 2; the cap must not be enumerated
    drawn = _count_draws(monkeypatch, limit=3)
    config = SearchConfig(candidate_mode=mode, max_modulus_override=10**12)
    result = minimal_tiling_period(IntegerSet.of(0, 1), config)
    assert (result.status, result.period) == ("tiles", 2)
    assert drawn == [1]


def test_ordered_map_keeps_input_order():
    # 6 chunks: more than the window of 2 * 2 tasks, and a short last one
    n = 5 * CORPUS_CHUNK + 3
    got = list(ordered_map(str, iter(range(n)), 2))
    assert got == [str(i) for i in range(n)]


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(candidate_mode="fancy")
    with pytest.raises(ValueError):
        SearchConfig(max_modulus_override=0)
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)


def test_period_result_json():
    r = minimal_tiling_period(IntegerSet.of(0, 2))
    d = r.to_json_dict()
    assert d == {
        "status": "tiles",
        "period": 4,
        "complement": [0, 1],
        "cap_used": 4,
        "explored": [[2, "not_injective"], [4, "tiles"]],
    }


# --- witnesses and the bound check ----------------------------------------------


def test_top_power_witnesses_precondition():
    tiling = CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 4)
    assert least_period(tiling.complement, 4) == 2
    with pytest.raises(ValueError):
        top_power_witnesses(tiling)


def test_top_power_witnesses_example():
    tiling = CyclicTiling(IntegerSet.of(0, 2), IntegerSet.of(0, 1), 4)
    assert top_power_witnesses(tiling) == [(2, 2, 4)]
    # Phi_4 = X^2 + 1 indeed divides 1 + X^2
    assert cyclotomic_divides(4, dict(tiling.tile.mask_polynomial().terms()))


def test_top_power_witnesses_raise_a_fault_without_a_witness(monkeypatch):
    # a kernel that never divides leaves 2^2 | 4 with no witness, which the
    # witness lemma rules out: a fault, not a verdict
    monkeypatch.setattr(search, "cyclotomic_divides", lambda s, f: False)
    tiling = CyclicTiling(IntegerSet.of(0, 2), IntegerSet.of(0, 1), 4)
    with pytest.raises(WitnessViolationError, match=r"no witness for 2\^2"):
        top_power_witnesses(tiling)


def test_top_power_witnesses_trivial_modulus():
    tiling = CyclicTiling(IntegerSet.of(0), IntegerSet.of(0), 1)
    assert top_power_witnesses(tiling) == []


def test_top_power_witnesses_on_corpus(corpus10):
    for tile, result in corpus10:
        if result.status != "tiles":
            continue
        # the minimal period can be smaller than max(tile); fold first
        tiling = CyclicTiling(
            tile.reduce_mod(result.period), result.complement, result.period
        )
        if least_period(tiling.complement, tiling.modulus) != tiling.modulus:
            continue
        witnesses = top_power_witnesses(tiling)  # would raise on violation
        mask = dict(tile.mask_polynomial().terms())
        for p, e, s in witnesses:
            assert tiling.modulus % s == 0
            assert s % p**e == 0
            assert cyclotomic_divides(s, mask)


def test_period_bound_check_examples():
    assert period_bound_check(
        CyclicTiling(IntegerSet.of(0, 2), IntegerSet.of(0, 1), 4)
    )
    assert period_bound_check(CyclicTiling(IntegerSet.of(0), IntegerSet.of(0), 1))


def test_period_bound_check_precondition():
    tiling = CyclicTiling(IntegerSet.of(0, 1), IntegerSet.of(0, 2), 4)
    assert least_period(tiling.complement, 4) == 2
    with pytest.raises(ValueError, match="least period"):
        period_bound_check(tiling)


def test_period_bound_check_prime_set_mismatch():
    # {0,3} + {0,1,2} = Z_6 with least period 6, but prime sets differ
    tiling = CyclicTiling(IntegerSet.of(0, 3), IntegerSet.of(0, 1, 2), 6)
    assert least_period(tiling.complement, 6) == 6
    with pytest.raises(ValueError):
        period_bound_check(tiling)
