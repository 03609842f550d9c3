"""Exhaustive complement search in Z_M and minimal tiling periods.

The period search enumerates candidate moduli in increasing order and
calls a complete backtracking search for a complement at each. The default
enumeration cap (2D)^d, with D the diameter and d the number of distinct
primes of |A|, makes a negative answer a theorem rather than a timeout:
any tiling admits one whose period has the same prime factors as |A|, and
such a least period cannot exceed the cap. minimal_tiling_period takes its
three settings, mode, cap and node_budget, as keyword arguments named like
the CLI flags, and reads the primes of |A| off the (prime, exponent) pairs
that factorize returns.

On a tile that does not tile, most probes refute the same local dead end.
Let E = max(A) and call a refutation at M local when every smallest
uncovered residue t the search reached has t + 2E < M. A translate t - a
with a <= t covers residues in [0, t + E]; one with a > t wraps and covers
[M - E, M) and [0, t + E]. Below the margin the two regions never meet, so
at any larger multiple M' of |A|, moving each residue r >= M - E to
r + M' - M maps the search onto itself: the same tries in the same order,
the same collisions and the same node count, and it still never places
M'/|A| translates. So every larger candidate is refuted, and the period
search lists them without searching. The margin is tight: with
t + 2E - 1 < M, {0, 3, 4, 5, 8} refutes in 60 nodes at M = 20 but in 65 at
M = 25. This is the window-state argument behind Newman's 2^D period bound
(J. Number Theory 9, 1977).

A probe at M searches each coset of a subgroup once. Let g = gcd(M, *A).
Every element of A is a multiple of g, so the translate t - a covers only
the class of t mod g, and the g cosets of gZ_M are tiled independently:
A tiles Z_M exactly when A/g tiles Z_{M/g}. This is the reduction Coven
and Meyerowitz use to assume gcd 1 (J. Algebra 212, 1999). Write
t = g t' + j. Then a <= t exactly when a/g <= t', so the search of class j
is the search for A/g in Z_{M/g}, shifted by j, trying translates in the
same order, and the first complement of the full search is
g B' + {0, ..., g - 1} for the first complement B' of the reduced one.
The full search interleaves the cosets, so it searches a dead end in one
again under every partial placement in the others. Its reach is exactly
g t'_max, for t'_max the reduced search's: it reaches the state that makes
the same placements in every coset, and its t is the least over the
classes j of g t'_j + j, at most g t'_0. So t'_max + 2E/g < M/g holds
exactly when t_max + 2E < M, and the lemma above applies unchanged. One
case differs: when |A| does not divide M/g the reduced search rejects by
counting and reaches no t, so it is never local, though the full search
may be. Every larger candidate still refutes, and the period search
searches them until one is local, with the same outcomes, though under a
node budget those searches count against it; only the error for too long
a listing can name a later M.

A node budget counts the nodes of the search that runs: the coset search
in a probe, the full search in find_complement. The candidates listed after
a local refutation are refuted by the lemma, which is a proof, so no budget
applies to them. It could not count them alike anyway: a larger candidate
can have another g, and then its coset search is another search. {0, 2, 8}
refutes locally at M = 30 in 30 nodes, searching {0, 1, 4} in Z_15, while
the unrestricted candidate M = 33, where g = 1, takes 171.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_right
from collections.abc import Iterator
from itertools import islice

from .faults import WitnessViolationError
from .polyring import Record, cyclotomic_divides, divisors, factorize
from .tilingset import ELEMENT_SAFETY_LIMIT, CyclicTiling, IntegerSet, least_period

# The largest modulus the complement search takes on. It keeps one M-bit mask
# per tried element, and every placement and backtrack shifts the coverage of
# up to M bits: under a budget of 1,000 nodes, {0, 2^23} at M = 2^24 peaked at
# 21 MB in 1.8 s, as did {0..62, 2^23} in 0.03 s; {0, 2^25} at 2^26 took 7.6 s
# at 37 MB (Python 3.11.7, 2 CPUs).
SEARCH_MODULUS_LIMIT = 2**24


class NodeBudgetExceeded(Exception):
    """The backtracking search hit a caller-imposed node budget."""


def _check_node_budget(node_budget: int | None) -> None:
    if node_budget is not None and node_budget < 1:
        raise ValueError("node_budget must be positive")


class PeriodResult(Record):
    """Outcome of a minimal-period search.

    status is "tiles" (period and complement set), "does_not_tile" (every
    candidate up to a proof-complete cap was refuted), or "inconclusive"
    (a user-imposed budget or cap override stopped the search early).
    explored lists each candidate modulus with its outcome.
    """

    def __init__(
        self,
        status: str,
        period: int | None,
        complement: IntegerSet | None,
        cap_used: int,
        explored: tuple[tuple[int, str], ...] = (),
    ):
        vars(self).update(
            status=status,
            period=period,
            complement=complement,
            cap_used=cap_used,
            explored=explored,
        )


def find_complement(
    tile: IntegerSet, modulus: int, node_budget: int | None = None
) -> IntegerSet | None:
    """A complement B with tile + B = Z_modulus, or None.

    Complete backtracking over residue coverage: the smallest uncovered
    residue t must be covered by some translate t - a with a in tile
    (mod modulus), so each node branches over at most |tile| candidate
    translates, tried in increasing order. The first solution in this
    order is returned, making the result deterministic; None comes with an
    exhaustive-search guarantee. B contains 0 when some element of the
    tile is 0 mod modulus, as in every normalized tile. A modulus below 1,
    or a node budget below 1, raises a ValueError.

    Coverage is one mask of the residues t..modulus-1 (bit j is residue
    t + j); every residue below t is covered, so it holds no bits for them.
    A placement ORs in the translate's mask and shifts the coverage down
    past the covered run, and a backtrack shifts it back up. Translate
    t - a has the same mask at every t, the tile rotated down by a. It has
    a threshold: from t = min(a - b, modulus - max + a) on, for b the next
    smaller residue and max the largest, it covers a residue below t, so
    it is counted as a node and rejected without a mask test. The search
    keeps at most |tile| + 1 masks, one per tried element and the
    coverage, at most |tile| + 1 try orders of |tile| indices, one per
    number of elements above t, and per level the placed index, t and an
    iterator. Masks and orders are built on first use.

    This is the full search, over every coset of the subgroup the tile
    generates with modulus, and a node budget counts its nodes;
    minimal_tiling_period searches one coset instead (see the module
    docstring).

    A modulus past SEARCH_MODULUS_LIMIT that passes the two counting
    checks (|tile| divides it, the tile is injective mod it) raises a
    ValueError instead of allocating its masks.

    A refutation is local when every t the search reached has
    t + 2 max(tile) < modulus. Then None, with the same node count, is also
    the answer at every larger multiple of |tile|, so a node budget stops
    those searches exactly when it stops this one. The module docstring
    gives the proof and shows that a margin of 2 max(tile) - 1 is too small.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    _check_node_budget(node_budget)
    k = len(tile)
    if modulus % k:
        return None
    residues = sorted({x % modulus for x in tile.elements})
    if len(residues) != k:
        return None  # not injective mod modulus: some residue would double up
    return _find_complement(residues, modulus, node_budget)[0]


def _find_complement(
    residues: list[int], modulus: int, node_budget: int | None
) -> tuple[IntegerSet | None, int]:
    """find_complement's search, with the largest t reached.

    residues are the tile's distinct residues mod modulus, ascending, and
    their number divides modulus.
    """
    if modulus > SEARCH_MODULUS_LIMIT:
        raise ValueError(
            f"a complement search modulo {modulus} takes {modulus}-bit masks, "
            f"past the limit {SEARCH_MODULUS_LIMIT}"
        )
    k = len(residues)
    base = 0
    for x in residues:
        base |= 1 << x
    # Elements are walked by index i into descending. At a residue t with
    # split elements above it, the try order is i = split .. k - 1, then
    # 0 .. split - 1, so translates t - a increase as a falls through the
    # elements <= t, then through those > t. With a = descending[i],
    # masks[i] sets bit x - a for each residue x >= a and bit modulus - a + x
    # for each x < a; orders[split] is that split's try order. ends[i] is the
    # least t at which one of those bits stands for a residue below t: the
    # next smaller residue b lands in [0, t) once t >= a - b, and the top
    # residue wraps past modulus once t >= modulus - top + a.
    descending = residues[::-1]
    top = descending[0]
    ends = [min(a - b, modulus - top + a) for a, b in zip(descending, descending[1:])]
    ends.append(modulus - top + descending[-1])
    indices = tuple(range(k))
    masks: list[int | None] = [None] * k
    orders: list[tuple[int, ...] | None] = [None] * (k + 1)
    limit = sys.maxsize if node_budget is None else node_budget  # no search gets there

    # Depth-first search on an explicit stack, so the depth M/|A| is not
    # bound by the recursion limit. The current level's t, coverage and
    # untried indices live in locals; the stack holds each parent level's
    # placed index, t and untried indices.
    target = modulus // k
    stack: list[tuple[int, int, Iterator[int]]] = []
    covered = t = reach = nodes = 0
    split = k - bisect_right(residues, t)
    orders[split] = indices[split:] + indices[:split]
    untried = iter(orders[split])
    while True:
        for i in untried:
            nodes += 1
            if nodes > limit:
                raise NodeBudgetExceeded(f"exceeded {node_budget} nodes at M={modulus}")
            if t >= ends[i]:
                continue
            m = masks[i]
            if m is None:
                a = descending[i]
                m = masks[i] = (base >> a) | (base & ((1 << a) - 1)) << (modulus - a)
            if not covered & m:
                break
        else:
            if not stack:
                return None, reach
            i, parent_t, untried = stack.pop()
            # refill the run parent_t..t-1 that the placement covered, then
            # take masks[i] out
            covered = (((covered + 1) << (t - parent_t)) - 1) ^ masks[i]
            t = parent_t
            continue
        stack.append((i, t, untried))
        if len(stack) == target:
            placed = sorted((t - descending[i]) % modulus for i, t, _ in stack)
            return IntegerSet(placed), reach
        covered |= m
        step = (covered ^ (covered + 1)).bit_length() - 1  # the covered run from t
        covered >>= step
        t += step
        if t > reach:
            reach = t
        split = k - bisect_right(residues, t)
        order = orders[split]
        if order is None:
            order = orders[split] = indices[split:] + indices[:split]
        untried = iter(order)


def restricted_candidates(
    size: int, cap: int, primes: tuple[int, ...] | None = None
) -> Iterator[int]:
    """Multiples of size with prime set equal to that of size, ascending, <= cap.

    These are exactly size times the products of its primes, which are
    factored here unless given (ascending). The min-heap holds (value, index
    of its last prime) and extends a value only by that prime and larger
    ones, so each product is made once, from its primes in nondecreasing
    order, and candidates come out sorted without materializing a range.
    """
    if primes is None:
        primes = tuple(p for p, _ in factorize(size))
    heap = [(size, 0)] if size <= cap else []
    while heap:
        v, i = heapq.heappop(heap)
        yield v
        for j in range(i, len(primes)):
            w = v * primes[j]
            if w > cap:
                break  # the primes ascend, so every later product is past cap
            heapq.heappush(heap, (w, j))


def unrestricted_candidates(size: int, cap: int) -> Iterator[int]:
    """Every multiple of size up to cap, ascending."""
    return iter(range(size, cap + 1, size))


def default_cap(tile: IntegerSet, primes: tuple[int, ...] | None = None) -> int:
    """(2D)^d with D the diameter and d the number of distinct primes of |A|.

    primes, when given, are the primes of |A|, so that they are not factored
    again.
    """
    d = len(factorize(len(tile)) if primes is None else primes)
    return (2 * tile.diameter()) ** d


def _probe(
    tile: IntegerSet, modulus: int, node_budget: int | None
) -> tuple[str, IntegerSet | None, bool]:
    """A candidate's outcome and complement, and whether a refutation is local.

    The search runs on the tile divided by g = gcd(modulus, *tile) at
    modulus / g, and its complement is expanded over the g cosets (see the
    module docstring). It takes the residues reduced here for the
    injectivity check, divided by g. Where |tile| does not divide
    modulus / g the probe refutes by counting, and never locally. A node
    budget counts the nodes of the search. A complement of more than
    ELEMENT_SAFETY_LIMIT elements raises a ValueError before it is expanded.
    """
    k = len(tile)
    residues = sorted({x % modulus for x in tile.elements})
    if len(residues) != k:
        return "not_injective", None, False
    g = math.gcd(modulus, *residues)
    if (modulus // g) % k:
        return "refuted", None, False
    try:
        found, reach = _find_complement(
            [r // g for r in residues], modulus // g, node_budget
        )
    except NodeBudgetExceeded:
        return "budget_exhausted", None, False
    if found is None:
        local = reach + 2 * tile.elements[-1] // g < modulus // g
        return "refuted", None, local
    if g > 1:
        if modulus // k > ELEMENT_SAFETY_LIMIT:
            raise ValueError(
                f"the complement at M={modulus} would have {modulus // k} "
                f"elements, more than {ELEMENT_SAFETY_LIMIT}"
            )
        found = IntegerSet(g * b + j for b in found.elements for j in range(g))
    return "tiles", found, False


def minimal_tiling_period(
    tile: IntegerSet,
    *,
    mode: str = "restricted",
    cap: int | None = None,
    node_budget: int | None = None,
) -> PeriodResult:
    """The minimal tiling period of a normalized tile, by exhaustive search.

    The settings are keyword-only and named like the CLI flags --mode, --cap
    and --node-budget. mode "restricted" enumerates only moduli whose prime
    set equals the prime set of |A| (sound: a tile always admits such a
    tiling); "unrestricted" enumerates every multiple of |A| up to the cap
    and exists as an oracle for the restricted mode. Either way candidates
    are generated lazily as the search probes them, so a large cap costs
    nothing until it is reached, except that a local refutation lists every
    remaining candidate at once (below). An unknown mode, or a cap or node
    budget below 1, raises a ValueError before any search.

    Candidates are enumerated in increasing order, so the first modulus
    admitting a complement is the minimum over the enumerated family. With
    the default cap (default_cap) a fully refuted enumeration is a proof
    that the tile does not tile the integers at all; a cap below the default
    downgrades that negative answer to "inconclusive".

    Each candidate is searched in one coset of the subgroup that the tile
    generates with it, which finds the same outcome and complement as
    find_complement (see the module docstring). A node budget counts the
    nodes of that coset search.

    After the first local refutation (see find_complement) every remaining
    candidate is listed as refuted without a search. The listing is a proof,
    so no node budget applies to it. A ValueError is raised instead when
    more than ELEMENT_SAFETY_LIMIT candidates remain, when a probe would
    search a modulus past SEARCH_MODULUS_LIMIT, or when the complement found
    has more than ELEMENT_SAFETY_LIMIT elements.
    """
    if mode not in ("restricted", "unrestricted"):
        raise ValueError(f"unknown mode {mode!r}")
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    _check_node_budget(node_budget)
    primes = tuple(p for p, _ in factorize(len(tile)))
    proof_cap = default_cap(tile, primes)
    if cap is None:
        cap = proof_cap
    proof_complete = cap >= proof_cap
    if mode == "restricted":
        candidates = restricted_candidates(len(tile), cap, primes)
    else:
        candidates = unrestricted_candidates(len(tile), cap)

    explored: list[tuple[int, str]] = []
    for modulus in candidates:
        outcome, complement, local = _probe(tile, modulus, node_budget)
        explored.append((modulus, outcome))
        if outcome == "tiles":
            return PeriodResult("tiles", modulus, complement, cap, tuple(explored))
        if outcome == "budget_exhausted":
            return PeriodResult("inconclusive", None, None, cap, tuple(explored))
        if local:
            rest = list(islice(candidates, ELEMENT_SAFETY_LIMIT + 1))
            if len(rest) > ELEMENT_SAFETY_LIMIT:
                raise ValueError(
                    f"the search refuted M={modulus} locally, which refutes every "
                    f"larger candidate; listing those up to the cap {cap} would take "
                    f"more than {ELEMENT_SAFETY_LIMIT} entries"
                )
            explored.extend((m, "refuted") for m in rest)
            break
    status = "does_not_tile" if proof_complete else "inconclusive"
    return PeriodResult(status, None, None, cap, tuple(explored))


def _require_least_period(tiling: CyclicTiling) -> None:
    if least_period(tiling.complement, tiling.modulus) != tiling.modulus:
        raise ValueError("modulus is not the least period of the complement")


def top_power_witnesses(tiling: CyclicTiling) -> list[tuple[int, int, int]]:
    """For each prime power p^e exactly dividing M, a witness divisor s.

    The witness satisfies p^e | s, s | M, and Phi_s divides the tile's mask
    polynomial. Such an s always exists when M is the least period of the
    complement; its absence would contradict a theorem, so it is raised as
    a fault. Requires least_period(complement, M) == M.
    """
    _require_least_period(tiling)
    modulus = tiling.modulus
    mask = dict.fromkeys(tiling.tile.elements, 1)
    divs = divisors(modulus)
    witnesses = []
    for p, e in factorize(modulus):
        pe = p**e
        s = next(
            (d for d in divs if d % pe == 0 and cyclotomic_divides(d, mask)), None
        )
        if s is None:
            raise WitnessViolationError(
                f"no witness for {p}^{e} in tiling with modulus {modulus}"
            )
        witnesses.append((p, e, s))
    return witnesses


def period_bound_check(tiling: CyclicTiling) -> bool:
    """Whether M <= (2 * diam(tile))^d, d the number of distinct primes of M.

    Preconditions: M is the least period of the complement and M has the
    same prime set as |tile|. A False return on a valid input would
    contradict the bound chain behind the period cap.
    """
    _require_least_period(tiling)
    modulus = tiling.modulus
    size = len(tiling.tile)
    if [p for p, _ in factorize(modulus)] != [p for p, _ in factorize(size)]:
        raise ValueError("prime set of modulus differs from prime set of |tile|")
    return modulus <= default_cap(tiling.tile)
