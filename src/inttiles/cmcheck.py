"""Coven-Meyerowitz spectrum and conditions, plus fiber structure.

The spectrum of a tile A is the set of prime powers p^a whose cyclotomic
polynomial divides the mask polynomial of A. Condition (T1) compares |A|
with the product of Phi_{p^a}(1) = p over the spectrum; (T2) requires the
cyclotomic of every cross-prime product of spectrum elements to divide A
as well. Both checks are exact. cm_report alone tests spectrum powers,
each on the sparse mask (an exponent -> coefficient map of the elements),
and spectrum, check_t1 and check_t2 read their answers off its report.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator

from .polyring import Record, cyclotomic_divides, euler_phi, factorize, is_prime
from .tilingset import IntegerSet


def spectrum(tile: IntegerSet) -> tuple[int, ...]:
    """Prime powers p^a with Phi_{p^a} dividing the mask polynomial, sorted."""
    return cm_report(tile).spectrum


def check_t1(tile: IntegerSet) -> bool:
    """(T1): |A| equals the product of Phi_s(1) = p over spectrum entries s = p^a."""
    return cm_report(tile).t1


def check_t2(tile: IntegerSet) -> bool:
    """(T2): for spectrum powers of pairwise distinct primes, the cyclotomic
    of their product divides the mask polynomial."""
    return cm_report(tile).t2


class CmReport(Record):
    """Spectrum, condition verdicts, and the diameter inequalities for one tile.

    half_bound_holds (diam >= lcm_sa / 2) is only meaningful when the
    cyclotomic of lcm_sa divides the tile, and eq3_holds (diam >= (p-1)/p *
    lcm_sa, p the smallest prime factor of |A|) only when |A| > 1; both are
    None otherwise and omitted from JSON.
    """

    def __init__(
        self,
        spectrum: tuple[int, ...],
        t1: bool,
        t2: bool,
        lcm_sa: int,
        phi_lcm_divides: bool,
        diam: int,
        half_bound_holds: bool | None = None,
        eq3_holds: bool | None = None,
    ):
        vars(self).update(
            spectrum=spectrum,
            t1=t1,
            t2=t2,
            lcm_sa=lcm_sa,
            phi_lcm_divides=phi_lcm_divides,
            diam=diam,
            half_bound_holds=half_bound_holds,
            eq3_holds=eq3_holds,
        )


def cm_report(tile: IntegerSet) -> CmReport:
    """Assemble the full report for a normalized tile in one pass.

    Phi_{p^a} is monic, so by Gauss's lemma A(X) / Phi_{p^a}(X) is an
    integer polynomial when it divides, and Phi_{p^a}(1) = p divides
    A(1) = |A|: only the primes of |A| can enter the spectrum. For each
    such p the pass tests the powers p^a with euler_phi(p^a) <= diam, the
    only ones that can divide, and keeps those that do as p's group. (T1)
    holds when each p has as many powers as its exponent in |A| (by unique
    factorization, |A| = the product of p over the spectrum), and lcm_sa
    is the product of the groups' top powers.

    An empty spectrum gives lcm_sa = 1, and Phi_1 = X - 1 never divides a
    nonempty set's mask, whose value at 1 is |A| > 0; so phi_lcm_divides is
    False there without a kernel call.
    """
    diam = tile.diameter()
    mask = dict.fromkeys(tile.elements, 1)
    size = factorize(len(tile))
    groups = []
    for p, _ in size:
        powers, power = [], p
        while (power // p) * (p - 1) <= diam:
            if cyclotomic_divides(power, mask):
                powers.append(power)
            power *= p
        groups.append(powers)
    # A combination with an empty group yields no product. A product whose
    # totient exceeds the diameter cannot divide the mask, so it settles
    # (T2) without a divisibility test.
    t2 = all(
        euler_phi(index) <= diam and cyclotomic_divides(index, mask)
        for k in range(2, len(groups) + 1)
        for chosen in itertools.combinations(groups, k)
        for index in map(math.prod, itertools.product(*chosen))
    )
    lcm_sa = math.prod(powers[-1] for powers in groups if powers)
    phi_lcm_divides = lcm_sa > 1 and cyclotomic_divides(lcm_sa, mask)
    half_bound = 2 * diam >= lcm_sa if phi_lcm_divides else None
    eq3 = None
    if len(tile) > 1:
        p = size[0][0]
        eq3 = p * diam >= (p - 1) * lcm_sa
    return CmReport(
        spectrum=tuple(sorted(itertools.chain.from_iterable(groups))),
        t1=all(len(powers) == e for powers, (_, e) in zip(groups, size)),
        t2=t2,
        lcm_sa=lcm_sa,
        phi_lcm_divides=phi_lcm_divides,
        diam=diam,
        half_bound_holds=half_bound,
        eq3_holds=eq3,
    )


class FiberDecomposition(Record):
    """A partition of a multiset over Z_M into p-fibers and q-fibers.

    Each base residue x in p_fibers stands for the coset
    {x + k*M/p : 0 <= k < p}; bases may repeat when the multiset demands
    it. unique is False when a second, different decomposition exists.
    """

    def __init__(
        self,
        modulus: int,
        p: int,
        q: int,
        p_fibers: tuple[int, ...],
        q_fibers: tuple[int, ...],
        unique: bool,
    ):
        vars(self).update(
            modulus=modulus, p=p, q=q, p_fibers=p_fibers, q_fibers=q_fibers, unique=unique
        )


def fiber_decompose(
    tile: IntegerSet, modulus: int, p: int, q: int | None = None
) -> FiberDecomposition | None:
    """Decompose tile mod modulus into fibers, or None if impossible.

    The search always branches on the smallest residue with remaining
    multiplicity, trying its p-fiber before its q-fiber, so the first
    decomposition found is deterministic. The search is exhaustive: a None
    result certifies that no decomposition exists. Passing q = None or
    q = p selects single-prime mode (p-fibers only).
    """
    if not is_prime(p) or modulus % p != 0:
        raise ValueError("p must be a prime dividing the modulus")
    single = q is None or q == p
    if not single:
        assert q is not None
        if not is_prime(q) or modulus % q != 0:
            raise ValueError("q must be a prime dividing the modulus")
    counts = Counter(x % modulus for x in tile.elements)
    kinds = [(p, modulus // p)] if single else [(p, modulus // p), (q, modulus // q)]
    remaining = sorted(counts)

    def fibers(t: int) -> Iterator[tuple[int, range]]:
        # Evaluated lazily: the q-fiber is tested against the counts left
        # after the p-fiber's subtree has been searched and undone.
        for prime, step in kinds:
            coset = range(t % step, modulus, step)
            if all(counts[r] > 0 for r in coset):
                yield prime, coset

    # Depth-first search over an explicit stack, one frame per placed
    # fiber, so deep decompositions do not hit the recursion limit.
    # placed[i] is the fiber frame i currently has subtracted from counts.
    # A frame also keeps its residue's index in remaining. Counts below it
    # are 0 and deeper frames only lower counts, so the next level's scan
    # starts there and the scans along one search path are linear.
    first: list[tuple[int, int]] | None = None
    solutions = 0
    stack = [(0, fibers(remaining[0]))]
    placed: list[tuple[int, range]] = []
    while stack:
        if len(placed) == len(stack):
            for r in placed.pop()[1]:
                counts[r] += 1
        start, branches = stack[-1]
        fiber = next(branches, None)
        if fiber is None:
            stack.pop()
            continue
        for r in fiber[1]:
            counts[r] -= 1
        placed.append(fiber)
        i = next((j for j in range(start, len(remaining)) if counts[remaining[j]] > 0), None)
        if i is not None:
            stack.append((i, fibers(remaining[i])))
            continue
        solutions += 1
        if first is None:
            first = [(prime, coset.start) for prime, coset in placed]
        if solutions >= 2:
            break

    if first is None:
        return None
    return FiberDecomposition(
        modulus=modulus,
        p=p,
        q=p if single else q,  # type: ignore[arg-type]
        p_fibers=tuple(base for prime, base in first if prime == p),
        q_fibers=tuple(base for prime, base in first if not single and prime == q),
        unique=solutions < 2,
    )
