"""Finite integer sets, mask polynomials, and tiling verification.

A tiling of Z_M is checked by two independent routes. The direct one finds
the residues covered zero times and more than once on bitmasks: it builds
the larger set's residue mask, and the mask of residues that set hits
twice, once; ORs in that mask shifted by each element of the smaller set,
collecting the bits already covered as overlaps; and folds the [0, 2M)
window once at the end (bit r + M is residue r, so a residue set in both
halves is covered twice). It holds a few M-bit integers, never a length-M
list. A set of n >= 64 elements is scattered, when it is dense, into a
row of one byte per integer of [lo, max], where lo is the multiple of M at
or below its least element; it is dense when that row takes at most 64
bytes per element, so no allocation grows with the size of the elements.
The scatter takes no % per element, and the row is packed from eight
strided slices and folded onto M bits: the OR of its M-bit chunks is the
mask of residues hit once, and their overlaps are the residues hit twice,
since distinct integers share a residue only across chunks. A per-element
bit loop runs for smaller or sparser sets, where the row measured no
faster (the two tie at 64 bytes per element). When |A||B| = M and the
larger set repeats no residue, the shifted copies are first ORed without
tracking overlaps: a popcount of M means no two copies overlap, and if the
two halves of the window are also disjoint, the sets tile. Any other outcome
reruns the overlap-tracking loop, which gives the diagnostics. Near
M = 10^6 each shifted mask is a new 125-250 KB int, around glibc's default
mmap threshold, so the route's time also depends on how the allocator maps
and trims those blocks: repeated in one process on the theorem2 tiling at
n = 2, its median took 65-91 ms, and 35-60 ms with MALLOC_MMAP_THRESHOLD_
and MALLOC_TRIM_THRESHOLD_ raised to 64 and 128 MB (three runs each,
Python 3.11, 2 CPUs); the cyclotomic route's 2-4 ms did not move.

The cyclotomic route applies the Coven-Meyerowitz criterion: A + B = Z_M
iff |A||B| = M and, for every divisor s > 1 of M, the cyclotomic
polynomial Phi_s divides A(X) or B(X). Each Phi_s is irreducible, so it
divides the product A(X)B(X) exactly when it divides one of the factors;
the route therefore tests the two sparse mask polynomials separately and
never forms their length-M product. It first peels arithmetic progressions
{0, d, ..., (k-1)d} off each set, so that
A(X) = R(X) * prod (X^(kd) - 1)/(X^d - 1), and reads Phi_s | A off the
factors: s | kd and s not dividing d. A set that is one whole progression
is recognised and peeled in one step: an interval by its span alone, since
n strictly increasing integers spanning n - 1 are consecutive, and a
progression of step d > 1 by comparing it with its range, since its span
does not decide ({0, 2, 3, 6} spans 3 steps of 2). Any other peel needs
every maximal chain x, x + d, ... to have one length k. For d = 1 the
chains are runs, slices of the sorted list, so the peel is decided there
in 2|A|/k subtractions and no set: k (the first run's length, found by
bisection) divides |A|, every block of k sorted elements spans k - 1, and
each block starts past a gap, so that runs that touch are not merged. For
d > 1 two checks reject most sets before any set is built: the least
element's chain, walked by one bisection per element, has a length k that
divides |A|, and the greatest element ends a maximal chain of length k,
two more bisections. A set that passes them is decided by its chain
starts and ends, without a second set: it peels when the ends, in order,
are the starts plus (k - 1)d. A kept peel at least halves the set, so
all rounds together cost about twice the first. Only when no factor of
either set has Phi_s does the sparse kernel test Phi_s | R. Box tiles,
the lattice complements and the theorem2 tile factor down to R = X^r, so
the kernel sees one term instead of |A|, if it runs at all;
the column-shifted theorem2 complement, like any set with no progression
structure, is passed whole.

The direct route does not factor: it shares no code with the cyclotomic
route, so a fault in the factoring shows up as a route disagreement, not
as one wrong answer from both. The two routes are provably equivalent, so
a disagreement is escalated as a fault rather than resolved silently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import sub

from .faults import InconsistentRoutesError
from .polyring import IntPolynomial, Record, cyclotomic_divides, divisors

# The most entries one call may list: construct box and counterexample build
# one per residue or pair (construct box --powers 2^20 took 0.34 s and 99 MB
# peak RSS, Python 3.11, 2 CPUs), a local refutation lists one explored
# entry per remaining candidate, and a coset search expands its complement
# into one element per residue it covers.
ELEMENT_SAFETY_LIMIT = 2**20


class IntegerSet(Record):
    """Nonempty finite set of nonnegative integers, kept strictly increasing."""

    def __init__(self, elements: Iterable[int]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("set must be nonempty")
        prev = elems[0] - 1
        for x in elems:
            if x <= prev:
                if x == prev:
                    raise ValueError(f"duplicate element {x}")
                raise ValueError("elements must be strictly increasing")
            prev = x
        # strictly increasing, so the first element is the least
        if elems[0] < 0:
            raise ValueError("elements must be nonnegative")
        vars(self)["elements"] = elems

    @staticmethod
    def of(*elements: int) -> "IntegerSet":
        return IntegerSet.from_iterable(elements)

    @staticmethod
    def from_iterable(elements: Iterable[int]) -> "IntegerSet":
        """Build from any iterable; duplicates are rejected, order ignored."""
        return IntegerSet(sorted(elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        try:
            return _holds(self.elements, x)
        except TypeError:  # "7" or None, which no int orders against
            return False

    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]

    def normalize(self) -> "IntegerSet":
        """Translate so that min = 0; the diameter is unchanged."""
        lo = self.elements[0]
        if lo == 0:
            return self
        return IntegerSet(x - lo for x in self.elements)

    def translate(self, offset: int) -> "IntegerSet":
        return IntegerSet(x + offset for x in self.elements)

    def reduce_mod(self, modulus: int) -> "IntegerSet":
        """Fold elements mod modulus; rejects sets that are not injective mod it."""
        return IntegerSet.from_iterable(x % modulus for x in self.elements)

    def mask_polynomial(self) -> IntPolynomial:
        """The {0,1} polynomial with one term X^a per element a."""
        return IntPolynomial.from_terms({x: 1 for x in self.elements})


def json_fields(report) -> dict:
    """The JSON object of a report record; every report follows this rule.

    Keys are the fields in declaration order, and fields that are None are
    left out. Tuples become arrays (tuples nested in them too), an
    IntegerSet becomes the array of its elements and a Fraction its string
    "p/q"; other values pass through. Types are matched exactly, not by
    isinstance, to keep this cheap: corpus runs two reports per line.
    """
    d = {}
    for key, value in vars(report).items():
        if value is None:
            continue
        kind = type(value)
        if kind is tuple:
            value = [list(v) if type(v) is tuple else v for v in value]
        elif kind is IntegerSet:
            value = list(value.elements)
        elif kind is Fraction:
            value = str(value)
        d[key] = value
    return d


class TilingVerdict(Record):
    """Outcome of both tiling checks plus diagnostics.

    first_undercovered / first_overcovered are the smallest residues hit
    zero or more than one time by the direct route (None when covered
    exactly once everywhere), read as the lowest set bits of its folded
    uncovered and overlap masks; failing_divisor is the smallest divisor
    s > 1 of M such that Phi_s divides neither the tile's nor the
    complement's mask polynomial, i.e. does not divide their product.
    """

    def __init__(
        self,
        tiles: bool,
        direct_route: bool,
        cyclotomic_route: bool,
        first_undercovered: int | None = None,
        first_overcovered: int | None = None,
        failing_divisor: int | None = None,
    ):
        vars(self).update(
            tiles=tiles,
            direct_route=direct_route,
            cyclotomic_route=cyclotomic_route,
            first_undercovered=first_undercovered,
            first_overcovered=first_overcovered,
            failing_divisor=failing_divisor,
        )

    def __bool__(self) -> bool:
        return self.tiles


def is_tiling(tile: IntegerSet, complement: IntegerSet, modulus: int) -> TilingVerdict:
    """Check tile + complement = Z_modulus, every residue exactly once.

    Runs both the direct coverage route and the cyclotomic divisibility
    route and raises InconsistentRoutesError if they disagree (they are
    equivalent, so disagreement means a bug, never valid input behavior).
    Elements are folded mod modulus; translation does not change the result.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    direct, under, over = _direct_route(tile, complement, modulus)
    cyclo, bad_divisor = _cyclotomic_route(tile, complement, modulus)
    if direct != cyclo:
        raise InconsistentRoutesError(
            f"direct route says {direct} but cyclotomic route says {cyclo} "
            f"for |A|={len(tile)}, |B|={len(complement)}, M={modulus}"
        )
    return TilingVerdict(
        tiles=direct,
        direct_route=direct,
        cyclotomic_route=cyclo,
        first_undercovered=under,
        first_overcovered=over,
        failing_divisor=bad_divisor,
    )


def _residue_masks(elements, modulus):
    """Bitmasks of the residues of elements mod modulus: hit at least once,
    and hit more than once."""
    n = len(elements)
    if n >= 64:
        # dense: a row of one byte per integer from lo, the multiple of M at
        # or below the least element, at most 64 bytes per element. Against
        # the bit loop below, best and median of 7 in us (Python 3.11,
        # 2 CPUs): at 32 bytes per element the row wins, 26-27 vs 51-59 at
        # n = 256, M = 8192, and far from 0 it wins more, 221-295 vs
        # 1034-1150 at n = M = 4096 from 10^12; at 64 the two tie within
        # noise, 13-17 vs 13-19 at n = 64, M = 4096, and 45 vs 44-47 at
        # n = 128 over [0, 2M). Small sets skip the row arithmetic.
        lo = elements[0] - elements[0] % modulus
        size = elements[-1] + 1 - lo
        if size <= 64 * n:
            return _folded_row(elements, lo, size, modulus)
    once = bytearray((modulus + 7) >> 3)
    twice = bytearray(len(once))
    for x in elements:
        r = x % modulus
        i, bit = r >> 3, 1 << (r & 7)
        if once[i] & bit:
            twice[i] |= bit
        once[i] |= bit
    return int.from_bytes(once, "little"), int.from_bytes(twice, "little")


def _folded_row(elements, lo, size, modulus):
    """_residue_masks of sorted elements in [lo, lo + size), lo a multiple
    of modulus, read off one byte per integer of that row."""
    # indexing by the element itself took about 30 ns an element, against
    # 60 with x - lo and 80 with x % M (10^4 elements, Python 3.11)
    marks = bytearray(size)
    if lo:
        for x in elements:
            marks[x - lo] = 1
    else:
        for x in elements:
            marks[x] = 1
    # byte j::8 of the marks is bit j of each byte of the row
    once = 0
    for j in range(8):
        once |= int.from_bytes(marks[j::8], "little") << j
    # bit r + kM of the row is residue r. The elements are distinct, so a
    # residue is hit twice only where two M-bit chunks of the row overlap.
    # Fold the two halves of a window of M * 2^k bits onto each other down
    # to M bits: each level reads the row once, where peeling the chunks
    # one at a time would copy the rest of the row at every chunk.
    width, twice = modulus, 0
    while width < size:
        width <<= 1
    while width > modulus:
        width >>= 1
        low = (1 << width) - 1
        high = once >> width
        once &= low
        twice = (twice & low) | (twice >> width) | (once & high)
        once |= high
    return once, twice


def _lowest_bit(mask):
    return (mask & -mask).bit_length() - 1 if mask else None


def _direct_route(tile, complement, modulus):
    # shifts are not rotated: folding [0, 2M) once at the end measured
    # faster than masking each shift back into [0, M)
    small, large = sorted((tile.elements, complement.elements), key=len)
    base, base_twice = _residue_masks(large, modulus)
    if not base_twice and len(small) * len(large) == modulus:
        # |small| copies of |large| bits each (a repeated residue in large
        # would leave fewer): a popcount of M means no two copies share a
        # bit of [0, 2M), so with disjoint halves every residue is covered
        # exactly once; otherwise the loop below finds the diagnostics
        covered = 0
        for a in small:
            covered |= base << (a % modulus)
        if covered.bit_count() == modulus and not covered & (covered >> modulus):
            return True, None, None
    covered = over = 0
    for a in small:
        shift = a % modulus
        m = base << shift
        over |= covered & m
        covered |= m
        if base_twice:
            over |= base_twice << shift
    full = (1 << modulus) - 1
    low, high = covered & full, covered >> modulus
    under = _lowest_bit(~(low | high) & full)
    over = _lowest_bit((over & full) | (over >> modulus) | (low & high))
    return under is None and over is None, under, over


def _holds(sorted_elements, x):
    i = bisect_left(sorted_elements, x)
    return i < len(sorted_elements) and sorted_elements[i] == x


def _progression_factors(elements):
    """Peel progressions {0, d, ..., (k-1)d} off a sorted set, one at a time.

    Returns (rest_terms, factors): the mask of what is left, exponent -> 1,
    and the peeled (d, k) pairs, smallest step first, so that the set's
    mask polynomial is rest(X) * prod (X^(kd) - 1)/(X^d - 1). Each peel
    takes d as the first gap and is kept exactly when every maximal chain
    x, x + d, x + 2d, ... of the set has the same length k; the starts of
    the chains are what is left. A kept peel at least halves the set, so
    all rounds together cost about twice the first.

    For d = 1 the chains are runs, which are slices of the sorted list: the
    set peels exactly when k, the length of the first run (found by
    bisection, O(log |A|)), divides |A|, every block of k sorted elements
    spans k - 1, and each block starts more than one past the end of the
    one before, so that runs that touch are not merged. That is 2|A|/k
    subtractions, and the starts are every k-th element; no set is built.
    For d > 1 the length k of the least element's chain is found by one
    bisection per chain member, O(k log |A|), and the peel is rejected
    unless k divides |A| and the greatest element ends a maximal chain of
    length k (two more bisections). Every kept peel meets both, since its
    chains all have length k. A set that passes them builds the set of its
    elements and takes the chain starts, the x with x - d not in it, and the
    chain ends, the x with x + d not in it. It keeps the peel exactly when
    the ends, in order, are the starts plus (k - 1)d: the chains in one
    class mod d are disjoint and ordered, so the i-th end of a class ends
    the chain of its i-th start, and each chain has length k. Then there
    are |A|/k starts, so another count rejects before the ends are listed.
    No second set is built.
    """
    rest, factors = list(elements), []
    while len(rest) > 1:
        n, d = len(rest), rest[1] - rest[0]
        # one whole progression, peeled as the general peel below would. For
        # d = 1 the span decides, as n strictly increasing integers spanning
        # n - 1 are an interval; for d > 1 it does not ({0, 2, 3, 6}), and
        # the span test only keeps the range from outgrowing the set
        if rest[-1] - rest[0] == d * (n - 1) and (
            d == 1 or rest == list(range(rest[0], rest[-1] + 1, d))
        ):
            factors.append((d, n))
            rest = rest[:1]
            continue
        if d == 1:
            # rest[i] - i never decreases, and stays rest[0] along the first run
            k = bisect_right(range(n), rest[0], key=lambda i: rest[i] - i)
            if n % k:
                break
            starts, ends = rest[::k], rest[k - 1 :: k]
            # a block spans k - 1 only if it is a run, and starts one only
            # if a gap precedes it: the blocks of {0, 1, 3, 4, 5, 6} each
            # span 1, but 3, 4, 5, 6 is one run of four
            if max(map(sub, ends, starts)) != k - 1 or min(map(sub, starts[1:], ends)) < 2:
                break
            factors.append((1, k))
            rest = starts
            continue
        # the least element's chain: rest[0], rest[1] = rest[0] + d, ...
        k, i, x = 2, 1, rest[1] + d
        while (i := bisect_left(rest, x, i + 1)) < n and rest[i] == x:
            k, x = k + 1, x + d
        # the greatest element ends a chain; it must start at top, not before
        top = rest[-1] - (k - 1) * d
        if n % k or not _holds(rest, top) or _holds(rest, top - d):
            break
        # every chain has length k exactly when their ends, in order, are
        # their starts plus (k - 1)d; that implies n / k starts, so another
        # count rejects before the ends are listed
        members = set(rest)
        starts = [x for x in rest if x - d not in members]
        if len(starts) * k != n or [x + (k - 1) * d for x in starts] != [
            x for x in rest if x + d not in members
        ]:
            break
        factors.append((d, k))
        rest = starts
    return dict.fromkeys(rest, 1), factors


def _cyclotomic_route(tile, complement, modulus):
    if len(tile) * len(complement) != modulus:
        return False, None
    a_rest, a_factors = _progression_factors(tile.elements)
    b_rest, b_factors = _progression_factors(complement.elements)
    factors = a_factors + b_factors
    for s in divisors(modulus)[1:]:
        # Phi_s is irreducible, so it divides A(X)B(X) iff it divides one
        # factor, and (X^(kd) - 1)/(X^d - 1) iff s | kd and s does not
        # divide d. Every factor is read before the kernel runs: even on a
        # one-term rest, the kernel's cost grows with the largest prime of s.
        if not (
            any(k * d % s == 0 and d % s for d, k in factors)
            or cyclotomic_divides(s, a_rest)
            or cyclotomic_divides(s, b_rest)
        ):
            return False, s
    return True, None


def least_period(subset: IntegerSet, modulus: int) -> int:
    """Smallest d | modulus with (subset + d) mod modulus == subset."""
    if subset.elements[-1] >= modulus:
        raise ValueError("elements must lie in [0, modulus)")
    base = frozenset(subset.elements)
    for d in divisors(modulus):
        # the translate has |base| elements in [0, modulus), so inclusion
        # is equality
        if all((x + d) % modulus in base for x in base):
            return d
    raise AssertionError("unreachable: modulus itself is always a period")


class CyclicTiling(Record):
    """A verified factorization tile + complement = Z_modulus.

    Construction runs the full dual-route check and rejects anything that
    is not a tiling, so a CyclicTiling value is a certificate.
    """

    def __init__(self, tile: IntegerSet, complement: IntegerSet, modulus: int):
        vars(self).update(tile=tile, complement=complement, modulus=modulus)
        for part, name in ((self.tile, "tile"), (self.complement, "complement")):
            if part.elements[-1] >= self.modulus:
                raise ValueError(f"{name} elements must lie in [0, modulus)")
        if len(self.tile) * len(self.complement) != self.modulus:
            raise ValueError("|tile| * |complement| must equal the modulus")
        if not is_tiling(self.tile, self.complement, self.modulus):
            raise ValueError("not a tiling of Z_modulus")

    def to_json_dict(self) -> dict:
        return json_fields(self)

    @staticmethod
    def from_json_dict(d: dict) -> "CyclicTiling":
        return CyclicTiling(
            tile=IntegerSet(d["tile"]),
            complement=IntegerSet(d["complement"]),
            modulus=d["modulus"],
        )
