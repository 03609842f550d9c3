"""Generators for explicit tilings: the long-period column-shift family
("theorem2" in the CLI), the diameter counterexample, and box tiles for
test corpora.

The column-shift family takes three primes p1 < p2 < p3 < 2*p1 and an
exponent n >= 2, sets M = (p1*p2*p3)^n, and tiles Z_M by a "discrete box"
A together with a lattice complement B0. Shifting one column of B0 in each
of the three directions yields a complement B whose least period is M
itself, while diam(A) stays near M^(2/3); this realizes tiling periods
around diam^beta for any beta < 3/2. Every generated instance is verified
numerically: both tilings, the least periods, and the diameter bound.

The exponent verdicts (the diameter bound, beta < alpha < 3/2 and the
prime-growth condition) depend only on the parameters, so they are
properties of Theorem2Params. Theorem2Instance stores only what it cannot
derive, and its to_json_dict is the whole `construct theorem2` payload,
exponent report included.

A and the box tiles are sums of arithmetic progressions, formed by `_sums`;
B0 is the subgroup of multiples of p1*p2*p3.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .faults import InvalidShiftError
from .polyring import JSON_CONVERTERS, Record, factorize, is_prime
from .tilingset import IntegerSet, is_tiling, least_period

# epsilon < 3 keeps alpha positive; with epsilon = a/b and b at most this, the
# exact comparison in Theorem2Params.prime_growth_ok takes powers below 6*b*n.
EPSILON_DENOMINATOR_LIMIT = 10**4

# a fraction is the JSON string "p/q" (see Record.to_json_dict)
JSON_CONVERTERS[Fraction] = str


class Theorem2Params(Record):
    """Parameters of the column-shift construction.

    target_beta and epsilon only feed the exponent verdicts; the construction
    itself is determined by the primes and n.
    """

    def __init__(
        self,
        p1: int,
        p2: int,
        p3: int,
        n: int,
        target_beta: Fraction | None = None,
        epsilon: Fraction | None = None,
    ):
        vars(self).update(p1=p1, p2=p2, p3=p3, n=n, target_beta=target_beta, epsilon=epsilon)
        # n first: a huge prime with a bad n is refused before trial division
        if self.n < 2:
            raise ValueError("need n >= 2")
        for p in (self.p1, self.p2, self.p3):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if not self.p1 < self.p2 < self.p3 < 2 * self.p1:
            raise ValueError("need p1 < p2 < p3 < 2*p1")
        if self.target_beta is not None and not 0 < self.target_beta < Fraction(3, 2):
            raise ValueError("target_beta must lie in (0, 3/2)")
        if self.epsilon is not None and not (
            0 < self.epsilon < 3 and self.epsilon.denominator <= EPSILON_DENOMINATOR_LIMIT
        ):
            raise ValueError(
                f"epsilon must lie in (0, 3), with denominator at most {EPSILON_DENOMINATOR_LIMIT}"
            )

    @property
    def modulus(self) -> int:
        return (self.p1 * self.p2 * self.p3) ** self.n

    @property
    def alpha(self) -> Fraction | None:
        """(3 - epsilon) * n / (2n + 1); approaches 3/2 as n grows."""
        if self.epsilon is None:
            return None
        return (3 - self.epsilon) * self.n / Fraction(2 * self.n + 1)

    @property
    def diam_upper_bound(self) -> int:
        """3M / p1^(n-1), rounded down: the tile's diameter is at most this."""
        return 3 * self.modulus // self.p1 ** (self.n - 1)

    @property
    def beta_below_alpha(self) -> bool | None:
        """Whether target_beta < alpha < 3/2, given both targets."""
        if self.target_beta is None or self.epsilon is None:
            return None
        return self.target_beta < self.alpha < Fraction(3, 2)

    @property
    def prime_growth_ok(self) -> bool | None:
        """Whether (p1^epsilon / 2)^n > (3/2)^(3/2), compared exactly on integers."""
        if self.epsilon is None:
            return None
        # (p1^eps / 2)^n > (3/2)^(3/2)  <=>  p1^(2an) * 2^(3b) > 3^(3b) * 2^(2bn)
        # after raising both sides to the 2b-th power, eps = a/b.
        a, b, n = self.epsilon.numerator, self.epsilon.denominator, self.n
        return self.p1 ** (2 * a * n) * 2 ** (3 * b) > 3 ** (3 * b) * 2 ** (2 * b * n)


class Theorem2Checks(Record):
    """Verdicts recorded while validating a generated instance."""

    tiling_base: bool
    tiling_shifted: bool
    shifted_least_period: int
    shifted_period_is_modulus: bool
    base_least_period: int
    base_period_proper: bool
    prime_set_match: bool
    diam_within_bound: bool

    def all_pass(self) -> bool:
        return (
            self.tiling_base
            and self.tiling_shifted
            and self.shifted_period_is_modulus
            and self.base_period_proper
            and self.prime_set_match
            and self.diam_within_bound
        )


class Theorem2Instance(Record):
    """A generated and verified column-shift tiling."""

    params: Theorem2Params
    tile: IntegerSet
    complement_base: IntegerSet
    complement: IntegerSet
    shift_a: int
    shift_b: int
    checks: Theorem2Checks

    @property
    def modulus(self) -> int:
        return self.params.modulus

    @property
    def diam(self) -> int:
        return self.tile.diameter()

    @property
    def log_ratio(self) -> float:
        """The achieved exponent log(M) / log(diam)."""
        return math.log(self.modulus) / math.log(self.diam)

    def to_json_dict(self) -> dict:
        params = self.params
        alpha = params.alpha
        d = {
            "params": params.to_json_dict(),
            "M": self.modulus,
            "a": self.shift_a,
            "b": self.shift_b,
            "A": list(self.tile.elements),
            "B0": list(self.complement_base.elements),
            "B": list(self.complement.elements),
            "diam_A": self.diam,
            "log_ratio": self.log_ratio,
            "checks": self.checks.to_json_dict(),
        }
        if alpha is not None:
            d["alpha"] = str(alpha)
        # how close the instance gets to the exponent target; None verdicts
        # are left out, as in every record
        report = {
            "diam": d["diam_A"],
            "diam_upper_bound": params.diam_upper_bound,
            "diam_within_bound": self.checks.diam_within_bound,
            "exponent": d["log_ratio"],
            "alpha": d.get("alpha"),
            "beta_below_alpha": params.beta_below_alpha,
            "prime_growth_ok": params.prime_growth_ok,
        }
        d["exponent_report"] = {k: v for k, v in report.items() if v is not None}
        return d


def _sums(progressions) -> list[int]:
    """Every sum of one term from each progression, in product order."""
    return [sum(t) for t in itertools.product(*progressions)]


def theorem2_generate(params: Theorem2Params) -> Theorem2Instance:
    """Build and verify one column-shift instance.

    The tile A is the box with p_i points at scale M/p_i^n in each of the
    three prime directions; B0 is the complementary lattice. B is B0 with
    one full column shifted by M/p_i^n in each direction i, the shifted
    columns being selected by the offsets 0, a, and b. All exponent
    arithmetic is mod M; if a shift ever produced a coefficient outside
    {0, 1} that would be a transcription error and raises InvalidShiftError.
    """
    ps = (params.p1, params.p2, params.p3)
    n = params.n
    modulus = params.modulus

    steps = [modulus // p**n for p in ps]
    tile = IntegerSet.from_iterable(_sums(range(0, p * s, s) for p, s in zip(ps, steps)))
    columns = [range(0, modulus, p * s) for p, s in zip(ps, steps)]
    # the columns generate the subgroup of multiples of p1*p2*p3
    complement_base = IntegerSet(range(0, modulus, params.p1 * params.p2 * params.p3))

    # the last term of each column is (p^(n-1) - 1) * M / p^(n-1)
    shift_a = columns[2][-1]
    shift_b = columns[1][-1] + columns[0][-1]

    counts = Counter(complement_base.elements)
    for offset, step, column in zip((0, shift_a, shift_b), steps, columns):
        for y in column:
            counts[(offset + y + step) % modulus] += 1
            counts[(offset + y) % modulus] -= 1
    bad = {e: c for e, c in counts.items() if c not in (0, 1)}
    if bad:
        sample = sorted(bad.items())[:3]
        raise InvalidShiftError(
            f"column shifts left coefficients outside {{0,1}} at {sample}"
        )
    complement = IntegerSet(sorted(e for e, c in counts.items() if c == 1))

    verdict_base = bool(is_tiling(tile, complement_base, modulus))
    verdict_shifted = bool(is_tiling(tile, complement, modulus))
    lp_shifted = least_period(complement, modulus)
    lp_base = least_period(complement_base, modulus)
    prime_sets = [[p for p, _ in factorize(x)] for x in (modulus, len(tile))]
    checks = Theorem2Checks(
        tiling_base=verdict_base,
        tiling_shifted=verdict_shifted,
        shifted_least_period=lp_shifted,
        shifted_period_is_modulus=lp_shifted == modulus,
        base_least_period=lp_base,
        base_period_proper=all((modulus // p) % lp_base == 0 for p in ps),
        prime_set_match=prime_sets[0] == prime_sets[1],
        diam_within_bound=tile.diameter() <= params.diam_upper_bound,
    )
    return Theorem2Instance(
        params=params,
        tile=tile,
        complement_base=complement_base,
        complement=complement,
        shift_a=shift_a,
        shift_b=shift_b,
        checks=checks,
    )


class CounterexampleReport(Record):
    """Numbers refuting diam >= (p-1)/p * lcm(S_A) for general sets."""

    p: int
    q: int
    modulus: int
    diam: int
    eq3_threshold: int
    eq3_holds: bool


def diameter_counterexample(p: int, q: int) -> tuple[IntegerSet, CounterexampleReport]:
    """The set {ip + jq : i < p, j < q} together with its diameter report.

    Its mask polynomial is the product of the cyclotomics at p^2 and q^2,
    so lcm of its spectrum is p^2 * q^2 while the diameter is only
    (p-1)p + (q-1)q; for p < q < 2p that falls far short of (p-1)/p times
    the lcm, refuting the general-set version of the inequality.
    """
    if not (is_prime(p) and is_prime(q)):
        raise ValueError("p and q must be prime")
    if not p < q < 2 * p:
        raise ValueError("need p < q < 2p")
    # the sums are pairwise distinct since q > p
    tile = IntegerSet(sorted(_sums([range(0, p * p, p), range(0, q * q, q)])))
    modulus = p * p * q * q
    diam = tile.diameter()
    threshold = (p - 1) * modulus // p
    report = CounterexampleReport(
        p=p,
        q=q,
        modulus=modulus,
        diam=diam,
        eq3_threshold=threshold,
        eq3_holds=diam >= threshold,
    )
    return tile, report


def standard_tile(prime_power_spec: list[tuple[int, int]]) -> IntegerSet:
    """A box tile realizing a complete residue system mod the product.

    N is the product of all the prime powers. Each prime p with total
    exponent e contributes the progression of multiples of N / p^e below N,
    and the tile is the sum of these progressions. The result tiles Z_N
    (it is a complete residue system mod N) and satisfies both spectrum
    conditions.
    """
    if not prime_power_spec:
        raise ValueError("spec must be nonempty")
    exponents: dict[int, int] = {}
    for p, a in prime_power_spec:
        # the exponent first: the primality test is trial division
        if a < 1:
            raise ValueError("exponents must be positive")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        exponents[p] = exponents.get(p, 0) + a
    total = math.prod(p**e for p, e in exponents.items())
    return IntegerSet.from_iterable(
        _sums(range(0, total, total // p**e) for p, e in exponents.items())
    )
