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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .faults import InvalidShiftError
from .polyring import factorize, is_prime
from .tilingset import IntegerSet, is_tiling, json_fields, least_period


@dataclass(frozen=True)
class Theorem2Params:
    """Parameters of the column-shift construction.

    target_beta and epsilon only feed the exponent report; the construction
    itself is determined by the primes and n.
    """

    p1: int
    p2: int
    p3: int
    n: int
    target_beta: Fraction | None = None
    epsilon: Fraction | None = None

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p3):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if not self.p1 < self.p2 < self.p3 < 2 * self.p1:
            raise ValueError("need p1 < p2 < p3 < 2*p1")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.target_beta is not None and not 0 < self.target_beta < Fraction(3, 2):
            raise ValueError("target_beta must lie in (0, 3/2)")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def modulus(self) -> int:
        return (self.p1 * self.p2 * self.p3) ** self.n

    @property
    def alpha(self) -> Fraction | None:
        """(3 - epsilon) * n / (2n + 1); approaches 3/2 as n grows."""
        if self.epsilon is None:
            return None
        return (3 - self.epsilon) * self.n / Fraction(2 * self.n + 1)


@dataclass(frozen=True)
class Theorem2Checks:
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


@dataclass(frozen=True)
class Theorem2Instance:
    """A generated and verified column-shift tiling."""

    params: Theorem2Params
    modulus: int
    tile: IntegerSet
    complement_base: IntegerSet
    complement: IntegerSet
    shift_a: int
    shift_b: int
    diam: int
    log_ratio: float
    checks: Theorem2Checks

    def to_json_dict(self) -> dict:
        d = {
            "params": json_fields(self.params),
            "M": self.modulus,
            "a": self.shift_a,
            "b": self.shift_b,
            "A": list(self.tile.elements),
            "B0": list(self.complement_base.elements),
            "B": list(self.complement.elements),
            "diam_A": self.diam,
            "log_ratio": self.log_ratio,
            "checks": json_fields(self.checks),
        }
        if self.params.alpha is not None:
            d["alpha"] = str(self.params.alpha)
        return d


def _progression(start: int, step: int, length: int) -> list[int]:
    return [start + k * step for k in range(length)]


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

    tile_elems = [0]
    for p in ps:
        step = modulus // p**n
        tile_elems = [x + j * step for x in tile_elems for j in range(p)]
    tile = IntegerSet.from_iterable(tile_elems)

    columns = [
        _progression(0, modulus // p ** (n - 1), p ** (n - 1)) for p in ps
    ]
    base_elems = [0]
    for column in columns:
        base_elems = [x + y for x in base_elems for y in column]
    # raw sums can exceed M; they are pairwise distinct mod M, so folding
    # keeps the cardinality (from_iterable would reject a collision)
    complement_base = IntegerSet.from_iterable(x % modulus for x in base_elems)

    shift_a = (params.p3 ** (n - 1) - 1) * modulus // params.p3 ** (n - 1)
    shift_b = (params.p2 ** (n - 1) - 1) * modulus // params.p2 ** (n - 1) + (
        params.p1 ** (n - 1) - 1
    ) * modulus // params.p1 ** (n - 1)

    counts = Counter(x % modulus for x in base_elems)
    for offset, p, column in zip((0, shift_a, shift_b), ps, columns):
        delta = modulus // p**n
        for y in column:
            counts[(offset + y + delta) % modulus] += 1
            counts[(offset + y) % modulus] -= 1
    bad = {e: c for e, c in counts.items() if c not in (0, 1)}
    if bad:
        sample = sorted(bad.items())[:3]
        raise InvalidShiftError(
            f"column shifts left coefficients outside {{0,1}} at {sample}"
        )
    complement = IntegerSet(sorted(e for e, c in counts.items() if c == 1))

    diam = tile.diameter()
    verdict_base = bool(is_tiling(tile, complement_base, modulus))
    verdict_shifted = bool(is_tiling(tile, complement, modulus))
    lp_shifted = least_period(complement, modulus)
    lp_base = least_period(complement_base, modulus)
    checks = Theorem2Checks(
        tiling_base=verdict_base,
        tiling_shifted=verdict_shifted,
        shifted_least_period=lp_shifted,
        shifted_period_is_modulus=lp_shifted == modulus,
        base_least_period=lp_base,
        base_period_proper=all((modulus // p) % lp_base == 0 for p in ps),
        prime_set_match=factorize(modulus).primes == factorize(len(tile)).primes,
        diam_within_bound=diam * params.p1 ** (n - 1) <= 3 * modulus,
    )
    return Theorem2Instance(
        params=params,
        modulus=modulus,
        tile=tile,
        complement_base=complement_base,
        complement=complement,
        shift_a=shift_a,
        shift_b=shift_b,
        diam=diam,
        log_ratio=math.log(modulus) / math.log(diam),
        checks=checks,
    )


@dataclass(frozen=True)
class ExponentReport:
    """How close an instance gets to the construction's exponent target."""

    diam: int
    diam_upper_bound: int
    diam_within_bound: bool
    exponent: float
    alpha: Fraction | None = None
    beta_below_alpha: bool | None = None
    prime_growth_ok: bool | None = None

    def to_json_dict(self) -> dict:
        return json_fields(self)


def theorem2_exponent_report(instance: Theorem2Instance) -> ExponentReport:
    """Diameter bound, achieved exponent, and the sufficient conditions.

    The achieved exponent is log(M) / log(diam). When target_beta and
    epsilon are supplied, also reports whether beta < alpha < 3/2 and
    whether (p1^epsilon / 2)^n > (3/2)^(3/2); the latter comparison is done
    on integers after clearing denominators, so it is exact.
    """
    params = instance.params
    bound = 3 * instance.modulus // params.p1 ** (params.n - 1)
    alpha = params.alpha
    beta_ok = None
    growth_ok = None
    if params.target_beta is not None and alpha is not None:
        beta_ok = params.target_beta < alpha < Fraction(3, 2)
    if params.epsilon is not None:
        # (p1^eps / 2)^n > (3/2)^(3/2)  <=>  p1^(2an) * 2^(3b) > 3^(3b) * 2^(2bn)
        # after raising both sides to the 2b-th power, eps = a/b.
        a, b = params.epsilon.numerator, params.epsilon.denominator
        n = params.n
        growth_ok = params.p1 ** (2 * a * n) * 2 ** (3 * b) > 3 ** (3 * b) * 2 ** (
            2 * b * n
        )
    return ExponentReport(
        diam=instance.diam,
        diam_upper_bound=bound,
        diam_within_bound=instance.checks.diam_within_bound,
        exponent=math.log(instance.modulus) / math.log(instance.diam),
        alpha=alpha,
        beta_below_alpha=beta_ok,
        prime_growth_ok=growth_ok,
    )


@dataclass(frozen=True)
class CounterexampleReport:
    """Numbers refuting diam >= (p-1)/p * lcm(S_A) for general sets."""

    p: int
    q: int
    modulus: int
    diam: int
    eq3_threshold: int
    eq3_holds: bool

    def to_json_dict(self) -> dict:
        return json_fields(self)


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
    elements = sorted(i * p + j * q for i in range(p) for j in range(q))
    tile = IntegerSet(elements)  # sums are pairwise distinct since q > p
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

    Each prime p with total exponent e contributes e digit scales
    p^(j-1) * N / p^e for j = 1..e, where N is the product of all the
    prime powers; the tile is the direct sum of {0..p-1} at every scale.
    Scales are assigned in increasing prime order, which fixes the output.
    The result tiles Z_N (it is a complete residue system mod N) and
    satisfies both spectrum conditions.
    """
    if not prime_power_spec:
        raise ValueError("spec must be nonempty")
    exponents: dict[int, int] = {}
    for p, a in prime_power_spec:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if a < 1:
            raise ValueError("exponents must be positive")
        exponents[p] = exponents.get(p, 0) + a
    total = math.prod(p**e for p, e in exponents.items())
    elems = [0]
    for p in sorted(exponents):
        e = exponents[p]
        for j in range(1, e + 1):
            step = p ** (j - 1) * total // p**e
            elems = [x + i * step for x in elems for i in range(p)]
    return IntegerSet.from_iterable(elems)
