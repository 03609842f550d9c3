"""Records, integer factoring, and the one exact cyclotomic test.

Everything here is exact arithmetic on Python ints. Record is the base of
every value class: a record declares its fields once, as class annotations,
and unless it writes its own __init__, Record compiles one from them when
the class is defined. factorize returns a number's (prime, exponent) pairs as
a plain tuple, which divisors and euler_phi read. cyclotomic_divides, the
library's one test for Phi_s | f, works on sparse exponent maps, so it
stays usable for sets with diameters in the hundreds of thousands: the
group rule of _vanishes peels one whole prime power p^k of s per level,
and at a prime power it settles the test by counting terms. IntPolynomial,
a dense coefficient tuple, is only the record that
IntegerSet.mask_polynomial returns and mul_mod_cyclic takes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

# exact type -> its JSON value in Record.to_json_dict; the module that owns a
# type adds it (tilingset IntegerSet, constructions Fraction)
JSON_CONVERTERS: dict = {}


class Record:
    """Base of the immutable value classes: named fields, compared by value.

    A subclass that writes no __init__ declares its fields once, as class
    annotations in order, a class value being the field's default. When the
    class is defined, Record compiles its __init__(self, field, ...), whose
    body stores the fields with vars(self).update, as collections.namedtuple
    builds __new__: the defaults move into the signature and out of the
    class, and a required field after a defaulted one is a SyntaxError then,
    as in a def. The annotations are read as names only. A subclass that
    normalizes or checks its input writes its own __init__, which stores the
    fields with vars(self) in declaration order. Records of one class are
    equal when their fields are, the hash is that of the field tuple, and
    the repr is Name(field=value, ...). Assigning or deleting an attribute
    raises AttributeError. Pickle and copy restore the fields into vars().

    to_json_dict is the JSON object of every report: keys are the fields in
    declaration order, and fields that are None are left out. Tuples become
    arrays (tuples nested in them too), a value whose exact type is in
    JSON_CONVERTERS becomes what its converter returns, and any other value
    passes through, so an unexpected type still fails in json.dumps. Types
    are matched exactly, not by isinstance, to keep this cheap: corpus runs
    two reports per line.
    """

    def __init_subclass__(cls):
        own = vars(cls)
        if "__init__" in own:
            return
        fields = own.get("__annotations__", {})
        # a default is a global of the compiled code, under its field's name;
        # the def sits in a class of the record's name for its __qualname__
        defaults = {name: own[name] for name in fields if name in own}
        params = ", ".join(f"{name}={name}" if name in defaults else name for name in fields)
        stores = ", ".join(f"{name}={name}" for name in fields)
        namespace = {"__name__": cls.__module__, **defaults}
        exec(f"class {cls.__name__}:\n def __init__(self, {params}):\n"
             f"  vars(self).update({stores})", namespace)
        cls.__init__ = vars(namespace[cls.__name__])["__init__"]
        for name in defaults:
            delattr(cls, name)

    # __dict__ rather than vars(), which is a builtin call: about 100 ns
    # less for each comparison or hash (Python 3.11)
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def to_json_dict(self) -> dict:
        d = {}
        for key, value in self.__dict__.items():
            if value is None:
                continue
            kind = type(value)
            if kind is tuple:
                value = [list(v) if type(v) is tuple else v for v in value]
            elif kind in JSON_CONVERTERS:
                value = JSON_CONVERTERS[kind](value)
            d[key] = value
        return d


class IntPolynomial(Record):
    """Integer polynomial as a dense coefficient tuple.

    ``coeffs[i]`` is the coefficient of X^i. Trailing zeros are stripped on
    construction, so the zero polynomial has the empty tuple.
    """

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        vars(self)["coeffs"] = tuple(cs)

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "IntPolynomial":
        if not terms:
            return IntPolynomial()
        n = max(terms) + 1
        cs = [0] * n
        for e, c in terms.items():
            if e < 0:
                raise ValueError("exponent must be nonnegative")
            cs[e] += c
        return IntPolynomial(cs)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return ((e, c) for e, c in enumerate(self.coeffs) if c)


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be at least 2")
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1 by trial division, ascending.

    factorize(1) is empty. Each prime is found by one trial-division pass,
    so it needs no test of its own.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pairs = []
    while n > 1:
        p = smallest_prime_factor(n)
        e = 0
        while n % p == 0:
            e += 1
            n //= p
        pairs.append((p, e))
    return tuple(pairs)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(s: int) -> int:
    """Euler totient of s >= 1."""
    if s < 1:
        raise ValueError("s must be positive")
    v = s
    for p, _ in factorize(s):
        v -= v // p
    return v


def mul_mod_cyclic(f: IntPolynomial, g: IntPolynomial, modulus: int) -> IntPolynomial:
    """f*g with exponents folded modulo `modulus` (i.e. reduced mod X^M - 1)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    out = [0] * modulus
    g_terms = list(g.terms())
    for i, a in f.terms():
        for j, b in g_terms:
            out[(i + j) % modulus] += a * b
    return IntPolynomial(out)


def cyclotomic_divides(s: int, f: Mapping[int, int]) -> bool:
    """Whether the s-th cyclotomic polynomial divides f, exactly.

    f is a sparse polynomial, a mapping exponent -> coefficient; a set's
    mask is ``dict.fromkeys(elements, 1)`` and an IntPolynomial's is
    ``dict(poly.terms())``.

    Equivalent to f vanishing at a primitive s-th root of unity. Instead of
    long division, f is reduced mod X^s - 1, its zero sums dropped, and
    then tested by the group rule of _vanishes, one whole prime power of s
    at a time; the only arithmetic is integer addition, so the test is
    exact and fast even when s is large and f is sparse.
    """
    if s < 1:
        raise ValueError("s must be positive")
    agg: dict[int, int] = {}
    for e, c in f.items():
        r = e % s
        agg[r] = agg.get(r, 0) + c
    return _vanishes({e: c for e, c in agg.items() if c}, s)


def _vanishes(terms: dict[int, int], s: int) -> bool:
    """Whether the sum of c * zeta^a over terms is 0, zeta a primitive s-th root.

    terms maps exponents in [0, s) to nonzero coefficients. Write
    s = q * m with q = p^k, p the smallest prime of s, and P = q / p. Then
    zeta^a = omega^(a mod q) * eta^(a mod m) for roots omega of order q and
    eta of order m. Over K = Q(eta) the minimal polynomial of omega is
    Phi_q(X) = Phi_p(X^P), of degree (p - 1) P, so omega^r for r < (p - 1) P
    is a basis of K(omega) over K, and the only relations among the q
    powers of omega are omega^r0 * (1 + omega^P + ... + omega^((p-1)P)) = 0,
    one for each r0 < P. So the terms vanish exactly when, for each r0, the
    p classes a mod q = r0 + j P, j < p, are equal in K. A class with no
    term is zero, and p may be far larger than the number of terms, so only
    the classes that receive a term are built, grouped by r0. When all p
    classes of a group are present, one of them is the group's reference;
    otherwise the reference is zero. The terms vanish exactly when every
    other present class minus its reference vanishes at eta, a test at
    order m; equal differences are tested once.
    When s = q is a prime power, K = Q and the classes are single
    coefficients: the terms vanish exactly when each residue class mod P
    holds p terms with one coefficient. A class has only p places in
    [0, s), so that is decided by counting, with no list per class: reject
    unless p divides the number of terms, reject at the first term whose
    coefficient differs from its class's first, and accept exactly when the
    classes times p make the number of terms. The recursion peels one prime
    per level, so its depth is the number of distinct primes of s.
    """
    if not terms:
        return True
    if s == 1:
        return sum(terms.values()) == 0
    p = smallest_prime_factor(s)
    # p^(bit length of s) exceeds s, so the gcd is the whole p-part of s,
    # in one step rather than one trial division per factor p
    q = math.gcd(s, p ** s.bit_length())
    step, m = q // p, s // q  # P and m above
    if m == 1:
        if len(terms) % p:
            return False
        first: dict[int, int] = {}
        for a, c in terms.items():
            if first.setdefault(a % step, c) != c:
                return False
        return len(first) * p == len(terms)
    classes: dict[int, dict[int, int]] = {}
    for a, c in terms.items():
        d = classes.get(a % q)
        if d is None:
            d = classes[a % q] = {}
        e = a % m
        d[e] = d.get(e, 0) + c
    groups: dict[int, list[dict[int, int]]] = {}
    for r, d in classes.items():
        groups.setdefault(r % step, []).append(d)
    seen = set()
    for group in groups.values():
        ref = group.pop() if len(group) == p else {}
        for d in group:
            for e, c in ref.items():
                d[e] = d.get(e, 0) - c
            reduced = {e: c for e, c in d.items() if c}
            key = frozenset(reduced.items())
            if key in seen:
                continue
            seen.add(key)
            if not _vanishes(reduced, m):
                return False
    return True
