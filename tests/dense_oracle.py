"""Dense long division: the tests' reference for the cyclotomic kernel.

The library decides Phi_s | f only by polyring.cyclotomic_divides, which
never divides. These functions build Phi_s and divide by it the schoolbook
way, so the kernel's verdicts can be checked against an independent route.

A polynomial is a tuple of integer coefficients, constant term first, with
no trailing zeros; () is the zero polynomial. Nothing is validated: the
callers are tests.
"""

from functools import cache


def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim(out)


def mul(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def exact_divide(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...] | None:
    """f / g when the monic g divides f, else None."""
    dg = len(g) - 1
    if not f:
        return ()
    if len(f) <= dg:
        return None
    rem = list(f)
    quo = [0] * (len(f) - dg)
    for i in reversed(range(len(quo))):
        c = rem[i + dg]
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return None if any(rem[:dg]) else tuple(quo)


@cache
def cyclotomic(s: int) -> tuple[int, ...]:
    """Phi_s for s >= 1: X^s - 1 divided by Phi_d for every proper divisor d."""
    f = (-1,) + (0,) * (s - 1) + (1,)
    for d in range(1, s):
        if s % d == 0:
            f = exact_divide(f, cyclotomic(d))
    return f
