"""Univariate polynomials over Z and F_p, with no sympy: coefficient lists
indexed by the power, with a nonzero last entry; [] is the zero polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import clear_denominators


def trim(a) -> list:
    """The coefficients a without their trailing zeros; [] when all are 0."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def int_poly(coeffs) -> list[int]:
    """Rational coefficients (ints or Fractions), indexed by the power, as
    the primitive integer polynomial with a positive leading coefficient."""
    coeffs = trim(coeffs)
    if not coeffs:
        return []
    return primitive(clear_denominators(coeffs)[1])


def primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [x // g for x in a] if a[-1] > 0 else [-x // g for x in a]


def int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd, with positive leading coefficient, of two nonzero
    integer polynomials, by the primitive remainder sequence (Knuth, TAOCP
    vol. 2, 4.6.1): Euclid over Q, kept in Z by pseudo-division and
    content removal."""
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        while len(a) >= len(b):  # a becomes a nonzero multiple of a mod b
            c, shift = a[-1], len(a) - len(b)
            a = [b[-1] * x for x in a]
            for i, x in enumerate(b):
                a[shift + i] -= c * x
            a = trim(a)
        if not a:
            return b
        a, b = b, primitive(a)
    return [1]


def divide(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[x] for nonzero b, or None when b does not divide a there.

    Long division stops at the first leading coefficient that b's does not
    divide. For a primitive b, dividing in Z[x] and in Q[x] agree (Gauss).
    """
    a = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c, rem = divmod(a[k + len(b) - 1], b[-1])
        if rem:
            return None
        quo[k] = c
        for i, x in enumerate(b):
            a[k + i] -= c * x
    return None if any(a) else quo


def eval_mod(f: list[int], x: int, mod: int) -> int:
    val = 0
    for c in reversed(f):
        val = (val * x + c) % mod
    return val


def primes():
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def gcd_degree_mod(a: list[int], b: list[int], prime: int) -> int:
    """Degree of gcd(a, b) over F_p for polynomials with entries in
    [0, prime), both with nonzero last entry."""
    while b:
        inv = pow(b[-1], -1, prime)
        a = list(a)
        while len(a) >= len(b):
            c = a[-1] * inv % prime
            shift = len(a) - len(b)
            for i, x in enumerate(b):
                a[shift + i] = (a[shift + i] - c * x) % prime
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def rational_roots(f: list[int]) -> list[Fraction]:
    """The distinct rational roots of a nonzero integer polynomial.

    The square-free part g = f / gcd(f, f') keeps every root once. Take the
    first prime p that does not divide the leading coefficient l of g and
    keeps g square-free mod p; every root of g mod p is then simple, and
    Newton's iteration lifts it to a root mod p^k. A rational root a/b of
    g has b | l (Gauss), and y = l * a/b is an integer with
    |y| <= l + max |g_i| (Cauchy's bound), so once p^k exceeds twice that
    the symmetric residue of l times the lifted root is y. Each candidate
    y/l is accepted only when l^n g(y/l) is exactly 0.
    """
    if len(f) < 2:
        return []
    g = divide(f, int_gcd(f, [i * c for i, c in enumerate(f)][1:]))
    lead = g[-1]
    dg = [i * c for i, c in enumerate(g)][1:]
    for p in primes():
        if lead % p == 0:
            continue
        dmod = trim(c % p for c in dg)
        if dmod and gcd_degree_mod([c % p for c in g], dmod, p) == 0:
            break
    bound = 2 * (abs(lead) + max(abs(c) for c in g))
    roots = []
    for start in range(p):
        if eval_mod(g, start, p):
            continue
        r, mod = start, p
        while mod <= bound:
            mod *= mod
            r = (r - eval_mod(g, r, mod)
                 * pow(eval_mod(dg, r, mod), -1, mod)) % mod
        y = lead * r % mod
        if y > mod // 2:
            y -= mod
        val, power = 0, 1
        for c in reversed(g):  # l^n g(y/l) by Horner
            val = val * y + c * power
            power *= lead
        if val == 0:
            roots.append(Fraction(y, lead))
    return roots
