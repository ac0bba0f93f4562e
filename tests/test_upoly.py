"""Univariate polynomial kernels over Z.

Oracles: sympy's `div` and `gcd` over Z[x] on seeded random polynomials,
and hand-written edge cases for the zero polynomial.
"""

import random

import sympy

from lelongplane.upoly import divide, int_gcd, primitive, trim

X = sympy.Symbol("x")


def to_poly(a):
    return sympy.Poly(list(reversed(a)), X, domain="ZZ")


def from_poly(f):
    return trim(int(c) for c in reversed(f.all_coeffs()))


def random_poly(rng, degree, span):
    return [rng.randint(-span, span) for _ in range(degree)] + [
        rng.choice((-1, 1)) * rng.randint(1, span)]


def multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_trim_returns_the_zero_polynomial_for_all_zeros():
    assert trim([0, 0]) == []
    assert trim([]) == []
    assert trim([3, 0, 1, 0, 0]) == [3, 0, 1]
    assert divide([], [1, 2]) == []
    assert divide([5], [1, 2]) is None


def test_divide_matches_sympy_div():
    """a / b in Z[x] exactly when sympy's remainder is 0 and its quotient
    has integer coefficients: on products b * c, with and without content
    in b, and on products plus a nonzero remainder."""
    rng = random.Random(26)
    seen = set()
    for case in range(150):
        b = random_poly(rng, rng.randint(0, 4), 9)
        if case % 3 == 0:
            b = [2 * x for x in b]  # content: an odd quotient is not in Z[x]
        a = multiply(b, random_poly(rng, rng.randint(0, 5), 9))
        if case % 5 == 4 and len(b) > 1:  # add a remainder below deg b
            r = random_poly(rng, len(b) - 2, 9)
            a = [x + y for x, y in zip(a, r + [0] * (len(a) - len(r)))]
        if case % 7 == 6:
            a = [3 * x for x in a]
        quo, rem = sympy.div(to_poly(a), to_poly(b))
        exact = rem.is_zero and all(c.is_integer for c in quo.all_coeffs())
        got = divide(a, b)
        assert (got is not None) == exact, (a, b)
        if exact:
            assert got == from_poly(quo)
        seen.add(exact)
    assert seen == {True, False}


def test_int_gcd_matches_sympy_gcd():
    """int_gcd is sympy's gcd over Z[x] made primitive with a positive
    leading coefficient, on pairs with a random common factor."""
    rng = random.Random(62)
    degrees = set()
    for _ in range(100):
        common = random_poly(rng, rng.randint(0, 3), 12)
        a = multiply(common, random_poly(rng, rng.randint(0, 4), 12))
        b = multiply(common, random_poly(rng, rng.randint(0, 4), 12))
        want = sympy.gcd(to_poly(a), to_poly(b)).primitive()[1]
        want = primitive(from_poly(want))
        got = int_gcd(a, b)
        assert got == want, (a, b)
        assert got[-1] > 0
        degrees.add(len(got) - 1)
    assert len(degrees) >= 4
