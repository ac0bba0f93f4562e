"""Exact polynomial and projective point arithmetic.

Oracles: hand-computed values on tiny polynomials, algebraic identities
(Euler, distributivity, translation) on seeded random inputs, and sympy as
an independent cross-check for division, gcd and coprimality.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from lelongplane import config, curves, exactpoly
from lelongplane.construct import construct_certificate
from lelongplane.curves import coprime
from lelongplane.errors import ParseError, PreconditionError
from lelongplane.config import PointSet
from lelongplane.exactpoly import (HomPoly, ProjPoint, divides, evaluate,
                                   exact_divide, fraction_from_str,
                                   fraction_to_str, gcd_homogeneous,
                                   int_expansion, join, monomial_count,
                                   monomials, order_and_cone,
                                   partial_derivatives, vanishing_order)
from lelongplane.instances import INSTANCE_KINDS, generate
from lelongplane.linalg import nullspace

from expr_reference import (from_sympy, reference_affine, reference_chart,
                            reference_evaluate, reference_gcd_homogeneous,
                            reference_int_coords, reference_point_coords,
                            to_sympy)


def random_poly(rng, degree, span=9):
    terms = {m: Fraction(rng.randint(-span, span)) for m in monomials(degree)}
    p = HomPoly(degree, terms)
    if p.is_zero:
        return HomPoly.monomial((degree, 0, 0))
    return p


def test_fraction_round_trip():
    for q in (Fraction(0), Fraction(3), Fraction(-7, 12), Fraction(22, 11)):
        assert fraction_from_str(fraction_to_str(q)) == q
    assert fraction_to_str(Fraction(5, 1)) == "5"


def test_fraction_from_str_refuses_exponent_notation():
    """"1e10000000" took seconds to read; "num/den", decimals and JSON
    numbers read as before."""
    for s in ("1e3", "2E-1", "1.5e0", "1e10000000"):
        with pytest.raises(ParseError, match="exponent notation"):
            fraction_from_str(s)
    assert fraction_from_str("-3/4") == Fraction(-3, 4)
    assert fraction_from_str("1.25") == Fraction(5, 4)
    assert fraction_from_str(1e3) == 1000


def test_monomials_grlex_order():
    # degree 2 in grlex with X > Y > Z, oracle written out by hand
    assert monomials(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                            (0, 2, 0), (0, 1, 1), (0, 0, 2))
    for d in range(7):
        assert len(monomials(d)) == monomial_count(d)


def test_projpoint_normalization():
    p = ProjPoint(Fraction(2), Fraction(4), Fraction(2))
    assert p.coords == (Fraction(1), Fraction(2), Fraction(1))
    q = ProjPoint(Fraction(3), Fraction(-6), Fraction(0))
    # last nonzero coordinate becomes 1
    assert q.coords == (Fraction(-1, 2), Fraction(1), Fraction(0))
    assert p == ProjPoint(Fraction(1), Fraction(2), Fraction(1))
    assert hash(p) == hash(ProjPoint(Fraction(-2), Fraction(-4), Fraction(-2)))


def test_projpoint_chart_is_largest_coordinate():
    p = ProjPoint(Fraction(5), Fraction(1), Fraction(1))
    assert p.chart() == 0
    assert ProjPoint(Fraction(0), Fraction(0), Fraction(1)).chart() == 2


def test_zero_point_rejected():
    with pytest.raises(PreconditionError):
        ProjPoint(Fraction(0), Fraction(0), Fraction(0))


def reference_triples():
    """Seeded triples that mix ints and Fractions: zero coordinates,
    points on Z = 0, negative entries, 100-bit denominators, and scaled
    duplicates of earlier triples, by positive and negative factors."""
    rng = random.Random(35)
    big = 2 ** 100

    def entry():
        return rng.choice([
            0, rng.randint(-9, 9),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-big, big), rng.randint(big // 2, big)),
            Fraction(rng.randint(-9, 9), big + rng.randint(0, 9))])

    triples = [(1, 2, 3), (2, 4, 6), (-1, -2, -3), (Fraction(1, 2), 1,
                                                    Fraction(3, 2)),
               (1, 0, 0), (-3, 0, 0), (0, -5, 0), (2, -7, 0), (0, 0, -4),
               (Fraction(-1, 3), Fraction(2, 3), 0)]
    while len(triples) < 240:
        t = tuple(entry() for _ in range(3))
        if not any(t):
            continue
        triples.append(t)
        if rng.random() < 0.3:
            k = Fraction(rng.choice([-1, 1]) * rng.randint(1, big),
                         rng.randint(1, 99))
            triples.append(tuple(x * k for x in t))
    return triples


def test_the_integer_store_matches_the_fraction_store():
    """The primitive triple against the former Fraction store (oracle in
    `expr_reference`): the same canonical coordinates, chart, affine
    coordinates, values and shift denominators, the integers `config`
    cleared from them, and `==` and `hash` exactly as equality of the
    canonical coordinates."""
    triples = reference_triples()
    points = [ProjPoint(*t) for t in triples]
    refs = [reference_point_coords(*t) for t in triples]
    forms = [HomPoly.from_coeff_vector(2, [3, 0, -6, 9, 12, 0]),
             HomPoly(3, {(3, 0, 0): Fraction(1, 7), (0, 1, 2): -2,
                         (1, 1, 1): Fraction(5, 3), (0, 0, 3): 4})]
    for x, ref in zip(points, refs):
        assert x.coords == ref
        assert x.ints == reference_int_coords(ref)
        assert x.chart() == reference_chart(ref)
        for chart in (i for i in range(3) if ref[i]):
            assert x.affine(chart) == reference_affine(ref, chart)
        a, b = reference_affine(ref, x.chart())
        for f in forms:
            assert evaluate(f, x) == reference_evaluate(f, ref)
            top1, top2 = (max(e[i] for e in f.ints)
                          for i in range(3) if i != x.chart())
            assert exactpoly._shift_tables(f, x)[4] == \
                f.den * a.denominator ** top1 * b.denominator ** top2
    same = 0
    for (x, rx), (y, ry) in itertools.product(zip(points, refs), repeat=2):
        assert (x == y) == (rx == ry)
        if rx == ry:
            same += 1
            assert hash(x) == hash(y)
    assert same > len(points) + 100  # the scaled duplicates are there
    for (x, rx), (y, ry) in zip(zip(points, refs), zip(points[1:], refs[1:])):
        assert join(x, y) == HomPoly.line(*exactpoly._cross(rx, ry))
    for (x, rx), (y, ry) in itertools.combinations(zip(points, refs), 2):
        if rx == ry:
            with pytest.raises(PreconditionError, match="distinct"):
                PointSet((ProjPoint(5, 5, 1), x, y))
    with pytest.raises(PreconditionError, match="distinct"):
        PointSet(tuple(ProjPoint(*t) for t in [(1, 2, 3), (2, 4, 6)]))


def test_points_from_integers_make_no_fraction(monkeypatch):
    """From int coordinates, a point, its equality, hash and chart, its
    condition rows, the bracket table and the tangent cones of forms at it
    build no Fraction in `exactpoly` or `config`."""
    made = count_fractions(monkeypatch, exactpoly, config)
    a, b, c, d = (ProjPoint(*t) for t in [(1, 2, 3), (2, 4, 6),
                                          (-2, -4, -6), (4, 1, 9)])
    assert a == b == c != d and len({a, b, c, d}) == 2
    pts = [ProjPoint(*t) for t in [(1, 2, 3), (-4, 0, 0), (0, 5, -2),
                                   (7, -3, 0), (1, 1, 1), (1, 3, 5)]]
    charts = [x.chart() for x in pts]
    rows = [config.condition_rows(3, x, m) for x in pts for m in (1, 2, 5)]
    groups = config._brackets([x.ints for x in pts])[1]
    cubic = HomPoly.from_coeff_vector(3, [0, 1, 0, -2, 0, 5, 0, 1, 0, -1])
    forms = [cubic, cubic * HomPoly.line(1, -1, 0)]
    cones = [order_and_cone(f, x) for f in forms for x in pts]
    assert made == []
    assert charts == [2, 0, 1, 0, 2, 2]
    assert [x.ints for x in pts[1:4]] == [(1, 0, 0), (0, -5, 2), (-7, 3, 0)]
    assert [len(r) for r in rows[:3]] == [1, 3, 10]
    assert (0, 4, 5) in groups
    assert [m == 0 for m, _ in cones] == [evaluate(f, x) != 0
                                          for f in forms for x in pts]
    assert cones[len(pts) + 4][0] >= 1  # (1:1:1) lies on X = Y


def test_degree_mismatch_rejected():
    with pytest.raises(PreconditionError):
        HomPoly(2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(PreconditionError):
        HomPoly.line(1, 2, 3) + HomPoly.monomial((2, 0, 0))


def test_ring_identities_random():
    rng = random.Random(20240)
    for _ in range(25):
        d = rng.randint(1, 4)
        f, g, h = (random_poly(rng, d) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f - f == HomPoly.zero(d)
        w = random_poly(rng, rng.randint(1, 3))
        assert w * (f + g) == w * f + w * g
        assert (w * f).degree == w.degree + d


def test_evaluate_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        f = random_poly(rng, rng.randint(1, 3))
        g = random_poly(rng, rng.randint(1, 3))
        x = ProjPoint(Fraction(rng.randint(-9, 9)),
                      Fraction(rng.randint(-9, 9)), Fraction(1))
        assert evaluate(f * g, x) == evaluate(f, x) * evaluate(g, x)


def test_evaluate_coords_matches_fraction_powers():
    """The integer evaluation equals the term-by-term Fraction sum, at
    rational, integer and unnormalized coordinates, with large
    denominators, and returns a Fraction."""
    rng = random.Random(8)
    cases = [(HomPoly.zero(3), (1, 2, 3)), (HomPoly.zero(0), (Fraction(1, 2),
                                                          0, 1))]
    for _ in range(200):
        d = rng.randint(0, 7)
        f = random_big_poly(rng, d, rng.choice((1, 8, 120)))
        coords = [Fraction(rng.randint(-10 ** 9, 10 ** 9),
                           rng.randint(1, 10 ** rng.randint(0, 12)))
                  for _ in range(3)]
        if rng.random() < 0.25:
            coords = [rng.randint(-7, 7) for _ in range(3)]
        cases.append((f, coords))
    for f, coords in cases:
        want = Fraction(0)
        for (i, j, k), c in f.terms.items():
            want += c * Fraction(coords[0]) ** i * Fraction(coords[1]) ** j \
                * Fraction(coords[2]) ** k
        got = f.evaluate_coords(*coords)
        assert type(got) is Fraction and got == want


def test_euler_identity_random():
    # X*fX + Y*fY + Z*fZ = deg(f) * f for homogeneous f
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randint(1, 6)
        f = random_poly(rng, d)
        fx, fy, fz = partial_derivatives(f)
        lhs = (HomPoly.monomial((1, 0, 0)) * fx
               + HomPoly.monomial((0, 1, 0)) * fy
               + HomPoly.monomial((0, 0, 1)) * fz)
        assert lhs == d * f


def test_coeff_vector_round_trip():
    rng = random.Random(3)
    for d in range(1, 6):
        f = random_poly(rng, d)
        assert HomPoly.from_coeff_vector(d, f.coeff_vector()) == f


def test_local_expansion_matches_translated_values():
    # the expansion at x evaluated at an offset equals the polynomial
    # evaluated at the translated point
    rng = random.Random(41)
    for _ in range(15):
        f = random_poly(rng, rng.randint(1, 4))
        x = ProjPoint(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                      Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                      Fraction(1))
        chart, local = f.local_expansion(x)
        du, dv = Fraction(1, 7), Fraction(-2, 5)
        got = sum(c * du ** i * dv ** j for (i, j), c in local.items())
        a, b = x.affine(chart)
        coords = [None, None, None]
        coords[chart] = Fraction(1)
        rest = [i for i in range(3) if i != chart]
        coords[rest[0]] = a + du
        coords[rest[1]] = b + dv
        assert got == f.evaluate_coords(*coords)


def naive_local_expansion(f, x, chart):
    """Reference: the Fraction-by-Fraction Taylor shift, one multiply per
    binomial term, keys in order of first contribution."""
    a, b = x.affine(chart)
    others = [i for i in range(3) if i != chart]
    out = {}
    for exps, coeff in f.terms.items():
        e1, e2 = exps[others[0]], exps[others[1]]
        for i in range(e1 + 1):
            ca = coeff * math.comb(e1, i) * a ** (e1 - i)
            for j in range(e2 + 1):
                val = ca * math.comb(e2, j) * b ** (e2 - j)
                out[(i, j)] = out.get((i, j), Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def test_local_expansion_matches_naive_shift():
    rng = random.Random(2718)
    big = 10 ** 12 + 39
    points = [
        ProjPoint(Fraction(big, 7), Fraction(-3, 11), Fraction(5, 13)),
        ProjPoint(Fraction(2, 9), Fraction(-big, 17), Fraction(1, 3)),
        ProjPoint(Fraction(1, 5), Fraction(7, 3), Fraction(-big, 19)),
        ProjPoint(Fraction(0), Fraction(0), Fraction(1)),
        ProjPoint(Fraction(-4, 3), Fraction(0), Fraction(0)),
    ]
    assert {x.chart() for x in points} == {0, 1, 2}
    forms = [HomPoly.zero(3), HomPoly.monomial((0, 1, 1), Fraction(-5, 3)),
             HomPoly.monomial((4, 0, 0), big), HomPoly(0, {(0, 0, 0): 7})]
    for d in range(7):
        forms.append(random_poly(rng, d))
        terms = {m: Fraction(rng.randint(-big, big), rng.randint(1, 10 ** 6))
                 for m in rng.sample(monomials(d), rng.randint(1, d + 1))}
        forms.append(HomPoly(d, terms))
    for f in forms:
        for x in points:
            got_chart, got = f.local_expansion(x)
            want = naive_local_expansion(f, x, x.chart())
            assert got_chart == x.chart()
            assert got == want
            assert list(got) == list(want)


def test_vanishing_order_oracles():
    origin = ProjPoint(Fraction(0), Fraction(0), Fraction(1))
    # Y^2*Z - X^3 has an order-2 cusp at the origin of the Z chart
    cusp = (HomPoly.monomial((0, 2, 1)) - HomPoly.monomial((3, 0, 0)))
    assert vanishing_order(cusp, origin) == 2
    # a smooth point has order 1, a missed point order 0
    line = HomPoly.line(1, 1, 1)
    assert vanishing_order(line, origin) == 0
    assert vanishing_order(line, ProjPoint(Fraction(1), Fraction(-2),
                                           Fraction(1))) == 1
    assert vanishing_order(HomPoly.zero(2), origin) == math.inf


def test_vanishing_order_of_power():
    x = ProjPoint(Fraction(2), Fraction(3), Fraction(1))
    line = HomPoly.line(1, 0, -2)  # X - 2Z through x
    cube = line * line * line
    assert vanishing_order(cube, x) == 3


def assert_order_and_cone_match_expansion(f, x):
    """order_and_cone(f, x) gives the least total degree of the full
    expansion at x, and its lowest-degree part as den times the
    coefficients: exactly the integer jet of int_expansion there."""
    order, cone = order_and_cone(f, x)
    jet = int_expansion(f, x)[2]
    assert order == min(i + j for i, j in jet) == vanishing_order(f, x)
    assert all(isinstance(c, int) for c in cone)
    assert cone == [jet.get((i, order - i), 0) for i in range(order + 1)]


def test_order_and_cone_of_forced_order():
    """f = (k lines through x) * g + (k + 1 lines through x) * h with
    g(x) != 0 has order exactly k at x, for points in every chart; so has
    the sparse f = (k lines through x) * g for a 2-term g of degree 40."""
    rng = random.Random(1729)
    points = [ProjPoint(Fraction(9, 2), Fraction(-1, 3), Fraction(2)),
              ProjPoint(Fraction(1, 5), Fraction(-7), Fraction(3, 4)),
              ProjPoint(Fraction(-2, 3), Fraction(1, 2), Fraction(1)),
              ProjPoint(Fraction(5), Fraction(-3, 7), Fraction(0)),
              ProjPoint(Fraction(1, 4), Fraction(6), Fraction(0)),
              ProjPoint(Fraction(0), Fraction(0), Fraction(1))]
    assert {x.chart() for x in points} == {0, 1, 2}
    assert any(x.coords[2] == 0 for x in points)

    def line_through(x):
        while True:
            other = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(3)]
            line = exactpoly._cross(x.coords, other)
            if any(line):
                return HomPoly.line(*line)
    for x in points:
        for k in range(7):
            for _ in range(2):
                degree = k + rng.randint(0, 2)
                g = random_poly(rng, degree - k)
                while evaluate(g, x) == 0:
                    g = random_poly(rng, degree - k)
                f = g
                for _ in range(k):
                    f = f * line_through(x)
                if degree > k:
                    h = line_through(x)
                    for _ in range(k):
                        h = h * line_through(x)
                    f = f + h * random_poly(rng, degree - k - 1)
                assert vanishing_order(f, x) == k
                assert_order_and_cone_match_expansion(f, x)
    for x in points:
        for k in (0, 1, 3):  # sparse: k lines times a 2-term form
            g = HomPoly.zero(40)
            while evaluate(g, x) == 0:
                g = HomPoly(40, {m: Fraction(rng.randint(1, 9),
                                             rng.randint(1, 4))
                                 for m in rng.sample(monomials(40), 2)})
            f = g
            for _ in range(k):
                f = f * line_through(x)
            assert vanishing_order(f, x) == k
            assert_order_and_cone_match_expansion(f, x)


def test_order_and_cone_of_the_zero_form():
    x = ProjPoint(Fraction(1), Fraction(2), Fraction(3))
    for degree in (0, 3):
        assert order_and_cone(HomPoly.zero(degree), x) == (math.inf, None)


def test_order_and_cone_at_certificate_points():
    """Both forms at every listed point of every kind's certificate (the
    15-point sharpness kind has none) at seeds 0 and 1."""
    certified = 0
    for kind in INSTANCE_KINDS:
        for seed in (0, 1):
            inst = generate(kind, seed)
            if len(inst.point_set) != 12:
                continue
            cert = construct_certificate(inst.point_set,
                                         extra=inst.extra).certificate
            certified += 1
            for x, _ in cert.points:
                assert_order_and_cone_match_expansion(cert.p, x)
                assert_order_and_cone_match_expansion(cert.q, x)
    assert certified == 2 * (len(INSTANCE_KINDS) - 1)


def test_exact_divide_and_gcd():
    rng = random.Random(5)
    for _ in range(15):
        f = random_poly(rng, rng.randint(1, 3))
        g = random_poly(rng, rng.randint(1, 3))
        prod = f * g
        assert divides(f, prod) and divides(g, prod)
        q = exact_divide(prod, f)
        assert q is not None and q * f == prod
        assert divides(f, f * f)
    assert exact_divide(HomPoly.line(1, 0, 0) * HomPoly.line(0, 1, 0),
                        HomPoly.line(1, 1, 1)) is None


def test_gcd_of_engineered_product():
    l1 = HomPoly.line(1, 2, 3)
    l2 = HomPoly.line(2, -1, 1)
    l3 = HomPoly.line(0, 1, -1)
    g = gcd_homogeneous(l1 * l2, l2 * l3)
    assert g == l2.monic()
    assert gcd_homogeneous(l1, l3).degree == 0


def assert_gcd_is_reference(p, q):
    """gcd_homogeneous equals the sympy reference in both orders, and
    coprime agrees with it."""
    want = reference_gcd_homogeneous(p, q)
    assert gcd_homogeneous(p, q) == gcd_homogeneous(q, p) == want, (p, q)
    assert coprime(p, q) == coprime(q, p) == (want.degree == 0), (p, q)


def test_gcd_matches_reference_with_z_factors_of_unequal_powers():
    z = [HomPoly.monomial((0, 0, k)) for k in range(6)]
    l1, l2 = HomPoly.line(1, 2, 3), HomPoly.line(2, -1, 1)
    conic = (HomPoly.monomial((0, 1, 1)) - HomPoly.monomial((2, 0, 0))
             + HomPoly.monomial((0, 0, 2), Fraction(-7, 3)))
    pairs = [(z[1], z[2]), (z[3] * l1, z[1] * l2),
             (z[1] * l1 * conic, z[4] * conic), (z[2] * conic, l1 * conic),
             (z[5], l1 * l2), (z[2] * l1 * l1, z[3] * l1)]
    for p, q in pairs:
        assert_gcd_is_reference(p, q)
    assert gcd_homogeneous(z[3] * l1, z[1] * l2) == z[1]
    assert gcd_homogeneous(z[1] * l1 * conic, z[4] * conic) == \
        (z[1] * conic).monic()


def test_gcd_matches_reference_on_forms_through_the_shear_center():
    """Forms through (0:1:0), the center of the unsheared projection, so
    that the gcd shears first; some share a component through it."""
    center = ProjPoint(0, 1, 0)
    x_line, vertical = HomPoly.line(1, 0, 0), HomPoly.line(1, 0, -2)
    conic = HomPoly.monomial((1, 1, 0)) - HomPoly.monomial((0, 0, 2), 5)
    l1, l2 = HomPoly.line(1, 2, 3), HomPoly.line(2, -1, 1)
    pairs = [(x_line * l1, vertical * l2), (x_line * l1, x_line * l2),
             (conic * l1, conic * vertical), (conic, x_line * vertical),
             (x_line * vertical * l1, vertical * conic),
             (conic * conic, conic)]
    for p, q in pairs:
        assert evaluate(p, center) == 0 and evaluate(q, center) == 0
        assert_gcd_is_reference(p, q)
    assert gcd_homogeneous(conic * l1, conic * vertical) == conic.monic()


def test_gcd_matches_reference_on_degree_zero_forms():
    one, five, half = (HomPoly(0, {(0, 0, 0): c})
                       for c in (1, 5, Fraction(1, 2)))
    for p, q in [(five, half), (five, HomPoly.line(1, 2, 3)),
                 (HomPoly.monomial((0, 0, 2), 3), half),
                 (HomPoly.monomial((1, 1, 1), -2), five)]:
        assert_gcd_is_reference(p, q)
        assert gcd_homogeneous(p, q) == one
    assert gcd_homogeneous(five, HomPoly.zero(2)) == one
    assert gcd_homogeneous(HomPoly.zero(0), HomPoly.line(2, 0, 4)) == \
        HomPoly.line(1, 0, 2)


def test_gcd_matches_reference_on_random_pairs():
    """Seeded pairs of degree 0-6 with up to 100-bit rationals, some with
    a shared factor, a power of Z or a factor through (0:1:0)."""
    rng = random.Random(36)
    for _ in range(60):
        bits = rng.choice((1, 4, 12, 40, 100))
        s = rng.randint(0, 3)
        shared = random_big_poly(rng, s, 3)
        p = random_big_poly(rng, rng.randint(0, 6 - s), bits) * shared
        q = random_big_poly(rng, rng.randint(0, 6 - s), bits) * shared
        if rng.random() < 0.3:
            p = p * HomPoly.monomial((0, 0, rng.randint(1, 3)))
        if rng.random() < 0.3:
            q = q * HomPoly.monomial((0, 0, rng.randint(0, 2)))
        if rng.random() < 0.2:
            p = p * HomPoly.line(1, 0, rng.randint(-2, 2))
        assert_gcd_is_reference(p, q)


def spy_fibers(monkeypatch):
    """The x of each `exactpoly._fiber` call, two per fiber the gcd reads."""
    xs, real = [], exactpoly._fiber
    monkeypatch.setattr(exactpoly, "_fiber",
                        lambda f, x, z: xs.append(x) or real(f, x, z))
    return xs


def shared_line_pair(bits):
    """L*A and L*B for a line L and quintics A, B whose coefficients are
    random rationals with bits-bit numerators and denominators."""
    rng = random.Random(5)

    def form(degree):
        return HomPoly(degree, {m: Fraction(
            rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2 ** bits),
            rng.randrange(2 ** (bits - 1), 2 ** bits))
            for m in monomials(degree)})

    line = form(1)
    return line, line * form(5), line * form(5)


def test_gcd_reads_two_fibers_on_the_shared_line_pair(monkeypatch):
    """The 128-bit shared-line pair: the first two fibers share the line's
    degree, and their interpolation divides both forms."""
    line, p, q = shared_line_pair(128)
    xs = spy_fibers(monkeypatch)
    assert gcd_homogeneous(p, q) == line.monic()
    assert xs[::2] == [0, 1]
    monkeypatch.undo()
    assert_gcd_is_reference(p, q)


def test_gcd_reads_fibers_until_the_pair_is_decided(monkeypatch):
    """Two line pairs through four points, one on each of the first four
    fibers X = xZ: each fiber gcd has degree 1, and each pair of
    neighbouring fibers interpolates the line through two of the points,
    which divides at most one form, so only the fifth fiber, with a
    constant gcd, decides the pair. With a shared
    line the first four fibers have degree 2 and interpolate no conic that
    divides both; the fifth and sixth give the line."""
    pts = [ProjPoint(0, 1, 1), ProjPoint(1, 3, 1), ProjPoint(2, -1, 1),
           ProjPoint(3, 2, 1)]
    p = join(pts[0], pts[1]) * join(pts[2], pts[3])
    q = join(pts[0], pts[2]) * join(pts[1], pts[3])
    assert next(exactpoly._shears(p, q)) == 0  # no shear
    line = HomPoly.line(1, 1, 1)
    xs = spy_fibers(monkeypatch)
    assert gcd_homogeneous(p, q).degree == 0
    assert xs[::2] == [0, 1, 2, 3, 4]
    xs.clear()
    assert gcd_homogeneous(p * line, q * line) == line.monic()
    assert xs[::2] == [0, 1, 2, 3, 4, 5]
    monkeypatch.undo()
    assert_gcd_is_reference(p, q)
    assert_gcd_is_reference(p * line, q * line)


def random_big_poly(rng, degree, bits):
    """A nonzero form with random support and rationals of up to `bits`
    bits in numerator and denominator."""
    terms = {m: Fraction(rng.randint(-2 ** bits, 2 ** bits),
                         rng.randint(1, 2 ** bits))
             for m in monomials(degree) if rng.random() < 0.7}
    p = HomPoly(degree, terms)
    return p if not p.is_zero else HomPoly.monomial((0, 0, degree), 3)


def test_integer_view_is_l_times_the_terms():
    """(L, ints) with L the lcm of the denominators and ints the terms of
    L * p in the order of p.terms, on random forms with big denominators
    and on zero forms; it is the stored pair (den, ints)."""
    rng = random.Random(31)
    forms = [HomPoly.zero(0), HomPoly.zero(4)]
    forms += [random_big_poly(rng, rng.randint(0, 8), rng.choice((1, 40, 200)))
              for _ in range(60)]
    for f in forms:
        big_l, ints = f.integer_view()
        assert big_l == math.lcm(*(c.denominator for c in f.terms.values()))
        assert list(ints) == list(f.terms)
        assert all(type(v) is int and v == big_l * f.terms[e]
                   for e, v in ints.items())
        assert f.integer_view() == (f.den, f.ints)
    assert HomPoly.zero(2).integer_view() == (1, {})


def test_integer_view_leaves_equality_and_hash_alone():
    rng = random.Random(32)
    for _ in range(20):
        f = random_big_poly(rng, rng.randint(0, 6), 60)
        g = HomPoly(f.degree, dict(reversed(list(f.terms.items()))))
        f.integer_view()
        assert f == g and g == f and hash(f) == hash(g)
        assert len({f, g}) == 1
        g.integer_view()
        assert f == g and hash(f) == hash(g)


def line_through(a, b):
    """The line through two points given as integer triples."""
    return HomPoly.line(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                        a[0] * b[1] - a[1] * b[0])


def test_coprime_matches_gcd_on_random_pairs():
    rng = random.Random(4242)
    seen = set()
    for _ in range(40):
        dp, dq = rng.randint(0, 6), rng.randint(0, 6)
        p = random_big_poly(rng, dp, rng.randint(1, 400))
        q = random_big_poly(rng, dq, rng.randint(1, 400))
        if rng.random() < 0.4 and max(dp, dq) < 6:
            shared = random_big_poly(rng, rng.randint(1, 6 - max(dp, dq)), 8)
            p, q = p * shared, q * shared
        assert_gcd_is_reference(p, q)
        seen.add(coprime(p, q))
    assert seen == {True, False}


def test_coprime_rejects_shared_components():
    l1, l2, l3 = (HomPoly.line(1, 2, 3), HomPoly.line(2, -1, 1),
                  HomPoly.line(0, 1, -1))
    conic = (HomPoly.monomial((0, 1, 1)) - HomPoly.monomial((2, 0, 0))
             + HomPoly.monomial((0, 0, 2), Fraction(-7, 3)))
    shared_line = (l1 * l2, l1 * l3)
    shared_conic = (conic * l2, conic * l3 * l3)
    repeated = (l2 * l2 * l3, l2 * l1)
    pairs = [shared_line, shared_conic, repeated, (l1, l1), (conic, conic)]
    for u, v, _ in curves._COPRIME_PROOFS:
        through = line_through(u, v)
        assert evaluate(through, ProjPoint(*u)) == 0
        assert evaluate(through, ProjPoint(*v)) == 0
        pairs.append((through * l1, through * l2 * l3))
    for p, q in pairs:
        assert reference_gcd_homogeneous(p, q).degree >= 1
        assert_gcd_is_reference(p, q)


def test_coprime_falls_back_when_every_direction_vanishes(monkeypatch):
    v1, v2, v3 = (v for _, v, _ in curves._COPRIME_PROOFS)
    p = line_through(v1, v2) * line_through(v3, (1, 1, 1))
    q = line_through(v2, v3) * line_through(v1, (1, 0, 0))
    for v in (v1, v2, v3):
        assert evaluate(p, ProjPoint(*v)) == 0
        assert evaluate(q, ProjPoint(*v)) == 0
    calls = []
    real = curves.gcd_homogeneous

    def spy(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(curves, "gcd_homogeneous", spy)
    assert coprime(p, q)
    assert calls == [(p, q)]
    assert reference_gcd_homogeneous(p, q).degree == 0


def test_coprime_fallback_matches_gcd():
    """Pairs whose forms both vanish at the three proof directions, so no
    modular proof applies: coprime pairs, pairs sharing a line and pairs
    sharing a conic, some sharing one through a direction. The exact
    fallback must agree with the sympy reference gcd."""
    dirs = [v for _, v, _ in curves._COPRIME_PROOFS]
    rng = random.Random(12)

    def through_dirs(degree):
        """A random form of the given degree (>= 2) through all three
        directions: a combination of products of their joins."""
        l12, l23, l13 = (line_through(dirs[0], dirs[1]),
                         line_through(dirs[1], dirs[2]),
                         line_through(dirs[0], dirs[2]))
        basis = [l12 * l23, l12 * l13, l23 * l13]
        return sum((b * random_poly(rng, degree - 2, 4) for b in basis[1:]),
                   basis[0] * random_poly(rng, degree - 2, 4))

    pairs, verdicts = [], []
    for _ in range(6):
        pairs.append((through_dirs(2), through_dirs(3)))
        pairs.append((through_dirs(3), through_dirs(3)))
    for _ in range(4):
        line = HomPoly.line(rng.randint(1, 6), rng.randint(-6, 6),
                            rng.randint(-6, 6))
        pairs.append((through_dirs(2) * line, through_dirs(2) * line))
        conic = random_poly(rng, 2, 5)
        pairs.append((through_dirs(2) * conic, through_dirs(3) * conic))
    # the shared component itself passes through the directions
    pairs.append((through_dirs(2) * HomPoly.line(1, 0, 0), through_dirs(2)))
    shared = through_dirs(2)
    pairs.append((shared * HomPoly.line(1, 2, 3), shared * shared))
    l12, l13 = (line_through(dirs[0], dirs[1]),
                line_through(dirs[0], dirs[2]))
    pairs.append((l12 * through_dirs(2), l12 * l13 * random_poly(rng, 1)))
    # coprime, with one more common zero on a line X = xZ, x = 0 or 1,
    # where the gcd reads its first fibers: that fiber alone would read
    # as a shared component
    for extra in ((0, 0, 1), (0, 3, 1), (1, 5, 1), (1, -2, 1)):
        pairs.append((l12 * line_through(dirs[2], extra),
                      line_through(dirs[1], dirs[2])
                      * line_through(dirs[0], extra)))
    for p, q in pairs:
        for v in dirs:
            assert evaluate(p, ProjPoint(*v)) == 0
            assert evaluate(q, ProjPoint(*v)) == 0
        assert_gcd_is_reference(p, q)
        verdicts.append(coprime(p, q))
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_coprime_proof_needs_no_gcd(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the modular proof decides this pair")

    for module in (curves, exactpoly):
        monkeypatch.setattr(module, "gcd_homogeneous", forbidden)
    rng = random.Random(17)
    for d in range(7):
        assert coprime(random_big_poly(rng, d, 64),
                       random_big_poly(rng, 6 - d, 64))
    assert coprime(HomPoly.monomial((2, 0, 0)), HomPoly.monomial((0, 1, 1)))


def test_coprime_with_zero_forms():
    line = HomPoly.line(1, 2, 3)
    assert not coprime(HomPoly.zero(2), line)
    assert coprime(HomPoly(0, {(0, 0, 0): 5}), HomPoly.zero(3))
    with pytest.raises(PreconditionError):
        coprime(HomPoly.zero(1), HomPoly.zero(2))


def exact_restriction(p, u, v):
    """p(u + t*v) in Fraction coefficients indexed by the power of t, each
    term multiplied out one linear factor at a time."""
    out = [Fraction(0)] * (p.degree + 1)
    for mono, c in p.terms.items():
        poly = [c]
        for e, a, b in zip(mono, u, v):
            for _ in range(e):
                poly = [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]
        for k, x in enumerate(poly):
            out[k] += x
    return out


def test_restrict_mod_matches_the_exact_restriction():
    """`_restrict_mod` is L * p(u + t*v) mod the prime, L the lcm of the
    denominators, on random dense forms of degree at most 8 and on sparse
    forms of degree 60, along every proof line."""
    rng = random.Random(60)
    forms = [random_big_poly(rng, rng.randint(0, 8), rng.choice((1, 40)))
             for _ in range(30)]
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 60)
            j = rng.randint(0, 60 - i)
            terms[(i, j, 60 - i - j)] = Fraction(
                rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
        forms.append(HomPoly(60, terms))
    forms.append(HomPoly.monomial((60, 0, 0)) + HomPoly.monomial((0, 0, 60)))
    for p in forms:
        big_l = math.lcm(*(c.denominator for c in p.terms.values()))
        for u, v, prime in curves._COPRIME_PROOFS:
            scaled = [big_l * x for x in exact_restriction(p, u, v)]
            assert all(x.denominator == 1 for x in scaled)
            assert curves._restrict_mod(p, u, v, prime) == [
                x.numerator % prime for x in scaled]


def sympy_exact_divide(p, q):
    """Reference: sympy's multivariate division, quotient read back through
    from_sympy."""
    if p.is_zero:
        return HomPoly.zero(max(p.degree - q.degree, 0))
    if p.degree < q.degree:
        return None
    x, y, z = sympy.symbols("X Y Z")
    quo, rem = sympy.div(to_sympy(p), to_sympy(q), x, y, z)
    if sympy.expand(rem) != 0:
        return None
    return from_sympy(quo, p.degree - q.degree)


def test_exact_divide_matches_sympy_div():
    rng = random.Random(9001)
    cases = []
    for _ in range(12):
        a = random_big_poly(rng, rng.randint(0, 3), rng.randint(1, 400))
        b = random_big_poly(rng, rng.randint(0, 3), rng.randint(1, 200))
        noise = random_big_poly(rng, a.degree + b.degree, 4)
        cases += [(a * b, b), (a * b, a), (a * b + noise, b), (a, b)]
    const = HomPoly(0, {(0, 0, 0): Fraction(-7, 3)})
    line = HomPoly.line(1, -2, 5)
    cases += [(line * line, const), (const, const), (line, line * line),
              (HomPoly.zero(4), line), (HomPoly.zero(1), line * line),
              (HomPoly.monomial((1, 2, 0)), HomPoly.monomial((0, 1, 0))),
              (HomPoly.monomial((1, 2, 0)), HomPoly.monomial((0, 0, 1)))]
    exact = 0
    for p, q in cases:
        got, want = exact_divide(p, q), sympy_exact_divide(p, q)
        assert got == want
        if want is not None:
            exact += 1
            assert list(got.terms) == list(want.terms)
            assert p.is_zero or got * q == p
    assert 0 < exact < len(cases)


# --------------------------------------------------------------------------
# one stored form: the integer operations against a Fraction reference


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_partials(a):
    outs = []
    for var in range(3):
        out = {}
        for exps, c in a.items():
            if exps[var]:
                new = list(exps)
                new[var] -= 1
                out[tuple(new)] = c * exps[var]
        outs.append(out)
    return outs


def ref_shear(a, t):
    if t == 0:
        return a
    out = {}
    for (i, j, k), c in a.items():
        for l in range(i + 1):
            key = (i - l, j + l, k)
            out[key] = out.get(key, Fraction(0)) + c * math.comb(i, l) * t ** l
    return ref_clean(out)


def ref_hessian(a):
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = [
        ref_partials(q) for q in ref_partials(a)]
    neg = {(0, 0, 0): Fraction(-1)}

    def minus(x, y):
        return ref_add(x, ref_mul(neg, y))

    return ref_add(ref_add(
        ref_mul(h00, minus(ref_mul(h11, h22), ref_mul(h12, h12))),
        ref_mul(neg, ref_mul(h01, minus(ref_mul(h01, h22),
                                        ref_mul(h02, h12))))),
        ref_mul(h02, minus(ref_mul(h01, h12), ref_mul(h02, h11))))


def assert_form_is(p, degree, ref):
    """p is the form with the Fraction terms ref: equal, with the same key
    order, the integer view made from ref, and the Fraction hash."""
    ref = ref_clean(ref)
    big_l = math.lcm(*(c.denominator for c in ref.values()))
    assert p == HomPoly(degree, ref) and p.degree == degree
    assert p.terms == ref and list(p.terms) == list(ref)
    assert p.integer_view() == (big_l, {m: int(big_l * c)
                                        for m, c in ref.items()})
    assert list(p.ints) == list(ref)
    assert hash(p) == hash((p.degree, frozenset(p.terms.items())))
    assert hash(p) == hash((degree, frozenset(ref.items())))


def test_integer_operations_match_the_fraction_reference():
    """Kernel vectors, sums, products, scalar multiples, partials, shears
    and Hessians, built on the stored integers, equal the same forms built
    in Fraction arithmetic, term order included."""
    rng = random.Random(2929)
    forms = []
    for degree in (1, 2, 3, 4):
        points = [ProjPoint(rng.randint(-9, 9), rng.randint(-9, 9), 1)
                  for _ in range(monomial_count(degree) - 2)]
        rows = [[evaluate(HomPoly.monomial(m), x) for m in monomials(degree)]
                for x in points]
        for vec in nullspace(rows, monomial_count(degree)):
            assert all(type(v) is int for v in vec)
            p = HomPoly.from_coeff_vector(degree, vec)
            assert_form_is(p, degree, dict(zip(monomials(degree),
                                               map(Fraction, vec))))
            forms.append(p)
    forms += [random_big_poly(rng, rng.randint(1, 4), rng.choice((1, 30)))
              for _ in range(20)]
    for _ in range(40):
        p, q = rng.choice(forms), rng.choice(forms)
        pt, qt = p.terms, q.terms
        assert_form_is(p * q, p.degree + q.degree, ref_mul(pt, qt))
        if p.degree == q.degree:
            assert_form_is(p + q, p.degree, ref_add(pt, qt))
            assert_form_is(p - p, p.degree, {})
        for s in (0, -3, Fraction(-5, 6), Fraction(7, 4)):
            assert_form_is(p * s, p.degree, ref_clean(
                {m: c * s for m, c in pt.items()}))
        assert_form_is(-p, p.degree, {m: -c for m, c in pt.items()})
        for got, want in zip(partial_derivatives(p), ref_partials(pt)):
            assert_form_is(got, p.degree - 1, want)
        t = rng.randint(-4, 4)
        assert_form_is(curves._shear(p, t), p.degree, ref_shear(pt, t))
        lc = pt[max(pt)]
        assert_form_is(p.monic(), p.degree, {m: c / lc for m, c in pt.items()})
    for p in [f for f in forms if f.degree == 3][:6]:
        assert_form_is(curves._hessian(p), 3, ref_hessian(p.terms))


def count_fractions(monkeypatch, *modules):
    """The list of the arguments of every Fraction the modules build from
    now on."""
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "Fraction", CountingFraction)
    return made


def test_the_integer_path_makes_no_fraction(monkeypatch):
    """From an integer vector, forms, their sums, products, integer
    multiples, partials, monic forms, exact quotients, shears and
    Hessians are built with no Fraction."""
    made = count_fractions(monkeypatch, exactpoly)
    p = HomPoly.from_coeff_vector(2, [3, 0, -6, 9, 12, 0])
    q = HomPoly.from_coeff_vector(2, [0, 1, 0, -2, 0, 5])
    forms = [p, q, p + q, p - q, p * q, 4 * p, -q]
    forms += [d for f in forms for d in partial_derivatives(f)]
    forms += [p.monic(), exact_divide(p * q, q), curves._shear(q, 3),
              curves._hessian(p * HomPoly.line(1, -2, 5))]
    assert made == [] and all(f is not None for f in forms)
    assert p == HomPoly(2, {(2, 0, 0): 3, (1, 0, 1): -6, (0, 2, 0): 9,
                            (0, 1, 1): 12})
    assert (p.den, p.ints) == (1, {(2, 0, 0): 3, (1, 0, 1): -6,
                                   (0, 2, 0): 9, (0, 1, 1): 12})
    assert made == []
    p.terms  # the Fraction view: the counter sees exactpoly's Fractions
    assert len(made) == len(p.ints)
