"""Curve analysis and intersection theory.

Oracles: hand-computed multiplicities on classical local models (transverse
lines, tangent conic, cusp), the two independent multiplicity algorithms
cross-checked against each other on seeded random coprime pairs and at the
points of the suite certificates, and the exact Bezout balance
deg(p)*deg(q) = sum of multiplicities + residual.
"""

import functools
import importlib.util
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from sympy.polys.rings import PolyElement

from lelongplane import curves, exactpoly, upoly
from lelongplane.config import curves_through
from lelongplane.construct import construct_certificate
from lelongplane.curves import (bezout_table, conic_rank, coprime,
                                cubic_is_irreducible,
                                intersection_multiplicity,
                                resultant_multiplicity)
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import (HomPoly, ProjPoint, evaluate,
                                   gcd_homogeneous, monomials,
                                   vanishing_order)
from lelongplane.instances import generate

from expr_reference import (reference_bezout_table,
                            reference_binary_root_multiplicity,
                            reference_cubic_is_irreducible,
                            reference_rational_roots, reference_resultant_xz,
                            use_expr_internals)

ORIGIN = ProjPoint(Fraction(0), Fraction(0), Fraction(1))


def mono(exps, coeff=1):
    return HomPoly.monomial(exps, coeff)


def random_poly(rng, degree, span=5):
    while True:
        terms = {m: Fraction(rng.randint(-span, span))
                 for m in monomials(degree)}
        p = HomPoly(degree, terms)
        if not p.is_zero:
            return p


def test_conic_rank_oracles():
    assert conic_rank(mono((1, 0, 1)) - mono((0, 2, 0))) == 3  # XZ - Y^2
    assert conic_rank(mono((1, 1, 0))) == 2                    # XY
    assert conic_rank(mono((2, 0, 0))) == 1                    # X^2
    assert conic_rank(mono((2, 0, 0)) + mono((0, 2, 0))) == 2  # X^2 + Y^2
    with pytest.raises(PreconditionError):
        conic_rank(HomPoly.line(1, 0, 0))


def test_cubic_irreducibility():
    # nodal cubic Y^2 Z - X^2 (X + Z): irreducible with a singular point
    nodal = mono((0, 2, 1)) - mono((3, 0, 0)) - mono((2, 0, 1))
    assert cubic_is_irreducible(nodal)
    # cuspidal cubic Y^2 Z - X^3
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))
    assert cubic_is_irreducible(cusp)
    # conic times line is reducible
    conic = mono((1, 0, 1)) - mono((0, 2, 0))
    assert not cubic_is_irreducible(conic * HomPoly.line(1, 1, 1))
    # three lines
    assert not cubic_is_irreducible(HomPoly.line(1, 0, 0)
                                    * HomPoly.line(0, 1, 0)
                                    * HomPoly.line(0, 0, 1))


def _cubic_families():
    """Named cubics over the families where a line test can go wrong."""
    rng = random.Random(83)
    conic = mono((1, 0, 1)) - mono((0, 2, 0))         # XZ = Y^2
    circle = mono((2, 0, 0)) + mono((0, 2, 0)) - mono((0, 0, 2))
    lines = [random_poly(rng, 1) for _ in range(30)]
    out = {
        "node": mono((0, 2, 1)) - mono((3, 0, 0)) - mono((2, 0, 1)),
        "cusp": mono((0, 2, 1)) - mono((3, 0, 0)),
        "fermat": mono((3, 0, 0)) + mono((0, 3, 0)) + mono((0, 0, 3)),
        # the conic with its tangent line X = 0 at (0:0:1)
        "conic_tangent_line": conic * HomPoly.line(1, 0, 0),
        # X = 2Z meets X^2 + Y^2 = Z^2 where Y^2 = -3 Z^2
        "conic_conjugate_points": circle * HomPoly.line(1, 0, -2),
        # three conjugate lines X + tY + t^2 Z, t^3 = 2, not concurrent
        "conjugate_lines": mono((3, 0, 0)) + mono((0, 3, 0), 2)
        + mono((0, 0, 3), 4) - mono((1, 1, 1), 6),
        # cones: the Hessian is the zero form
        "triple_line": lines[0] * lines[0] * lines[0],
        "conjugate_cone": mono((3, 0, 0)) - mono((0, 3, 0), 2),
        "concurrent_xy": mono((3, 0, 0)) + mono((2, 1, 0), 3)
        - mono((0, 3, 0), 5),
    }
    for n in range(40):
        out[f"random_{n}"] = random_poly(rng, 3)
    for n in range(15):
        out[f"line_conic_{n}"] = random_poly(rng, 1) * random_poly(rng, 2)
    for n in range(10):
        out[f"three_lines_{n}"] = lines[n] * lines[n + 10] * lines[n + 20]
    for n in range(5):
        out[f"double_line_{n}"] = lines[n] * lines[n] * lines[n + 10]
    for n in range(5):
        # three lines aX + bY + cZ through (n : 2n - 1 : 1)
        abc = [(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
        out[f"concurrent_{n}"] = functools.reduce(HomPoly.__mul__, [
            HomPoly.line(a, b, -(a * n + b * (2 * n - 1))) for a, b in abc])
    return out


def test_cubic_irreducibility_matches_groebner_reference():
    answers = {}
    for name, p in _cubic_families().items():
        answers[name] = cubic_is_irreducible(p)
        assert answers[name] == reference_cubic_is_irreducible(p), name
    for name in ("node", "cusp", "fermat"):
        assert answers[name], name
    for prefix in ("conic_", "conjugate_", "triple_", "concurrent",
                   "line_conic_", "three_lines_", "double_line_"):
        assert not any(v for k, v in answers.items()
                       if k.startswith(prefix)), prefix
    assert sum(answers.values()) >= 30  # most random cubics


def test_cones_have_zero_hessian():
    families = _cubic_families()
    # a double line and the other line meet in a point: a cone as well
    cones = [k for k in families
             if k.startswith(("concurrent", "triple_", "double_line_"))
             or k == "conjugate_cone"]
    assert len(cones) == 13
    for name, p in families.items():
        assert curves._hessian(p).is_zero == (name in cones), name


def test_hessian_of_the_node():
    """H of Y^2 Z - X^3 - X^2 Z against the determinant of its second
    partials, taken by hand, at a few points."""
    nodal = mono((0, 2, 1)) - mono((3, 0, 0)) - mono((2, 0, 1))
    h = curves._hessian(nodal)
    assert h.degree == 3
    for x, y, z in ((1, 2, 3), (-2, 5, 1), (0, 1, 0), (7, -3, 4)):
        m = [[-6 * x - 2 * z, 0, -2 * x], [0, 2 * z, 2 * y],
             [-2 * x, 2 * y, 0]]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        assert h.evaluate_coords(x, y, z) == det


def test_rational_roots_match_factor_list():
    def expand(*factors):
        out = [1]
        for f in factors:
            prod = [0] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(f):
                    prod[i + j] += a * b
            out = prod
        return out

    big = 2 ** 101 + 7
    cases = [
        expand([-1, 1], [-1, 1], [3, 2], [3, 2], [3, 2]),   # repeated roots
        expand([0, 1], [0, 1], [0, 1], [-5, 1]),             # 0, three times
        [3, 7], [-12, 4],                                     # degree 1
        [5], [-1],                                            # constants
        expand([-3 ** 70, big], [1, 0, 1], [2 ** 120, -3]),  # > 100 bits
        expand([-3 ** 70, big], [-3 ** 70, big]),
        [-2, 0, 1], [1, 0, 0, 0, 1], [1, -3, 0, 1],           # no root
        expand([1, 0, 1], [2, 0, 0, 1], [-7, 0, 3]),
        expand([6, -5, 1], [6, -5, 1], [-1, 0, 0, 1]),        # 2, 3, 1
    ]
    rng = random.Random(89)
    for _ in range(60):
        factors = [[rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)]
                   for _ in range(rng.randint(0, 4))]
        factors += [[rng.randint(-50, 50) for _ in range(rng.randint(2, 4))]
                    + [rng.randint(1, 9)] for _ in range(rng.randint(0, 2))]
        f = expand(*factors)
        if any(f):
            cases.append(f)
    for f in cases:
        got = sorted(upoly.rational_roots(upoly.int_poly(f)))
        assert got == reference_rational_roots(f), f
    assert sorted(upoly.rational_roots(upoly.int_poly(cases[0]))) == [
        Fraction(-3, 2), Fraction(1)]
    assert sorted(upoly.rational_roots(upoly.int_poly(cases[1]))) == [
        Fraction(0), Fraction(5)]


def _bench_tangent_pairs(seed):
    """The benchmark's tangent pairs, from perfbench/workloads.py."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [tuple(HomPoly(d, {(i, j, k): Fraction(c) for i, j, k, c in terms})
                  for d, terms in (pair["p"], pair["q"]))
            for pair in module.tangent_pairs(seed)]


def test_bezout_table_matches_reference_on_bench_tangent_pairs():
    """bezout_table, with its in-repo roots and fiber gcds, agrees with the
    `Expr` reference on the benchmark's tangent pairs, seeds 0..29."""
    for seed in range(30):
        for p, q in _bench_tangent_pairs(seed):
            assert bezout_table(p, q) == reference_bezout_table(p, q), seed


def test_multiplicity_classical_models():
    x_axis = HomPoly.line(0, 1, 0)          # Y = 0
    y_axis = HomPoly.line(1, 0, 0)          # X = 0
    parabola = mono((0, 1, 1)) - mono((2, 0, 0))   # YZ = X^2
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))       # Y^2 Z = X^3
    # transverse lines: 1
    assert intersection_multiplicity(x_axis, y_axis, ORIGIN) == 1
    # tangent line to a conic: 2
    assert intersection_multiplicity(x_axis, parabola, ORIGIN) == 2
    # transverse line through the conic: 1
    assert intersection_multiplicity(y_axis, parabola, ORIGIN) == 1
    # cuspidal tangent: 3; transverse line through the cusp: 2
    assert intersection_multiplicity(x_axis, cusp, ORIGIN) == 3
    assert intersection_multiplicity(y_axis, cusp, ORIGIN) == 2
    # two smooth conics with a common tangent, contact of order 2:
    # parametrizing YZ = X^2 by (t, t^2) turns YZ + X^2 into 2t^2
    conic2 = mono((0, 1, 1)) + mono((2, 0, 0))
    assert intersection_multiplicity(parabola, conic2, ORIGIN) == 2
    # contact of order 4: (t, t^2) turns YZ - X^2 - Y^2 into -t^4
    conic3 = mono((0, 1, 1)) - mono((2, 0, 0)) - mono((0, 2, 0))
    assert intersection_multiplicity(parabola, conic3, ORIGIN) == 4
    # a missed point gives 0
    off = ProjPoint(Fraction(5), Fraction(5), Fraction(1))
    assert intersection_multiplicity(x_axis, parabola, off) == 0


def test_multiplicity_with_a_zero_form():
    """The zero form contains every curve: mu is infinite where the other
    form vanishes, 0 where it does not, in either argument order."""
    zero = HomPoly.zero(2)
    parabola = mono((0, 1, 1)) - mono((2, 0, 0))
    off = ProjPoint(Fraction(5), Fraction(5), Fraction(1))
    assert intersection_multiplicity(zero, parabola, ORIGIN) == math.inf
    assert intersection_multiplicity(parabola, zero, ORIGIN) == math.inf
    assert intersection_multiplicity(zero, parabola, off) == 0
    assert intersection_multiplicity(parabola, zero, off) == 0
    assert intersection_multiplicity(zero, zero, off) == math.inf


def test_transversal_points_skip_gcd_and_factoring(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the tangent cones decide this point")

    for module, name in ((curves, "_reduction_mu"),
                         (curves, "gcd_homogeneous"),
                         (exactpoly, "gcd_homogeneous")):
        monkeypatch.setattr(module, name, forbidden)
    x_axis = HomPoly.line(0, 1, 0)
    y_axis = HomPoly.line(1, 0, 0)
    parabola = mono((0, 1, 1)) - mono((2, 0, 0))
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))
    nodal = mono((0, 2, 1)) - mono((3, 0, 0)) - mono((2, 0, 1))
    assert intersection_multiplicity(x_axis, y_axis, ORIGIN) == 1
    assert intersection_multiplicity(y_axis, parabola, ORIGIN) == 1
    # ord 1 * ord 2: X is not a tangent of the cusp (cone Y^2)
    assert intersection_multiplicity(y_axis, cusp, ORIGIN) == 2
    # ord 1 * ord 2: Y is not a tangent of the node (cone Y^2 - X^2)
    assert intersection_multiplicity(x_axis, nodal, ORIGIN) == 2
    # a shared component that misses the point is a unit there
    far = HomPoly.line(1, 1, -1)
    assert intersection_multiplicity(x_axis * far, y_axis * far,
                                     ORIGIN) == 1


def test_shared_tangents_take_the_reduction(monkeypatch):
    calls = []
    reduction = curves._reduction_mu

    def counted(p, q, x):
        calls.append(x)
        return reduction(p, q, x)

    monkeypatch.setattr(curves, "_reduction_mu", counted)
    x_axis = HomPoly.line(0, 1, 0)
    parabola = mono((0, 1, 1)) - mono((2, 0, 0))
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))
    conic3 = mono((0, 1, 1)) - mono((2, 0, 0)) - mono((0, 2, 0))
    assert intersection_multiplicity(x_axis, parabola, ORIGIN) == 2
    assert intersection_multiplicity(x_axis, cusp, ORIGIN) == 3
    assert intersection_multiplicity(parabola, conic3, ORIGIN) == 4
    # the shared tangent Y = X is found by Euclid, not by the t test
    diagonal = HomPoly.line(-1, 1, 0)
    assert intersection_multiplicity(
        diagonal, diagonal * HomPoly.line(0, 0, 1) - mono((2, 0, 0)),
        ORIGIN) == 2
    assert len(calls) == 4
    # a shared component through the point
    assert intersection_multiplicity(x_axis * parabola, x_axis * cusp,
                                     ORIGIN) == math.inf
    assert len(calls) == 5


def _through(x, a, b):
    """The line a(X - x0 Z) + b(Y - y0 Z) through the affine point x."""
    x0, y0 = x.affine(2)
    return HomPoly.line(a, b, -(a * x0 + b * y0))


def _shared_tangent_pair(rng, tangent, other, degrees, singular):
    """A coprime pair of the given degrees whose tangent cones at the
    meeting point x of the lines T and O share T: a smooth curve
    T * F + O^2 * G with tangent T, or a node T * O * F + T^2 * G + O^3 * H
    with T as a branch tangent; F, G, H are random integer forms."""

    def curve(d, node):
        if node:
            return (tangent * other * random_poly(rng, d - 2, 3)
                    + tangent * tangent * random_poly(rng, d - 2, 3)
                    + other * other * other * random_poly(rng, d - 3, 3))
        return (tangent * random_poly(rng, d - 1, 3)
                + other * other * random_poly(rng, d - 2, 3))

    while True:
        p, q = (curve(d, node) for d, node in zip(degrees, singular))
        if coprime(p, q):
            return p, q


def test_reduction_runs_on_whole_forms(monkeypatch):
    """The reduction agrees with the resultant oracle on products
    with repeated factors, on shared-tangent cubics and quartics, where mu
    equals the Bezout bound, and with a shared line or conic that misses
    x; a shared line or conic through x gives math.inf. It factors
    nothing and takes no coprimality proof, gcd or division: the count
    passing the Bezout bound decides a shared component."""
    x = ProjPoint(Fraction(1, 2), Fraction(-2, 3), Fraction(1))
    l, m = _through(x, 2, -3), _through(x, 1, 4)
    # smooth conics through x: c has tangent m, c2 has tangent l
    c = m * HomPoly.line(0, 0, 1) + l * l
    c2 = l * HomPoly.line(0, 0, 1) - m * m
    x_axis = HomPoly.line(0, 1, 0)
    y_axis = HomPoly.line(1, 0, 0)
    parabola = mono((0, 1, 1)) - mono((2, 0, 0))
    conic3 = mono((0, 1, 1)) - mono((2, 0, 0)) - mono((0, 2, 0))
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))
    # mu = sum over factor pairs: l^2 c . m c2 = 2 + 4 + 2 + 1,
    # l^2 c . m^2 c2 = 4 + 4 + 4 + 1, X cusp . parabola = 1 + 3
    split = [(l * l * c, m * c2, x, 9), (l * l * c, m * m * c2, x, 13),
             (y_axis * cusp, parabola, ORIGIN, 4)]
    # mu equals the Bezout bound: Y meets YZ^(d-1) - X^d only at the
    # origin, d times
    at_bound = [(parabola, conic3, ORIGIN, 4)] + [
        (x_axis, mono((0, 1, d - 1)) - mono((d, 0, 0)), ORIGIN, d)
        for d in (2, 3, 7)]
    rng = random.Random(73)
    tangent = [(*_shared_tangent_pair(rng, l, m, degrees, singular), x,
                None)
               for degrees, singular in [((3, 4), (False, False)),
                                         ((4, 4), (False, True)),
                                         ((3, 3), (True, True))]]
    p, q, _, _ = tangent[0]
    far_line = HomPoly.line(1, 1, 1)
    far_conic = mono((2, 0, 0)) + mono((0, 2, 0)) + mono((0, 0, 2))
    assert evaluate(far_conic, x) != 0
    off_x = resultant_multiplicity(p, q, x)

    def forbidden(*args):
        raise AssertionError("the reduction decides sharing by itself")

    factored = []
    real_factor_list = PolyElement.factor_list
    monkeypatch.setattr(PolyElement, "factor_list",
                        lambda f: factored.append(f) or real_factor_list(f))
    for module, name in ((curves, "coprime"), (curves, "gcd_homogeneous"),
                         (exactpoly, "gcd_homogeneous")):
        monkeypatch.setattr(module, name, forbidden)
    for p1, q1, y, expected in split + at_bound + tangent:
        mu = curves._reduction_mu(p1, q1, y)
        assert mu == resultant_multiplicity(p1, q1, y)
        assert mu > vanishing_order(p1, y) * vanishing_order(q1, y)
        assert expected in (None, mu)
    # a shared component that misses x is a unit there
    for far in (far_line, far_conic):
        assert curves._reduction_mu(far * p, far * q, x) == off_x
    # one through x gives math.inf
    for shared in (l, c):
        assert curves._reduction_mu(shared * p, shared * q, x) == math.inf
    assert factored == []


def _fraction_primitive(local):
    """A Fraction expansion scaled to coprime integers, keys in order: the
    reduction's input before it read the integer expansion."""
    lcm = math.lcm(*(c.denominator for c in local.values()))
    ints = {k: int(c * lcm) for k, c in local.items()}
    content = math.gcd(*ints.values())
    return {k: v // content for k, v in ints.items()}


def test_reduction_reads_the_primitive_integer_expansions(monkeypatch):
    """On the shared-tangent pairs of the test above and the benchmark's
    tangent pairs (seed 0), the reduction starts from the integer
    expansions divided by their content, which are the Fraction expansions
    scaled to coprime integers with the same key order, and its mu is the
    resultant oracle's."""
    first = []
    local_mu = curves._local_mu

    def spy(f, g):
        if not first:
            first.append((f, g))
        return local_mu(f, g)
    monkeypatch.setattr(curves, "_local_mu", spy)
    x = ProjPoint(Fraction(1, 2), Fraction(-2, 3), Fraction(1))
    l, m = _through(x, 2, -3), _through(x, 1, 4)
    rng = random.Random(73)
    cases = [(*_shared_tangent_pair(rng, l, m, degrees, singular), x)
             for degrees, singular in [((3, 4), (False, False)),
                                       ((3, 3), (True, True))]]
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for pair in bench.tangent_pairs(0):
        p, q = (HomPoly(d, {(i, j, k): Fraction(c) for i, j, k, c in terms})
                for d, terms in (pair["p"], pair["q"]))
        cases.append((p, q, ProjPoint(*map(Fraction, pair["x"]))))
    for p, q, y in cases:
        first.clear()
        mu = curves._reduction_mu(p, q, y)
        want = [_fraction_primitive(f.local_expansion(y)[1]) for f in (p, q)]
        assert [list(f.items()) for f in first[0]] == \
            [list(f.items()) for f in want]
        assert mu == resultant_multiplicity(p, q, y)


# the certificates that tests/test_construct.py builds
SUITE_CERTIFICATES = [("generic12", 7), ("generic12", 19), ("conic6", 3),
                      ("conic7", 1), ("figure1", 2), ("case2", 5),
                      ("case3", 4), ("case4", 6)]


@pytest.mark.parametrize("kind,seed", SUITE_CERTIFICATES)
def test_cone_path_agrees_at_certificate_points(kind, seed, monkeypatch):
    inst = generate(kind, seed)
    cert = construct_certificate(inst.point_set, extra=inst.extra).certificate
    # every listed point reads the same sheared resultants of the pair
    monkeypatch.setattr(curves, "_resultant_xz",
                        functools.cache(curves._resultant_xz))
    for x, _ in cert.points:
        mu = intersection_multiplicity(cert.p, cert.q, x)
        assert curves._reduction_mu(cert.p, cert.q, x) == mu
        assert resultant_multiplicity(cert.p, cert.q, x) == mu


def reference_cones_coprime(a, b):
    """The Fraction-Euclid test on binary forms (coefficient lists indexed
    by the power of s), independent of the gcd in Z[s]."""
    if a[-1] == 0 and b[-1] == 0:
        return False

    def trim(c):
        c = [Fraction(x) for x in c]
        while c[-1] == 0:
            c.pop()
        return c
    a, b = trim(a), trim(b)
    while len(b) > 1:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def test_integer_cones_coprime_matches_fraction_euclid():
    """Random integer binary forms, alone and times a shared factor t, s or
    (n s - c t), with constant cones among them."""
    rng = random.Random(314)

    def form(degree):
        while True:
            f = [rng.randint(-9, 9) for _ in range(degree + 1)]
            if any(f):
                return f

    def times(f, lin):  # f * (lin[0] t + lin[1] s)
        return [lin[0] * x + lin[1] * y for x, y in zip(f + [0], [0] + f)]
    factors = [(1, 0), (0, 1)] + [(-rng.randint(-20, 20), rng.randint(1, 7))
                                  for _ in range(6)]
    verdicts = []
    for _ in range(400):
        a, b = form(rng.randint(0, 4)), form(rng.randint(0, 4))
        if rng.random() < 0.5:
            lin = rng.choice(factors)
            a, b = times(a, lin), times(b, lin)
        got = curves._cones_coprime(a, b)
        assert got == reference_cones_coprime(a, b), (a, b)
        verdicts.append(got)
    assert curves._cones_coprime([5], [0, -3, 2])
    assert not curves._cones_coprime([3, 0], [1, 2, 0])  # both divisible by t
    assert not curves._cones_coprime([2, 2], [-3, 0, 3])  # s + t
    assert 100 < sum(verdicts) < 300


def test_multiplicity_shared_component_is_infinite():
    l = HomPoly.line(1, 1, -1)
    p = l * HomPoly.line(1, 0, 0)
    q = l * HomPoly.line(0, 1, 0)
    x = ProjPoint(Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert intersection_multiplicity(p, q, x) == math.inf
    assert not coprime(p, q)


def test_lower_bound_by_vanishing_orders():
    rng = random.Random(61)
    checked = 0
    while checked < 20:
        p = random_poly(rng, rng.randint(1, 3))
        q = random_poly(rng, rng.randint(1, 3))
        if gcd_homogeneous(p, q).degree != 0:
            continue
        records, _ = bezout_table(p, q)
        for rec in records:
            mu = rec.multiplicity
            assert mu >= (vanishing_order(p, rec.point)
                          * vanishing_order(q, rec.point))
            checked += 1


def _pairs_centered_off_z(rng, count):
    """Coprime pairs Z*A and X(X - Y)*B: the first takes every center
    [t:1:0], the second (0:1:1), (1:1:1) and (0:1:2), so the first center
    off both curves is (2:1:1) unless A or B vanishes there."""
    x_diag = HomPoly.line(1, 0, 0) * HomPoly.line(1, -1, 0)
    out = []
    while len(out) < count:
        p = mono((0, 0, 1)) * random_poly(rng, rng.randint(0, 2))
        q = x_diag * random_poly(rng, rng.randint(0, 2))
        if gcd_homogeneous(p, q).degree == 0:
            out.append((p, q))
    return out


def test_oracle_equivalence_random():
    # the recursive local algorithm and the sheared-resultant oracle agree,
    # also on pairs whose first center lies off the line Z = 0
    rng = random.Random(1234)
    pairs = []
    while len(pairs) < 30:
        p = random_poly(rng, rng.randint(1, 4))
        q = random_poly(rng, rng.randint(1, 4))
        if gcd_homogeneous(p, q).degree == 0:
            pairs.append((p, q))
    pairs += _pairs_centered_off_z(rng, 10)
    assert any(next(curves._shears(p, q))[1] for p, q in pairs)
    for p, q in pairs:
        records, residual = bezout_table(p, q)
        assert residual >= 0
        total = sum(r.multiplicity for r in records)
        assert total + residual == p.degree * q.degree
        for rec in records:
            assert intersection_multiplicity(p, q, rec.point) \
                == rec.multiplicity
            assert resultant_multiplicity(p, q, rec.point) \
                == rec.multiplicity


def test_strict_resultant_mode_agrees():
    x_axis = HomPoly.line(0, 1, 0)
    cusp = mono((0, 2, 1)) - mono((3, 0, 0))
    assert resultant_multiplicity(x_axis, cusp, ORIGIN) == 3


def test_oracle_separates_common_zeros_on_the_line_z0():
    """A center on the line through two common zeros projects both to one
    root, which reads the sum of their mu. Here (0:1:0) and (1:1:0), each
    of multiplicity 1, lie on Z = 0, as does the first center (2:1:0) off
    both curves; the oracle must move to a center off that line, or it
    reads 2. Two conics through (0:0:1), (0:1:1) and (1:1:1), transversal
    there, share the line X = 0 with the center (0:1:0) and X = Y with
    (1:1:0); two centers agreeing on 2 is no proof, and mu is 1."""
    p = HomPoly.line(1, 0, 1) * HomPoly.line(1, -1, 1)
    q = HomPoly.line(1, 0, 0) * HomPoly.line(1, -1, 2)
    for x in (ProjPoint(0, 1, 0), ProjPoint(1, 1, 0)):
        assert intersection_multiplicity(p, q, x) == 1
        assert resultant_multiplicity(p, q, x) == 1
    x = ProjPoint(0, 0, 1)
    common = [x, ProjPoint(0, 1, 1), ProjPoint(1, 1, 1)]
    p, q = (curves_through(common + [ProjPoint(*a, 1), ProjPoint(*b, 1)],
                           2)[0]
            for a, b in (((3, -2), (5, 7)), ((-4, 9), (2, -7))))
    records, residual = bezout_table(p, q)
    assert residual == 0 and len(records) == 4
    assert set(common) < {r.point for r in records}
    for r in records:
        assert r.multiplicity == 1
        assert resultant_multiplicity(p, q, r.point) == 1


def test_bezout_engineered_grid():
    # three horizontal and three vertical lines: 9 simple rational points
    horiz = HomPoly.line(0, 1, 0) * HomPoly.line(0, 1, -1) \
        * HomPoly.line(0, 1, -2)
    vert = HomPoly.line(1, 0, 0) * HomPoly.line(1, 0, -1) \
        * HomPoly.line(1, 0, -2)
    records, residual = bezout_table(horiz, vert)
    assert residual == 0 and len(records) == 9
    assert all(r.multiplicity == 1 for r in records)
    pts = {r.point.coords for r in records}
    assert pts == {(Fraction(i), Fraction(j), Fraction(1))
                   for i in range(3) for j in range(3)}


def test_bezout_irrational_residual():
    # X^2 - 2Z^2 and Y: both intersections are irrational
    p = mono((2, 0, 0)) - mono((0, 0, 2), 2)
    q = HomPoly.line(0, 1, 0)
    records, residual = bezout_table(p, q)
    assert records == [] and residual == 2


def test_bezout_points_at_infinity():
    # parallel-looking affine lines meet at infinity, rationally
    p = HomPoly.line(1, 1, 0)
    q = HomPoly.line(1, 1, -1)
    records, residual = bezout_table(p, q)
    assert residual == 0 and len(records) == 1
    assert records[0].point == ProjPoint(Fraction(-1), Fraction(1),
                                         Fraction(0))


def test_bezout_rejects_shared_component():
    """Both read the shared component l off their zero resultant; the
    oracle answers 0 off the common zeros before any resultant."""
    l = HomPoly.line(1, 2, 3)
    p, q = l * HomPoly.line(1, 0, 0), l * HomPoly.line(0, 1, 0)
    with pytest.raises(PreconditionError, match="^infinite intersection$"):
        bezout_table(p, q)
    oracle = "^common component: oracle needs coprime forms$"
    x = ProjPoint(1, 1, -1)  # on l
    with pytest.raises(PreconditionError, match=oracle):
        resultant_multiplicity(p, q, x)
    with pytest.raises(PreconditionError, match=oracle):
        resultant_multiplicity(HomPoly.zero(2), q, x)
    assert resultant_multiplicity(p, q, ProjPoint(1, 1, 1)) == 0


def _projected(p, q):
    """p and q after the shear from which `bezout_table` projects."""
    center = next(curves._shears(p, q))
    return curves._shear(p, center), curves._shear(q, center)


def test_resultant_matches_sympy_up_to_a_scalar():
    """The primitive polynomials in Z[x] agree, which is proportionality
    of the resultants."""
    rng = random.Random(43)
    pairs = [(random_poly(rng, rng.randint(1, 4)),
              random_poly(rng, rng.randint(1, 4))) for _ in range(20)]
    # a common zero (1:1:0) on the line Z = 0
    diag, z = HomPoly.line(1, -1, 0), mono((0, 0, 1))
    on_z = (diag * random_poly(rng, 1) + z * random_poly(rng, 1),
            diag * random_poly(rng, 2) + z * random_poly(rng, 2))
    pairs.append(on_z)
    for p, q in pairs:
        pt, qt = _projected(p, q)
        got = curves._resultant_xz(pt, qt)
        assert got, (p, q)
        assert len(got) - 1 <= p.degree * q.degree
        assert got == reference_resultant_xz(pt, qt), (p, q)
    # Z divides the resultant: its degree in x drops below mn
    m, n = on_z[0].degree, on_z[1].degree
    assert len(curves._resultant_xz(*_projected(*on_z))) <= m * n
    # a common component: the resultant vanishes identically
    line = HomPoly.line(1, 2, -3)
    p, q = _projected(line * random_poly(rng, 2), line * random_poly(rng, 1))
    assert curves._resultant_xz(p, q) == [] == reference_resultant_xz(p, q)


def test_resultant_needs_the_center_off_both_curves():
    # XY vanishes at [0:1:0]: its Y-leading coefficient is 0
    with pytest.raises(PreconditionError):
        curves._resultant_xz(mono((1, 1, 0)), HomPoly.line(1, 1, 1))
    with pytest.raises(PreconditionError):
        curves._resultant_xz(HomPoly.line(1, 1, 1), mono((1, 0, 2)))


def _binary_product(*forms):
    """Product of binary forms, each a coefficient list indexed by the
    power of X (the entry at i is the coefficient of X^i Z^(deg - i))."""
    out = [1]
    for f in forms:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_root_multiplicity_matches_fraction_reference():
    """Exact division in Z[x] counts the same multiplicities as Horner and
    synthetic division in Fractions, on seeded forms with a root of
    multiplicity 0 to 4, finite or at Z = 0."""
    rng = random.Random(71)
    seen = set()
    for case in range(100):
        num, den = rng.randint(-9, 9), rng.randint(1, 5)
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        u, v = (scale, Fraction(0)) if case % 4 == 0 else (num * scale,
                                                           den * scale)
        k = case % 5
        cofactor = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(1, 2))]
        root = Fraction(u, v) if v else None
        factor = [-root.numerator, root.denominator] if v else [1, 0]
        form = _binary_product(*cofactor, *[factor] * k)
        if not any(form):
            continue
        top = len(form) - 1
        binform = {(i, top - i): Fraction(c) for i, c in enumerate(form)
                   if c}
        res = upoly.primitive(upoly.trim(form))
        got = curves._root_multiplicity(res, top, u, v)
        assert got == reference_binary_root_multiplicity(binform, u, v)
        assert got >= k
        seen.add((k, v == 0))
    assert seen == {(k, at_z) for k in range(5) for at_z in (False, True)}


def test_bezout_table_and_oracle_take_no_coprimality_proof(monkeypatch):
    """Each reads a shared component off the resultant it computes, and
    the reduction that bezout_table's multiplicities run decides one by
    its Bezout cap, so nothing calls `coprime` on the benchmark's tangent
    pairs. A cubic irreducibility test shows that the spy sees calls."""
    callers = []
    real = curves.coprime

    def spy(p, q):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(p, q)

    monkeypatch.setattr(curves, "coprime", spy)
    for p, q in _bench_tangent_pairs(0):
        for r in bezout_table(p, q)[0]:
            resultant_multiplicity(p, q, r.point)
    assert callers == []
    assert cubic_is_irreducible(mono((0, 2, 1)) - mono((3, 0, 0)))
    assert callers == ["cubic_is_irreducible"]


def test_oracle_reads_one_resultant_per_point_on_bench_tangent_pairs(
        monkeypatch):
    """On the benchmark's tangent pairs (seed 0) the line from the first
    center through each listed point holds no other common zero, so the
    oracle reads one resultant per point, and agrees with mu."""
    calls, real = [], curves._resultant_xz
    monkeypatch.setattr(curves, "_resultant_xz",
                        lambda p, q: calls.append(p) or real(p, q))
    points = 0
    for p, q in _bench_tangent_pairs(0):
        for r in bezout_table(p, q)[0]:
            calls.clear()
            assert resultant_multiplicity(p, q, r.point) == r.multiplicity
            assert len(calls) == 1
            points += 1
    assert points >= 4


def _line_through(rng, x):
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    if a == b == 0:
        a = 1
    return HomPoly.line(a, b, -(a * x.coords[0] + b * x.coords[1]))


def _tangent_pairs(rng):
    """Coprime pairs through a rational point x with a shared tangent there:
    both smooth, or singular (order 2) on one or both sides, as in the
    benchmark's tangent pairs."""
    out = []
    for d1, d2 in ((2, 3), (3, 3), (3, 4), (4, 4)):
        for s1, s2 in ((False, False), (True, False), (False, True),
                       (True, True)):
            while True:
                x = ProjPoint(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                              Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                              1)
                tangent, other = _line_through(rng, x), _line_through(rng, x)

                def curve(d, singular):
                    sq = other * other
                    if singular:
                        return (sq * random_poly(rng, d - 2, 3)
                                + tangent * other * random_poly(rng, d - 2, 3)
                                + tangent * tangent
                                * random_poly(rng, d - 2, 3))
                    return (tangent * random_poly(rng, d - 1, 3)
                            + sq * random_poly(rng, d - 2, 3))

                p, q = curve(d1, s1), curve(d2, s2)
                if not p.is_zero and not q.is_zero and \
                        gcd_homogeneous(p, q).degree == 0:
                    out.append((p, q))
                    break
    return out


def _line_products(rng):
    """Coprime products of small rational lines: many rational common
    zeros, some where several lines meet."""
    out = []
    while len(out) < 14:
        p = functools.reduce(HomPoly.__mul__, [random_poly(rng, 1, 2)
                                               for _ in range(2)])
        q = functools.reduce(HomPoly.__mul__, [random_poly(rng, 1, 2)
                                               for _ in range(3)])
        if gcd_homogeneous(p, q).degree == 0:
            out.append((p, q))
    return out


def test_bezout_table_matches_expr_reference(monkeypatch):
    """Records, residuals, and both multiplicity algorithms at every
    record agree with the package as it ran on `Expr`."""
    rng = random.Random(67)
    pairs = (_tangent_pairs(rng) + _line_products(rng)
             + _pairs_centered_off_z(rng, 10))
    assert any(next(curves._shears(p, q))[1] for p, q in pairs)
    new = []
    for p, q in pairs:
        records, residual = bezout_table(p, q)
        mus = [(intersection_multiplicity(p, q, r.point),
                resultant_multiplicity(p, q, r.point))
               for r in records]
        new.append((records, residual, mus))
    assert sum(len(records) for records, _, _ in new) >= 80
    with monkeypatch.context() as patched:
        use_expr_internals(patched)
        for (p, q), (records, residual, mus) in zip(pairs, new):
            assert reference_bezout_table(p, q) == (records, residual)
            assert mus == [
                (intersection_multiplicity(p, q, r.point),
                 resultant_multiplicity(p, q, r.point))
                for r in records]
            assert all(a == b == r.multiplicity
                       for (a, b), r in zip(mus, records))


def test_library_builds_no_sympy_expressions():
    """In a fresh interpreter, the curve layer, the gcd and `coprime` on a
    shared pair run without loading any sympy module."""
    code = """
import sys
from fractions import Fraction
from lelongplane.curves import (bezout_table, coprime,
                                intersection_multiplicity,
                                resultant_multiplicity)
from lelongplane.exactpoly import HomPoly, ProjPoint, gcd_homogeneous
mono = HomPoly.monomial
# two conics tangent to Y = 0 at the origin, contact of order 4
p = mono((0, 1, 1)) - mono((2, 0, 0))
q = mono((0, 1, 1)) - mono((2, 0, 0)) - mono((0, 2, 0))
x = ProjPoint(0, 0, 1)
assert intersection_multiplicity(p, q, x) == 4
assert resultant_multiplicity(p, q, x) == 4
records, residual = bezout_table(p, q)
assert [(r.point, r.multiplicity) for r in records] == [(x, 4)]
line = HomPoly.line(1, 1, 1)
assert gcd_homogeneous(p * line, q * line) == line.monic()
assert not coprime(p * line, q * line) and coprime(p, q)
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""
    src = str(Path(curves.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
