"""Geometric properties of plane curves over Q.

A cubic is irreducible over C iff its Hessian is not zero and shares no
component with it; `exactpoly.coprime` decides that, with no sympy. Line
components of other degrees and smoothness are decided by an elimination
procedure (substitute a parametrized line, then Groebner bases and
univariate gcds on the coefficient system), so the answers are certified
over the complex numbers even though all data is rational. Those systems,
the rational factorization in `find_line_components` and
`exactpoly.gcd_homogeneous` run in sympy's polynomial rings
(`sympy.polys.rings`) over Q[a, b], Q[X, Y] and Q[X, Y, Z], imported on
first use through `exactpoly.sympy_rings`: only `analyze_curve`,
`is_smooth`, `find_line_components`, `has_complex_line_factor` and
`gcd_homogeneous` load sympy, and no CLI command calls them. No sympy
expression is built.

Local intersection numbers are decided in two stages. The first reads the
tangent cones, the lowest-degree parts of the two local expansions: when
they share no line, mu_x = ord_x P * ord_x Q (Fulton, Algebraic Curves,
3.3, property 5), decided by Euclid over Q on binary forms. Only where the
cones share a line does the classical recursive reduction in affine
coordinates run, on the two whole forms with no factorization; only a
pair that shares a component takes a gcd first. An independent oracle
reads mu from sheared resultants. Those resultants are computed here:
Sylvester determinants at integer points, taken fraction-free by
`linalg.int_det`, then interpolated. `bezout_table` reads the rational
common zeros from the rational roots of the resultant and of the fiber
gcds, both found in Z[s]: a primitive remainder sequence for gcds and
square-free parts, and roots modulo a prime lifted by Newton's iteration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, _gcd_degree_mod, coprime,
                        evaluate, exact_divide, from_ring, gcd_homogeneous,
                        partial_derivatives, sympy_rings, to_ring)
from .linalg import int_det, int_rank
from .linsys import VanishingCondition, build_system


def _qq(c: Fraction):
    return sympy_rings().QQ(c.numerator, c.denominator)


@dataclass(frozen=True)
class IntersectionRecord:
    point: ProjPoint
    multiplicity: int


@dataclass(frozen=True)
class CurveAnalysis:
    poly: HomPoly
    is_geometrically_irreducible: bool | None
    line_components: tuple[HomPoly, ...]
    singular_points_over_q: tuple[ProjPoint, ...]
    smooth: bool


def conic_rank(p: HomPoly) -> int:
    """Rank of the symmetric matrix of a nonzero conic.

    3 = irreducible, 2 = two distinct lines (over C), 1 = a double line.
    """
    if p.degree != 2:
        raise PreconditionError("conic_rank requires a degree-2 form")
    if p.is_zero:
        raise PreconditionError("conic_rank requires a nonzero form")
    t = p.terms
    half = Fraction(1, 2)

    def c(e):
        return t.get(e, Fraction(0))

    m = [
        [c((2, 0, 0)), half * c((1, 1, 0)), half * c((1, 0, 1))],
        [half * c((1, 1, 0)), c((0, 2, 0)), half * c((0, 1, 1))],
        [half * c((1, 0, 1)), half * c((0, 1, 1)), c((0, 0, 2))],
    ]
    return int_rank(m)


def irreducible_conic_through(points) -> HomPoly | None:
    """The first irreducible member of the kernel basis of the conics
    through the points, or None."""
    sys2 = build_system(2, [VanishingCondition(x, 1) for x in points])
    return next((b for b in sys2.kernel_basis if conic_rank(b) == 3), None)


def has_complex_line_factor(p: HomPoly) -> bool:
    """True iff some line over C divides p (p nonzero, degree >= 1).

    Each chart of lines gives a coefficient system in Q[a, b]: the line
    divides p iff every coefficient of p restricted to it vanishes. Lines
    aX + bY + Z exist iff the reduced Groebner basis is not [1], lines
    aX + Y iff the gcd in a has positive degree; X = 0 is read off.
    """
    if p.is_zero or p.degree < 1:
        raise PreconditionError("needs a nonzero form of positive degree")
    d = p.degree
    rings = sympy_rings()
    qab, ra, rb = rings.ab, rings.a, rings.b
    # lines aX + bY + Z: coefficient of X^m Y^(d-m) in p(X, Y, -aX - bY)
    coeffs = [qab.zero] * (d + 1)
    for (i, j, k), c in p.terms.items():
        cc = _qq(c) * (-1) ** k
        for l in range(k + 1):
            coeffs[i + l] += cc * math.comb(k, l) * ra ** l * rb ** (k - l)
    eqs = [e for e in coeffs if e]
    if not eqs or rings.groebner(eqs, qab) != [qab.one]:
        return True
    # lines aX + Y: coefficient of X^m Z^(d-m) in p(X, -aX, Z)
    coeffs = [qab.zero] * (d + 1)
    for (i, j, k), c in p.terms.items():
        coeffs[i + j] += _qq(c) * (-ra) ** j
    nonzero = [e for e in coeffs if e]
    if not nonzero:
        return True
    g = nonzero[0]
    for e in nonzero[1:]:
        g = g.gcd(e)
    if g.degree(ra) >= 1:
        return True
    # the single remaining line X = 0
    return all(e[0] >= 1 for e in p.terms)


def find_line_components(p: HomPoly) -> tuple[list[HomPoly], bool]:
    """All rational line factors (with multiplicity) and a completeness flag.

    The flag is True when the elimination test certifies that no further
    line factor exists over C after the rational ones are divided out.
    """
    if not 1 <= p.degree <= 6:
        raise PreconditionError("degree must be between 1 and 6")
    if p.is_zero:
        raise PreconditionError("zero polynomial")
    lines: list[HomPoly] = []
    residual = p
    for fac, mult in to_ring(p).factor_list()[1]:
        if sum(fac.LM) == 1:  # factors of a form are forms
            hp = from_ring(fac).monic()
            for _ in range(mult):
                lines.append(hp)
                residual = exact_divide(residual, hp)
    lines.sort(key=lambda l: tuple(l.coeff_vector()))
    if residual.degree == 0:
        return lines, True
    return lines, not has_complex_line_factor(residual)


def cubic_is_irreducible(p: HomPoly) -> bool:
    """True iff the cubic is irreducible over C: its Hessian H is not zero
    and shares no component with it.

    A reducible cubic has a line component, and every point of that line
    is singular or a flex, so H vanishes on it; H is the zero form only
    for cones, which are reducible, and coprime(p, 0) is False. An
    irreducible cubic has finitely many singular points and flexes, so
    it does not divide H (Fulton, Algebraic Curves, 5.3).
    """
    if p.degree != 3:
        raise PreconditionError("cubic_is_irreducible requires degree 3")
    if p.is_zero:
        raise PreconditionError("zero polynomial")
    return coprime(p, _hessian(p))


def _hessian(p: HomPoly) -> HomPoly:
    """det of the matrix of second partials, a form of degree 3(d - 2)."""
    (a, b, c), (_, d, e), (_, _, f) = [partial_derivatives(q)
                                       for q in partial_derivatives(p)]
    return a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)


def is_smooth(p: HomPoly) -> bool:
    """True iff the partials have no common projective zero over C."""
    if p.degree < 1:
        raise PreconditionError("needs positive degree")
    parts = partial_derivatives(p)
    # chart Z = 1: the unit ideal iff the reduced basis is [1]
    rings = sympy_rings()
    qxy = rings.xy
    eqs = [qxy({(i, j): _qq(c) for (i, j, _), c in q.terms.items()})
           for q in parts]
    eqs = [e for e in eqs if e]
    if not eqs or rings.groebner(eqs, qxy) != [qxy.one]:
        return False
    # chart Y = 1, Z = 0
    nonzero = []
    for q in parts:
        coeffs = [Fraction(0)] * p.degree
        for (i, _, k), c in q.terms.items():
            if k == 0:
                coeffs[i] = c
        f = _int_poly(coeffs)
        if f:
            nonzero.append(f)
    if not nonzero or len(functools.reduce(_int_gcd, nonzero)) > 1:
        return False
    # the point (1:0:0)
    one = ProjPoint(1, 0, 0)
    return not all(evaluate(q, one) == 0 for q in parts)


def rational_singular_points(p: HomPoly) -> list[ProjPoint]:
    """Rational common zeros of the partial derivatives.

    When every pair of partials shares a component (the singular locus
    contains a curve) the finite search does not apply and [] is returned;
    callers must not read that as smoothness.
    """
    px, py, pz = partial_derivatives(p)
    pairs = [(px, py, pz), (px, pz, py), (py, pz, px)]
    for f, g, h in pairs:
        if f.is_zero or g.is_zero:
            continue
        if coprime(f, g):
            records, _ = bezout_table(f, g)
            return sorted((r.point for r in records
                           if evaluate(h, r.point) == 0),
                          key=lambda q: q.coords)
    return []


def analyze_curve(p: HomPoly) -> CurveAnalysis:
    if p.is_zero or p.degree < 1:
        raise PreconditionError("needs a nonzero form of positive degree")
    lines, complete = find_line_components(p)
    smooth = is_smooth(p)
    if smooth:
        irr: bool | None = True
    elif p.degree == 1:
        irr = True
    elif p.degree == 2:
        irr = conic_rank(p) == 3
    elif p.degree == 3:
        irr = cubic_is_irreducible(p)
    elif lines:
        irr = False
    elif complete:
        irr = None  # no line factor, but higher-degree splits are undecided
    else:
        irr = False
    sing = [] if smooth else rational_singular_points(p)
    return CurveAnalysis(poly=p, is_geometrically_irreducible=irr,
                         line_components=tuple(lines),
                         singular_points_over_q=tuple(sing), smooth=smooth)


# ---------------------------------------------------------------------------
# Local intersection numbers: recursive reduction in affine coordinates.
# Bivariate polynomials are dicts {(i, j): Fraction} in local coordinates.


def _xpart(f):
    return {i: c for (i, j), c in f.items() if j == 0}


def _ydiv(f):
    return {(i, j - 1): c for (i, j), c in f.items()}


def _to_int_local(f):
    """Scale a local Fraction dict to coprime integer coefficients."""
    if not f:
        return {}
    lcm = math.lcm(*(c.denominator for c in f.values()))
    vals = {k: int(c * lcm) for k, c in f.items()}
    content = math.gcd(*vals.values())
    return {k: v // content for k, v in vals.items()}


def _local_mu(f, g):
    """Intersection number of two local bivariate integer polynomials at
    the origin. Cross-multiplied reductions with content division keep the
    arithmetic in small integers; terminates because the homogeneous inputs
    were coprime.
    """
    if not f or not g:
        return math.inf
    if f.get((0, 0), 0) != 0 or g.get((0, 0), 0) != 0:
        return 0
    f0, g0 = _xpart(f), _xpart(g)
    if not f0 and not g0:
        return math.inf  # both divisible by the second variable
    if not f0:
        return min(g0) + _local_mu(_ydiv(f), g)
    if not g0:
        return min(f0) + _local_mu(f, _ydiv(g))
    r, s = max(f0), max(g0)
    if r > s:
        return _local_mu(g, f)
    shift = s - r
    a, b = f0[r], g0[s]
    g_new = {k: a * v for k, v in g.items()}
    for (i, j), c in f.items():
        key = (i + shift, j)
        g_new[key] = g_new.get(key, 0) - b * c
    g_new = {k: v for k, v in g_new.items() if v != 0}
    if g_new:
        content = math.gcd(*g_new.values())
        if content > 1:
            g_new = {k: v // content for k, v in g_new.items()}
    return _local_mu(f, g_new)


def _tangent_cone(local):
    """Order m and the lowest-degree part of a nonzero local expansion, as
    the coefficient list of the binary form in (s, t), indexed by the
    power of s: entry i is the coefficient of s^i t^(m-i)."""
    m = min(i + j for i, j in local)
    cone = [Fraction(0)] * (m + 1)
    for (i, j), c in local.items():
        if i + j == m:
            cone[i] = c
    return m, cone


def _trim(a):
    a = list(a)
    while a[-1] == 0:
        a.pop()
    return a


def _cones_coprime(a, b) -> bool:
    """True iff two nonzero binary forms share no linear factor over C.

    The factor t divides both iff both lack the s^m term; every other
    shared line is a common root of the forms at t = 1, so Euclid over Q
    on the dehomogenized forms decides the rest.
    """
    if a[-1] == 0 and b[-1] == 0:
        return False
    a, b = _trim(a), _trim(b)
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


def intersection_multiplicity(p: HomPoly, q: HomPoly, x: ProjPoint):
    """The local intersection number mu_x(p, q).

    0 iff x is not a common zero; math.inf iff a common component passes
    through x. When the tangent cones at x share no line the answer is
    ord_x p * ord_x q (Fulton, Algebraic Curves, 3.3, property 5). A
    shared component through x puts its cone into both cones, and one
    missing x is a unit at x, so this holds without a gcd. Only otherwise
    does the reduction run.
    """
    if p.is_zero or q.is_zero:
        other = q if p.is_zero else p
        if other.is_zero or evaluate(other, x) == 0:
            return math.inf
        return 0
    if evaluate(p, x) != 0 or evaluate(q, x) != 0:
        return 0
    return _orders_and_mu(p, q, x)[2]


def _orders_and_mu(p: HomPoly, q: HomPoly, x: ProjPoint, with_mu=True):
    """(ord_x p, ord_x q, mu_x(p, q)) from one local expansion of each
    form; the order of a zero form is math.inf. With with_mu=False the
    third entry is None; otherwise p and q must be nonzero. mu is 0 where
    either order is 0, ord_x p * ord_x q where the tangent cones share no
    line, and the reduction's value elsewhere."""
    op, cone_p = _order_and_cone(p, x)
    oq, cone_q = _order_and_cone(q, x)
    if not with_mu:
        return op, oq, None
    if op == 0 or oq == 0:
        return op, oq, 0
    if _cones_coprime(cone_p, cone_q):
        return op, oq, op * oq
    return op, oq, _reduction_mu(p, q, x)


def _order_and_cone(p: HomPoly, x: ProjPoint):
    if p.is_zero:
        return math.inf, None
    return _tangent_cone(p.local_expansion(x)[1])


def _reduction_mu(p: HomPoly, q: HomPoly, x: ProjPoint):
    """mu_x(p, q) by the recursive reduction on the two whole forms, for
    nonzero p and q that vanish at x. A common component through x gives
    math.inf; one that misses x is divided out first."""
    if not coprime(p, q):
        g = gcd_homogeneous(p, q)
        if evaluate(g, x) == 0:
            return math.inf
        p = exact_divide(p, g)
        q = exact_divide(q, g)
    _, fp = p.local_expansion(x)
    _, fq = q.local_expansion(x)
    return _local_mu(_to_int_local(fp), _to_int_local(fq))


# ---------------------------------------------------------------------------
# Sheared-resultant machinery: enumeration of rational common zeros and the
# independent multiplicity oracle.


def _frame_sub(p: HomPoly, s: int) -> HomPoly:
    """Substitute Z -> s*X + s^2*Y + Z (a determinant-1 change of frame)."""
    if s == 0:
        return p
    terms: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), coef in p.terms.items():
        for a in range(k + 1):
            for b in range(k - a + 1):
                c = k - a - b
                w = math.comb(k, a) * math.comb(k - a, b)
                key = (i + a, j + b, c)
                val = coef * w * s ** (a + 2 * b)
                terms[key] = terms.get(key, Fraction(0)) + val
    return HomPoly(p.degree, terms)


def _frame_point_back(x: ProjPoint, s: int) -> ProjPoint:
    """Map a zero of the transformed curves back to original coordinates."""
    a, b, c = x.coords
    return ProjPoint(a, b, s * a + s * s * b + c)


def _frame_point_fwd(x: ProjPoint, s: int) -> ProjPoint:
    a, b, c = x.coords
    return ProjPoint(a, b, c - s * a - s * s * b)


def _choose_frame(p: HomPoly, q: HomPoly, x: ProjPoint | None = None) -> int:
    """Smallest s >= 0 such that after the frame change neither curve
    contains the reference line Z = 0 and, when given, x lies off it. Each
    line of either curve and the point x rule out at most two values of s,
    so the scan is short."""
    d = p.degree + q.degree
    for s in range(2 * d + 3):
        ok = x is None or _frame_point_fwd(x, s).coords[2] != 0
        for f in (p, q):
            vals = [evaluate(f, ProjPoint(t, 1, s * t + s * s))
                    for t in range(f.degree + 1)]
            vals.append(evaluate(f, ProjPoint(1, 0, s)))
            if all(v == 0 for v in vals):
                ok = False
                break
        if ok:
            return s
    raise PreconditionError("could not find a valid frame")


def _shear(p: HomPoly, t: int) -> HomPoly:
    """Substitute X -> X + t*Y."""
    if t == 0:
        return p
    terms: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in p.terms.items():
        for l in range(i + 1):
            key = (i - l, j + l, k)
            val = c * math.comb(i, l) * t ** l
            terms[key] = terms.get(key, Fraction(0)) + val
    return HomPoly(p.degree, terms)


def _resultant_xz(p: HomPoly, q: HomPoly):
    """Res_Y(p, q) as a binary form dict {(i, k): Fraction} of degree mn in
    X and Z; {} when p and q share a component.

    The Y-leading coefficients p(0, 1, 0) and q(0, 1, 0) must be nonzero:
    then the Y-degrees m and n survive every specialization, so the
    resultant at (x, 1) is that of the univariate forms p(x, Y, 1) and
    q(x, Y, 1) (Cox, Little and O'Shea, ch. 3, sec. 6). The integer-scaled
    forms are evaluated at mn + 1 consecutive integers x, each Sylvester
    determinant is taken fraction-free, and Newton's forward differences
    interpolate the values; the scales are divided out at the end.
    """
    m, n = p.degree, q.degree
    if (0, m, 0) not in p.terms or (0, n, 0) not in q.terms:
        raise PreconditionError("the center [0:1:0] lies on a curve")
    (lp, ip), (lq, iq) = _int_scaled(p), _int_scaled(q)
    size, start = m * n + 1, -(m * n // 2)
    values = []
    for x in range(start, start + size):
        a, b = _y_coeffs(ip, m, x), _y_coeffs(iq, n, x)
        rows = [[0] * r + a + [0] * (n - 1 - r) for r in range(n)]
        rows += [[0] * r + b + [0] * (m - 1 - r) for r in range(m)]
        values.append(int_det(rows))
    # N! * Res(X, 1) = sum over k of (N!/k!) * Delta^k * (X - start)_k
    top = size - 1
    acc = [0] * size
    falling = [1]  # coefficients of (X - start)_k by power of X
    weight = math.factorial(top)
    for k in range(size):
        diff = values[0]
        for i, c in enumerate(falling):
            acc[i] += weight * diff * c
        values = [v - u for u, v in zip(values, values[1:])]
        if k < top:
            root = start + k
            falling = [-root * falling[0]] + [
                falling[i - 1] - root * falling[i]
                for i in range(1, len(falling))] + [falling[-1]]
            weight //= k + 1
    den = math.factorial(top) * lp ** n * lq ** m
    return {(i, top - i): Fraction(c, den) for i, c in enumerate(acc) if c}


def _int_scaled(p: HomPoly):
    """(L, integer terms of L * p), L the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in p.terms.items()}


def _y_coeffs(terms, degree: int, x, z=1) -> list:
    """Coefficients of a form, given by its terms, at (x, Y, z), from
    Y^degree down."""
    out = [0] * (degree + 1)
    for (i, j, k), c in terms.items():
        out[degree - j] += c * x ** i * z ** k
    return out


def _binary_root_multiplicity(binform, u: Fraction, v: Fraction) -> int:
    """Multiplicity of the linear factor v*X - u*Z in a binary form."""
    if not binform:
        raise PreconditionError("zero binary form")
    if v == 0:
        return min(k for (_, k) in binform)
    x0 = u / v
    deg = max(i + k for (i, k) in binform)
    coeffs = [Fraction(0)] * (deg + 1)
    for (i, _), c in binform.items():
        coeffs[i] += c
    mult = 0
    while coeffs:
        val = Fraction(0)
        for c in reversed(coeffs):
            val = val * x0 + c
        if val != 0:
            return mult
        # synthetic division by (X - x0)
        new = [Fraction(0)] * (len(coeffs) - 1)
        b = Fraction(0)
        for i in range(len(coeffs) - 1, 0, -1):
            b = coeffs[i] + b * x0
            new[i - 1] = b
        coeffs = new
        mult += 1
    return mult


def _sheared_pair(p: HomPoly, q: HomPoly):
    """(frame, t, p_t, q_t): the forms after the frame change of
    _choose_frame and the first valid shear t, so that [0:1:0] lies on
    neither and _resultant_xz applies."""
    frame = _choose_frame(p, q)
    pf, qf = _frame_sub(p, frame), _frame_sub(q, frame)
    t = _valid_shears(pf, qf, 1)[0]
    return frame, t, _shear(pf, t), _shear(qf, t)


def _shares_component(p: HomPoly, q: HomPoly) -> bool:
    """True iff two nonzero forms share a component.

    After _sheared_pair the point [0:1:0] lies on neither curve, so every
    component has positive degree in Y, and both Y-degrees m and n
    survive each specialization X = x, Z = 1. The pair shares a component
    iff its resultant in Y, a form of degree mn in X and Z, is zero: iff
    it vanishes at mn + 1 integers x. It vanishes at x iff the fibers
    p(x, Y, 1) and q(x, Y, 1) have a common root, that is, a nonconstant
    gcd over Z; a constant one ends the test. The gcd decides each sample
    several times faster than a Sylvester determinant on large
    coefficients.
    """
    _, _, pt, qt = _sheared_pair(p, q)
    return all(len(_int_gcd(_fiber(pt, x, 1), _fiber(qt, x, 1))) > 1
               for x in range(pt.degree * qt.degree + 1))


def _valid_shears(p: HomPoly, q: HomPoly, count: int):
    """First `count` shear parameters whose projection center lies on
    neither curve."""
    out = []
    t = 0
    while len(out) < count:
        pt = ProjPoint(t, 1, 0)
        if evaluate(p, pt) != 0 and evaluate(q, pt) != 0:
            out.append(t)
        t += 1
        if t > count + p.degree + q.degree + 4:
            break
    if len(out) < count:
        raise PreconditionError("could not find enough valid shears")
    return out


def resultant_multiplicity(p: HomPoly, q: HomPoly, x: ProjPoint,
                           strict: bool = False) -> int:
    """Independent oracle for mu_x(p, q) via sheared resultants.

    For each shear t the multiplicity of the projection line of x in
    Res_Y(p_t, q_t) is an upper bound for mu_x, exact for all but finitely
    many t. With strict=True the full guaranteed number of shears
    (deg p * deg q) is taken and the minimum is exact; otherwise the scan
    stops once two distinct shears agree on the running minimum.
    """
    if evaluate(p, x) != 0 or evaluate(q, x) != 0:
        return 0
    if not coprime(p, q):
        raise PreconditionError("common component: oracle needs coprime forms")
    # every projection center lies on the line Z = 0, so all common zeros
    # on that line share each projection: x must lie off it
    frame = _choose_frame(p, q, x)
    p, q = _frame_sub(p, frame), _frame_sub(q, frame)
    x = _frame_point_fwd(x, frame)
    m, n = p.degree, q.degree
    total = max(1, m * n)
    best = None
    hits = 0
    x0, y0, z0 = x.coords
    checked = 0
    t = 0
    while True:
        center = ProjPoint(t, 1, 0)
        if evaluate(p, center) != 0 and evaluate(q, center) != 0:
            r = _resultant_xz(_shear(p, t), _shear(q, t))
            mult = _binary_root_multiplicity(r, x0 - t * y0, z0)
            if best is None or mult < best:
                best, hits = mult, 1
            elif mult == best:
                hits += 1
            checked += 1
            if not strict and hits >= 2:
                return best
            if checked >= total:
                return best
        t += 1


# Univariate polynomials over Z: coefficient lists indexed by the power,
# with a nonzero last entry; [] is the zero polynomial.


def _int_poly(coeffs) -> list[int]:
    """Rational coefficients, indexed by the power, as the primitive
    integer polynomial with a positive leading coefficient."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [x // g for x in a] if a[-1] > 0 else [-x // g for x in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b."""
    a = list(a)
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [b[-1] * x for x in a]
        for i, x in enumerate(b):
            a[shift + i] -= c * x
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd, with positive leading coefficient, of two nonzero
    integer polynomials, by the primitive remainder sequence (Knuth, TAOCP
    vol. 2, 4.6.1): Euclid over Q, kept in Z by pseudo-division and
    content removal."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive divisor b of a; by Gauss's lemma every
    quotient coefficient is an integer."""
    a = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = a[k + len(b) - 1] // b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    return quo


def _eval_mod(f: list[int], x: int, mod: int) -> int:
    val = 0
    for c in reversed(f):
        val = (val * x + c) % mod
    return val


def _primes():
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _rational_roots(f: list[int]) -> list[Fraction]:
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
    common = _int_gcd(f, [i * c for i, c in enumerate(f)][1:])
    g = _exact_quotient(f, common) if len(common) > 1 else f
    lead = g[-1]
    dg = [i * c for i, c in enumerate(g)][1:]
    for p in _primes():
        if lead % p == 0:
            continue
        dmod = [c % p for c in dg]
        while dmod and dmod[-1] == 0:
            dmod.pop()
        if dmod and _gcd_degree_mod([c % p for c in g], dmod, p) == 0:
            break
    bound = 2 * (abs(lead) + max(abs(c) for c in g))
    roots = []
    for start in range(p):
        if _eval_mod(g, start, p):
            continue
        r, mod = start, p
        while mod <= bound:
            mod *= mod
            r = (r - _eval_mod(g, r, mod)
                 * pow(_eval_mod(dg, r, mod), -1, mod)) % mod
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


def _fiber(p: HomPoly, x: Fraction, z: Fraction) -> list[int]:
    """p(x, s, z) as a primitive integer polynomial in s."""
    return _int_poly(reversed(_y_coeffs(p.terms, p.degree, x, z)))


def bezout_table(p: HomPoly, q: HomPoly):
    """All rational common zeros with exact multiplicities, plus the residual
    deg(p)*deg(q) - sum(multiplicities) accounting for non-rational zeros."""
    if p.is_zero or q.is_zero:
        raise PreconditionError("needs nonzero forms")
    if not coprime(p, q):
        raise PreconditionError("infinite intersection")
    m, n = p.degree, q.degree
    if m == 0 or n == 0:
        return [], 0
    frame, t, pt, qt = _sheared_pair(p, q)
    res = _resultant_xz(pt, qt)
    if not res:
        raise PreconditionError("vanishing resultant for coprime forms")
    # projection roots: finite X/Z values plus possibly the line Z = 0
    points: set[ProjPoint] = set()
    z_exp = min(k for (_, k) in res)
    coeffs = [Fraction(0)] * (m * n + 1)
    for (i, _), c in res.items():
        coeffs[i] = c
    finite_roots = _rational_roots(_int_poly(coeffs))

    def fiber_points(x, z):
        """Common rational zeros of p_t, q_t on the line (x, s, z)."""
        pu, qu = _fiber(pt, x, z), _fiber(qt, x, z)
        if not pu or not qu:
            return []
        return _rational_roots(_int_gcd(pu, qu))

    for u in finite_roots:
        for s in fiber_points(u, Fraction(1)):
            # the sheared point (u, s, 1) maps back through X -> X + tY,
            # then through the frame change
            points.add(_frame_point_back(ProjPoint(u + t * s, s, 1), frame))
    if z_exp >= 1:
        for s in fiber_points(Fraction(1), Fraction(0)):
            points.add(_frame_point_back(ProjPoint(1 + t * s, s, 0), frame))
    records = []
    for x in sorted(points, key=lambda pp: pp.coords):
        if evaluate(p, x) != 0 or evaluate(q, x) != 0:
            continue
        mu = intersection_multiplicity(p, q, x)
        records.append(IntersectionRecord(point=x, multiplicity=int(mu)))
    residual = m * n - sum(r.multiplicity for r in records)
    if residual < 0:
        raise PreconditionError("multiplicity bookkeeping error")
    return records, residual
