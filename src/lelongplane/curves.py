"""Geometric properties of plane curves over Q.

A cubic is irreducible over C iff its Hessian is not zero and shares no
component with it; `coprime` decides that: a modular resultant on a
line, else the exact `exactpoly.gcd_homogeneous`, which reads the same
sheared fibers (`_shear`, `_fiber`) as the resultants here.

Local intersection numbers are decided in two stages. The first reads the
tangent cones, the lowest-degree parts of the local expansions, from
`exactpoly.order_and_cone` without the rest: when they share no line,
mu_x = ord_x P * ord_x Q (Fulton, Algebraic Curves, 3.3, property 5),
decided by a gcd in Z[s] of the integer cones. Only where the cones share
a line does Fulton's reduction run, on the integer expansions
(`exactpoly.int_expansion`) of the two whole forms, capped at their Bezout
bound, which only a shared component through the point passes; it takes no
factorization and no gcd. An independent oracle reads mu from sheared
resultants of the forms' integer terms, in Z[x]: Sylvester determinants at
integer points, taken fraction-free by `linalg.int_det`, then
interpolated; it counts a root's multiplicity by exact division. It and
`bezout_table` read a shared component off the zero resultant, with no
separate coprimality proof. `bezout_table` reads the rational common zeros
from the rational roots of the resultant and of the fiber gcds, both found
in Z[s] by the kernels of `upoly`: a primitive remainder sequence for
gcds and square-free parts, and roots modulo a prime lifted by Newton's
iteration.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .config import curves_through
from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, _fiber, _shear, _shears,
                        _y_coeffs, evaluate, gcd_homogeneous, int_expansion,
                        monomials, order_and_cone, partial_derivatives)
from .linalg import int_det, int_rank
from .record import Record
from .upoly import (divide, gcd_degree_mod, int_gcd, int_poly,
                    rational_roots, trim)


class IntersectionRecord(Record):
    point: ProjPoint
    multiplicity: int


def conic_rank(p: HomPoly) -> int:
    """Rank of the symmetric matrix of a nonzero conic.

    3 = irreducible, 2 = two distinct lines (over C), 1 = a double line.
    """
    if p.degree != 2:
        raise PreconditionError("conic_rank requires a degree-2 form")
    if p.is_zero:
        raise PreconditionError("conic_rank requires a nonzero form")
    # twice the matrix, scaled by den: the rank does not change
    c = [p.ints.get(e, 0) for e in monomials(2)]  # XX XY XZ YY YZ ZZ
    return int_rank([[2 * c[0], c[1], c[2]], [c[1], 2 * c[3], c[4]],
                     [c[2], c[4], 2 * c[5]]])


def irreducible_conic_through(points) -> HomPoly | None:
    """The first irreducible member of the basis of the conics through the
    points (`config.curves_through`), or None."""
    return next((b for b in curves_through(points, 2) if conic_rank(b) == 3),
                None)


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


# ---------------------------------------------------------------------------
# Local intersection numbers: Fulton's reduction in affine coordinates.
# Bivariate polynomials are dicts {(i, j): int} in local coordinates.


def _xpart(f):
    return {i: c for (i, j), c in f.items() if j == 0}


def _ydiv(f):
    return {(i, j - 1): c for (i, j), c in f.items()}


def _local_mu(f, g):
    """Intersection number of two local bivariate integer polynomials at
    the origin by Fulton's reduction; cross-multiplied steps with content
    division keep the integers small. A finite mu is at most B, the
    product of the total degrees (Bezout; a shared component that misses
    the origin is a unit there), and each division by the second variable
    adds at least 1 to the count, so a count above B means math.inf.
    """
    if not f or not g:
        return math.inf
    bound = max(i + j for i, j in f) * max(i + j for i, j in g)
    mu = 0
    while g and mu <= bound:
        if f.get((0, 0), 0) != 0 or g.get((0, 0), 0) != 0:
            return mu
        f0, g0 = _xpart(f), _xpart(g)
        if not f0 and not g0:
            return math.inf  # both divisible by the second variable
        if not f0:
            mu, f = mu + min(g0), _ydiv(f)
        elif not g0:
            mu, g = mu + min(f0), _ydiv(g)
        else:
            r, s = max(f0), max(g0)
            if r > s:
                f, g, f0, g0, r, s = g, f, g0, f0, s, r
            a, b = f0[r], g0[s]
            g_new = {k: a * v for k, v in g.items()}
            for (i, j), c in f.items():
                key = (i + s - r, j)
                g_new[key] = g_new.get(key, 0) - b * c
            g = {k: v for k, v in g_new.items() if v != 0}
            content = math.gcd(*g.values())
            if content > 1:
                g = {k: v // content for k, v in g.items()}
    return math.inf


def _cones_coprime(a, b) -> bool:
    """True iff two nonzero integer binary forms share no line over C.

    The factor t divides both iff both lack the s^m term; every other
    shared line is a common root of the forms at t = 1, so their gcd in
    Z[s] decides the rest.
    """
    if a[-1] == 0 and b[-1] == 0:
        return False
    return len(int_gcd(trim(a), trim(b))) == 1


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
    return _orders_and_mu(p, q, x)[2]


def _orders_and_mu(p: HomPoly, q: HomPoly, x: ProjPoint, with_mu=True):
    """`_point_mu` from order_and_cone of each form and `_reduction_mu`."""
    return _point_mu(order_and_cone(p, x), order_and_cone(q, x), with_mu,
                     lambda: _reduction_mu(p, q, x))


def _point_mu(cone_p, cone_q, with_mu, reduction):
    """(ord P, ord Q, mu) from each form's (order, tangent cone) at a point,
    order math.inf for a zero form. mu is None without with_mu (else both
    forms are nonzero), 0 where an order is 0, ord P * ord Q where the
    cones share no line, and reduction() elsewhere."""
    (op, cp), (oq, cq) = cone_p, cone_q
    if not with_mu:
        return op, oq, None
    if op == 0 or oq == 0:
        return op, oq, 0
    if _cones_coprime(cp, cq):
        return op, oq, op * oq
    return op, oq, reduction()


def _reduction_mu(p: HomPoly, q: HomPoly, x: ProjPoint, expansions=None):
    """mu_x(p, q) by the reduction on the primitive parts of the two whole
    forms' integer expansions at x (`expansions` if given), for nonzero p
    and q vanishing at x; a common component through x gives math.inf."""
    pair = expansions or (int_expansion(p, x)[2], int_expansion(q, x)[2])
    return _local_mu(*({k: v // g for k, v in f.items()}
                       for f in pair for g in (math.gcd(*f.values()),)))


# ---------------------------------------------------------------------------
# Sheared-resultant machinery: enumeration of rational common zeros and the
# independent multiplicity oracle.


def _frame_sub(p: HomPoly, s: int) -> HomPoly:
    """Substitute Z -> s*X + s^2*Y + Z (a determinant-1 change of frame)."""
    if s == 0:
        return p
    ints: dict[tuple[int, int, int], int] = {}
    for (i, j, k), coef in p.ints.items():
        for a in range(k + 1):
            for b in range(k - a + 1):
                c = k - a - b
                w = math.comb(k, a) * math.comb(k - a, b)
                key = (i + a, j + b, c)
                val = coef * w * s ** (a + 2 * b)
                ints[key] = ints.get(key, 0) + val
    return HomPoly._from_ints(p.degree, p.den, ints)


def _frame_point_back(x: ProjPoint, s: int) -> ProjPoint:
    """Map a zero of the transformed curves back to original coordinates."""
    a, b, c = x.ints
    return ProjPoint(a, b, s * a + s * s * b + c)


def _frame_point_fwd(x: ProjPoint, s: int) -> ProjPoint:
    a, b, c = x.ints
    return ProjPoint(a, b, c - s * a - s * s * b)


def _choose_frame(p: HomPoly, q: HomPoly, x: ProjPoint | None = None) -> int:
    """Smallest s >= 0 such that after the frame change neither curve
    contains the reference line Z = 0 and, when given, x lies off it. Each
    line of either curve and the point x rule out at most two values of s,
    so the scan is short."""
    d = p.degree + q.degree
    for s in range(2 * d + 3):
        ok = x is None or _frame_point_fwd(x, s).ints[2] != 0
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


def _resultant_xz(p: HomPoly, q: HomPoly) -> list[int]:
    """Res_Y(p, q)(x, 1) as a primitive integer polynomial in x; [] when p
    and q share a component. Res_Y(p, q) is a binary form of degree mn in
    X and Z, so Z divides it mn - (len - 1) times.

    The Y-leading coefficients p(0, 1, 0) and q(0, 1, 0) must be nonzero:
    then the Y-degrees m and n survive every specialization, so the
    resultant at (x, 1) is that of the univariate forms p(x, Y, 1) and
    q(x, Y, 1) (Cox, Little and O'Shea, ch. 3, sec. 6). The integer terms
    of the forms are evaluated at mn + 1 consecutive integers x, each
    Sylvester determinant is taken fraction-free, and Newton's forward
    differences interpolate the values.
    """
    m, n = p.degree, q.degree
    if (0, m, 0) not in p.ints or (0, n, 0) not in q.ints:
        raise PreconditionError("the center [0:1:0] lies on a curve")
    size, start = m * n + 1, -(m * n // 2)
    values = []
    for x in range(start, start + size):
        a, b = _y_coeffs(p.ints, m, x), _y_coeffs(q.ints, n, x)
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
    return int_poly(acc)


def _root_multiplicity(res: list[int], top: int, u, v) -> int:
    """Multiplicity of the linear factor v*X - u*Z in the binary form of
    degree top whose value at (x, 1) is the nonzero polynomial res in
    Z[x]: the power of Z where v = 0, else the number of exact divisions
    of res by the primitive factor of v*x - u."""
    if v == 0:
        return top - (len(res) - 1)
    root = Fraction(u, v)
    factor = [-root.numerator, root.denominator]
    mult = 0
    while (res := divide(res, factor)) is not None:
        mult += 1
    return mult


def _sheared_pair(p: HomPoly, q: HomPoly):
    """(frame, t, p_t, q_t): the forms after the frame change of
    _choose_frame and the first shear t of _shears, so that [0:1:0] lies
    on neither and _resultant_xz applies."""
    frame = _choose_frame(p, q)
    pf, qf = _frame_sub(p, frame), _frame_sub(q, frame)
    t = next(_shears(pf, qf))
    return frame, t, _shear(pf, t), _shear(qf, t)


# (u, v, prime): the line t -> u + t*v and a prime below 2^31
_COPRIME_PROOFS = (
    ((1, -2, 3), (5, 7, -4), 2147483647),
    ((-3, 4, 2), (2, -5, 9), 2147483629),
    ((6, 1, -5), (-7, 3, 8), 2147483587),
)


def coprime(p: HomPoly, q: HomPoly) -> bool:
    """True iff p and q share no component: gcd_homogeneous has degree 0.

    The proof is a resultant modulo a prime (Cox, Little, O'Shea, Ideals,
    Varieties, and Algorithms, ch. 3, sec. 6). Scaled to integer forms, p
    and q are restricted to a line t -> u + t*v and reduced modulo the
    prime; when both leading coefficients p(v) and q(v) are nonzero there,
    both degrees survive, and a constant gcd from Euclid over F_p means
    the resultant is nonzero mod p, so nonzero over Z. The restrictions
    then share no root in P^1. A shared component would meet the line in
    a common root, or contain it, making p(v) = 0; so none exists. Where
    no entry of the fixed list _COPRIME_PROOFS gives a proof, as for every
    shared pair, the exact gcd decides. The zero form contains every curve,
    so the gcd is the other form.
    """
    if p.is_zero or q.is_zero:
        return gcd_homogeneous(p, q).degree == 0
    for u, v, prime in _COPRIME_PROOFS:
        a = _restrict_mod(p, u, v, prime)
        b = _restrict_mod(q, u, v, prime)
        if a[-1] and b[-1] and gcd_degree_mod(a, b, prime) == 0:
            return True
    return gcd_homogeneous(p, q).degree == 0


def _restrict_mod(p: HomPoly, u, v, prime: int) -> list[int]:
    """Coefficients mod prime of L * p(u + t*v) in t, indexed by the power
    of t, from the stored form (L, ints); the last entry is L * p(v). Each
    coordinate a + b*t gets the row of (a + b*t)^e, entry s being
    C(e, s) a^(e-s) b^s mod prime, only for the exponents e it has in p,
    with C(e, s) from factorials mod prime (the prime exceeds e)."""
    big = max(map(max, p.ints), default=0)
    fact = list(itertools.accumulate(range(1, big + 1),
                                     lambda f, k: f * k % prime, initial=1))
    inv = [pow(f, -1, prime) for f in fact]
    powers = []
    for axis, (a, b) in enumerate(zip(u, v)):
        exps = {m[axis] for m in p.ints}
        top = max(exps, default=0)
        apow = [pow(a, k, prime) for k in range(top + 1)]
        bpow = [pow(b, k, prime) for k in range(top + 1)]
        powers.append({e: [fact[e] * inv[s] * inv[e - s] * apow[e - s]
                           * bpow[s] % prime for s in range(e + 1)]
                       for e in exps})
    out = [0] * (p.degree + 1)
    for (i, j, k), c in p.ints.items():
        scaled = c % prime
        pi, pj, pk = powers[0][i], powers[1][j], powers[2][k]
        for e1, x1 in enumerate(pi):
            for e2, x2 in enumerate(pj):
                x12 = scaled * x1 * x2
                for e3, x3 in enumerate(pk):
                    out[e1 + e2 + e3] += x12 * x3
    return [x % prime for x in out]


def resultant_multiplicity(p: HomPoly, q: HomPoly, x: ProjPoint,
                           strict: bool = False) -> int:
    """Independent oracle for mu_x(p, q) via sheared resultants.

    For each shear t the multiplicity of the projection line of x in
    Res_Y(p_t, q_t) is an upper bound for mu_x, exact for all but finitely
    many t. With strict=True the full guaranteed number of shears
    (deg p * deg q) is taken and the minimum is exact; otherwise the scan
    stops once two distinct shears agree on the running minimum. The
    resultant is zero iff the forms share a component, which is refused.
    """
    if evaluate(p, x) != 0 or evaluate(q, x) != 0:
        return 0
    shared = "common component: oracle needs coprime forms"
    if p.is_zero or q.is_zero:  # the zero form contains every curve
        raise PreconditionError(shared)
    # every projection center lies on the line Z = 0, so all common zeros
    # on that line share each projection: x must lie off it
    frame = _choose_frame(p, q, x)
    p, q = _frame_sub(p, frame), _frame_sub(q, frame)
    x0, y0, z0 = _frame_point_fwd(x, frame).ints
    top = p.degree * q.degree
    best, hits = None, 0
    for checked, t in enumerate(_shears(p, q), 1):
        res = _resultant_xz(_shear(p, t), _shear(q, t))
        if not res:
            raise PreconditionError(shared)
        mult = _root_multiplicity(res, top, x0 - t * y0, z0)
        if best is None or mult < best:
            best, hits = mult, 1
        elif mult == best:
            hits += 1
        if (not strict and hits >= 2) or checked >= top:
            return best


def bezout_table(p: HomPoly, q: HomPoly):
    """All rational common zeros with exact multiplicities, plus the residual
    deg(p)*deg(q) - sum(multiplicities) accounting for non-rational zeros."""
    if p.is_zero or q.is_zero:
        raise PreconditionError("needs nonzero forms")
    m, n = p.degree, q.degree
    if m == 0 or n == 0:
        return [], 0
    frame, t, pt, qt = _sheared_pair(p, q)
    res = _resultant_xz(pt, qt)
    if not res:  # zero iff p and q share a component
        raise PreconditionError("infinite intersection")
    # projection roots: finite X/Z values plus possibly the line Z = 0
    points: set[ProjPoint] = set()
    finite_roots = rational_roots(res)

    def fiber_points(x, z):
        """Common rational zeros of p_t, q_t on the line (x, s, z)."""
        pu, qu = _fiber(pt, x, z), _fiber(qt, x, z)
        if not pu or not qu:
            return []
        return rational_roots(int_gcd(pu, qu))

    for u in finite_roots:
        for s in fiber_points(u, Fraction(1)):
            # the sheared point (u, s, 1) maps back through X -> X + tY,
            # then through the frame change
            points.add(_frame_point_back(ProjPoint(u + t * s, s, 1), frame))
    if len(res) - 1 < m * n:  # Z divides the resultant
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
