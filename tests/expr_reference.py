"""Reference implementations on sympy, for tests only.

The package computes resultants, rational roots and cubic irreducibility
in its own code, and only the gcd of two forms in sympy's polynomial
rings; these are the sympy-based versions it replaced, kept as
independent references: the
converters between `HomPoly` and `Expr`, `sympy.resultant` for
`curves._resultant_xz`, the `Expr` versions of `gcd_homogeneous` and
`bezout_table`, the Groebner line test for `cubic_is_irreducible`
(`reference_has_complex_line_factor`, an elimination over the lines of
the plane), sympy's `factor_list` for `upoly.rational_roots`,
and `use_expr_internals`, which puts the resultant and the gcd back into
the package so that its multiplicity algorithms run on `Expr` as they did.
The rest need no sympy: root multiplicities in a binary form by Horner
and synthetic division in `Fraction`s, for `curves._root_multiplicity`,
the canonical form that branches over every order of a line's fresh
labels, `four_point_lines` in `Fraction` arithmetic, the scaling of exact forms to floats by `Fraction` division,
the sharpness example that runs one `int_rank` on each of its 105
13-point subsets, and the linear systems in `Fraction`s: the evaluation
rows at the canonical coordinates, a Gauss-Jordan RREF, the condition
rows taken in the point's chart, the kernel built from Fraction vectors
and the LLL that keeps its Gram-Schmidt data in `Fraction`s. The
`Fraction` store that `ProjPoint` replaced keeps its canonical
coordinates, chart, affine coordinates and evaluation here, with the
integer coordinates that `config` cleared from them.
"""

import itertools
import math
import random
from fractions import Fraction

import sympy

from lelongplane import curves, exactpoly
from lelongplane.config import PointSet, m_sequence
from lelongplane.currents import (ArrangementCurrent, SharpnessReport,
                                  _random_line, lelong_exact)
from lelongplane.curves import coprime
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import (HomPoly, ProjPoint, evaluate, join,
                                   line_coeffs, meet, monomial_count,
                                   monomials)
from lelongplane.linalg import clear_denominators, int_rank

X, Y, Z = sympy.symbols("X Y Z")
S = sympy.Symbol("s")


def to_sympy(p: HomPoly):
    expr = sympy.Integer(0)
    for (i, j, k), c in p.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * X**i * Y**j * Z**k
    return expr


def from_sympy(expr, degree: int | None = None) -> HomPoly:
    poly = sympy.Poly(sympy.expand(expr), X, Y, Z, domain="QQ")
    terms = {}
    deg = 0
    for exps, coeff in poly.terms():
        deg = max(deg, sum(exps))
        terms[tuple(int(e) for e in exps)] = Fraction(coeff.p, coeff.q)
    if degree is None:
        degree = deg
    return HomPoly(degree, terms)


def reference_resultant_xz(p: HomPoly, q: HomPoly):
    """Res_Y(p, q)(x, 1) by `sympy.resultant`, as the primitive integer
    polynomial in x with a positive leading coefficient; [] for zero."""
    res = sympy.expand(sympy.resultant(to_sympy(p), to_sympy(q), Y).subs(Z, 1))
    if res == 0:
        return []
    coeffs = [Fraction(c.p, c.q) for c in
              reversed(sympy.Poly(res, X, domain="QQ").all_coeffs())]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // content for c in ints]


def reference_binary_root_multiplicity(binform, u: Fraction,
                                       v: Fraction) -> int:
    """Multiplicity of the linear factor v*X - u*Z in a binary form dict
    {(i, k): Fraction}, by Horner and synthetic division in Fractions."""
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


def reference_gcd_homogeneous(p: HomPoly, q: HomPoly) -> HomPoly:
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    return from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).monic()


def use_expr_internals(monkeypatch):
    """Run the package's resultants and gcds on `Expr`."""
    monkeypatch.setattr(curves, "_resultant_xz", reference_resultant_xz)
    monkeypatch.setattr(exactpoly, "gcd_homogeneous",
                        reference_gcd_homogeneous)


_A, _B = sympy.symbols("a b")


def reference_has_complex_line_factor(p: HomPoly) -> bool:
    """True iff some line over C divides p, by elimination in `Expr`.

    Lines aX + bY + Z exist iff the Groebner basis of the coefficients of
    p(X, Y, -aX - bY) in Q[a, b] is not [1], lines aX + Y iff the
    coefficients of p(X, -aX, Z) share a root a; X = 0 is read off.
    """
    d = p.degree
    coeffs = [sympy.Integer(0)] * (d + 1)  # index m: coeff of X^m Y^(d-m)
    for (i, j, k), c in p.terms.items():
        cc = sympy.Rational(c.numerator, c.denominator) * (-1) ** k
        for l in range(k + 1):
            coeffs[i + l] += cc * math.comb(k, l) * _A ** l * _B ** (k - l)
    eqs = [e for e in (sympy.expand(e) for e in coeffs) if e != 0]
    if not eqs:
        return True
    gb = sympy.groebner(eqs, _A, _B, order="lex")
    if 1 not in gb.exprs and -1 not in gb.exprs:
        return True
    coeffs = [sympy.Integer(0)] * (d + 1)  # index m: coeff of X^m Z^(d-m)
    for (i, j, k), c in p.terms.items():
        cc = sympy.Rational(c.numerator, c.denominator) * (-1) ** j
        coeffs[i + j] += cc * _A ** j
    nonzero = [e for e in (sympy.expand(e) for e in coeffs) if e != 0]
    if not nonzero:
        return True
    g = nonzero[0]
    for e in nonzero[1:]:
        g = sympy.gcd(g, e)
    if sympy.degree(g, _A) >= 1:
        return True
    return all(e[0] >= 1 for e in p.terms)


def reference_cubic_is_irreducible(p: HomPoly) -> bool:
    """A cubic is irreducible over C iff it has no line component over C,
    decided by the Groebner line test."""
    return not reference_has_complex_line_factor(p)


def reference_rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots of a nonzero polynomial in s, given by
    its coefficients indexed by the power, read from the linear factors
    of sympy's `factor_list`."""
    expr = sum(sympy.Rational(c) * S ** i for i, c in enumerate(coeffs))
    roots = set()
    for fac, _ in sympy.factor_list(expr, S)[1]:
        if sympy.degree(fac, S) == 1:
            a, b = sympy.Poly(fac, S).all_coeffs()
            r = -b / a
            roots.add(Fraction(int(r.p), int(r.q)))
    return sorted(roots)


def _univariate_rational_roots(expr, var) -> list[Fraction]:
    poly = sympy.Poly(expr, var, domain="QQ")
    if poly.is_zero:
        raise PreconditionError("identically zero restriction")
    return [Fraction(r.p, r.q) for r in poly.ground_roots()]


def reference_bezout_table(p: HomPoly, q: HomPoly):
    """`curves.bezout_table` with its resultant, roots and fiber gcds on
    `Expr`, as the package computed it before."""
    if p.is_zero or q.is_zero:
        raise PreconditionError("needs nonzero forms")
    if not coprime(p, q):
        raise PreconditionError("infinite intersection")
    m, n = p.degree, q.degree
    if m == 0 or n == 0:
        return [], 0
    t, u = next(curves._shears(p, q))
    pt, qt = curves._shear(p, (t, u)), curves._shear(q, (t, u))
    res = reference_resultant_xz(pt, qt)
    if not res:
        raise PreconditionError("vanishing resultant for coprime forms")
    points: set[ProjPoint] = set()
    uni = sum(c * S ** i for i, c in enumerate(res))
    finite_roots = _univariate_rational_roots(uni, S)

    def fiber_points(restrict):
        pu = sympy.expand(to_sympy(pt).subs(restrict))
        qu = sympy.expand(to_sympy(qt).subs(restrict))
        if pu == 0 or qu == 0:
            return []
        g = sympy.gcd(pu, qu)
        if sympy.degree(g, Y) < 1:
            return []
        return _univariate_rational_roots(g, Y)

    for r in finite_roots:
        rr = sympy.Rational(r.numerator, r.denominator)
        for s in fiber_points({X: rr, Z: 1}):
            points.add(ProjPoint(r + t * s, s, 1 + u * s))
    if len(res) - 1 < m * n:  # Z divides the resultant
        for s in fiber_points({X: 1, Z: 0}):
            points.add(ProjPoint(1 + t * s, s, u * s))
    records = []
    for x in sorted(points, key=lambda pp: pp.coords):
        if evaluate(p, x) != 0 or evaluate(q, x) != 0:
            continue
        mu = curves.intersection_multiplicity(p, q, x)
        records.append(curves.IntersectionRecord(point=x,
                                                 multiplicity=int(mu)))
    residual = m * n - sum(r.multiplicity for r in records)
    if residual < 0:
        raise PreconditionError("multiplicity bookkeeping error")
    return records, residual


def reference_canonical_form(lines):
    """Lexicographically least relabeling of a line family.

    Minimizes over all line orderings, assigning fresh labels by first
    occurrence, branching over the orderings of new labels within a line;
    branch-and-bound against the best sequence found so far.
    """
    lines = [tuple(sorted(l)) for l in lines]
    if not lines:
        return ()
    best: list[tuple[int, ...] | None] = [None]

    def extend(remaining, mapping, next_label, acc):
        if not remaining:
            cand = tuple(acc)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        pos = len(acc)
        for idx in list(remaining):
            line = lines[idx]
            old = sorted(mapping[x] for x in line if x in mapping)
            fresh = [x for x in line if x not in mapping]
            # fresh labels take consecutive values; branch over their order
            for perm in itertools.permutations(fresh):
                relabeled = tuple(sorted(
                    old + list(range(next_label, next_label + len(fresh)))))
                if best[0] is not None:
                    prefix = best[0][:pos + 1]
                    if (tuple(acc) + (relabeled,)) > prefix:
                        continue
                new_map = dict(mapping)
                for off, x in enumerate(perm):
                    new_map[x] = next_label + off
                extend(remaining - {idx}, new_map,
                       next_label + len(fresh), acc + [relabeled])

    extend(frozenset(range(len(lines))), {}, 1, [])
    return best[0]


def reference_four_point_lines(s):
    """All maximal collinear label groups of size >= 3, largest first,
    joining every pair and testing every point in `Fraction` arithmetic."""
    n = len(s)
    coords = [x.coords for x in s.points]
    groups = set()
    for i, j in itertools.combinations(range(n), 2):
        a, b, c = line_coeffs(join(s.points[i], s.points[j]))
        members = tuple(k + 1 for k, (x, y, z) in enumerate(coords)
                        if a * x + b * y + c * z == 0)
        if len(members) >= 3:
            groups.add(members)
    return sorted(groups, key=lambda g: (-len(g), g))


def reference_scaled_floats(fp, fq):
    """Both exact forms as floats c / scale, divided in `Fraction`s."""
    scale = max(abs(c) for c in
                itertools.chain(fp.values(), fq.values()))
    return ({k: float(c / scale) for k, c in fp.items()},
            {k: float(c / scale) for k, c in fq.items()})


def evaluation_rows(points, degree):
    """The monomials of the given degree at each point's canonical
    coordinates, in `Fraction`s: one row per point."""
    return [[a ** i * b ** j * c ** k for i, j, k in monomials(degree)]
            for a, b, c in (p.coords for p in points)]


def reference_rank_checks(points):
    """(number of 13-subsets, whether every one has a full-rank cubic
    evaluation matrix), one `int_rank` per subset."""
    ncols = monomial_count(3)
    checks = 0
    full = True
    rows = evaluation_rows(points, 3)
    for combo in itertools.combinations(range(len(points)), 13):
        checks += 1
        if int_rank([rows[i] for i in combo]) != ncols:
            full = False
    return checks, full


def reference_sharpness_example(seed: int, budget: int = 100):
    """`currents.sharpness_example` with its rank verdicts from
    `reference_rank_checks`."""
    rng = random.Random(seed)
    for _ in range(budget):
        lines = [_random_line(rng) for _ in range(6)]
        if len({tuple(l.coeff_vector()) for l in lines}) != 6:
            continue
        pts = []
        ok = True
        for l1, l2 in itertools.combinations(lines, 2):
            x = meet(l1, l2)
            if x is None:
                ok = False
                break
            pts.append(x)
        if not ok or len({p.coords for p in pts}) != 15:
            continue
        t = ArrangementCurrent(tuple((l, Fraction(1, 6)) for l in lines))
        values = tuple(lelong_exact(t, p) for p in pts)
        checks, full = reference_rank_checks(pts)
        ms = m_sequence(PointSet(tuple(pts)))
        return SharpnessReport(
            lines=tuple(lines), points=tuple(pts), lelong_values=values,
            all_values_one_third=all(v == Fraction(1, 3) for v in values),
            rank_checks=checks, all_ranks_full=full, m_seq=ms.as_tuple())
    raise PreconditionError("could not generate a generic arrangement "
                            "within the budget")


def reference_rref(rows):
    """Gauss-Jordan over Fractions: (rank, pivot_columns, reduced_rows)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0, [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots, m[:rank]


def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def reference_condition_rows(degree, cond):
    """The rows of a vanishing condition in Fractions, taken in the
    point's chart: the derivative of order (a, b) of each monomial at the
    point's chart coordinates, for every a + b below the order."""
    chart = cond.point.chart()
    coords = cond.point.coords
    scale = coords[chart]
    u0, v0 = [coords[i] / scale for i in range(3) if i != chart]
    rows = []
    for total in range(cond.order):
        for a in range(total + 1):
            b = total - a
            row = []
            for exps in monomials(degree):
                alpha, beta = [exps[i] for i in range(3) if i != chart]
                if alpha < a or beta < b:
                    row.append(Fraction(0))
                    continue
                val = Fraction(_falling(alpha, a) * _falling(beta, b))
                val *= u0 ** (alpha - a) * v0 ** (beta - b)
                row.append(val)
            rows.append(row)
    return rows


def reference_lll_reduce(basis):
    """`linalg._lll_reduce` with its Gram-Schmidt coefficients and squared
    norms in Fractions: the exact LLL with delta = 3/4 in the reduction
    and swap order of sympy's `_ddm_lll`, mu rounded halves upward."""
    y = []
    for row in basis:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        row = [int(x * scale) for x in row]
        g = math.gcd(*row)
        y.append([x // g for x in row])
    m = len(y)
    delta, half = Fraction(3, 4), Fraction(1, 2)
    mu = [[Fraction(0)] * m for _ in range(m)]
    g_star = [Fraction(0)] * m
    y_star = []
    for i in range(m):
        v = [Fraction(x) for x in y[i]]
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(y[i], y_star[j])) / g_star[j]
            v = [a - mu[i][j] * b for a, b in zip(v, y_star[j])]
        y_star.append(v)
        g_star[i] = sum(x * x for x in v)

    def size_reduce(k, j):
        q = mu[k][j]
        r = (2 * q.numerator + q.denominator) // (2 * q.denominator)
        y[k] = [a - r * b for a, b in zip(y[k], y[j])]
        for z in range(j):
            mu[k][z] -= r * mu[j][z]
        mu[k][j] -= r

    k = 1
    while k < m:
        if abs(mu[k][k - 1]) > half:
            size_reduce(k, k - 1)
        if g_star[k] >= (delta - mu[k][k - 1] ** 2) * g_star[k - 1]:
            for j in range(k - 2, -1, -1):
                if abs(mu[k][j]) > half:
                    size_reduce(k, j)
            k += 1
            continue
        nu = mu[k][k - 1]
        alpha = g_star[k] + nu ** 2 * g_star[k - 1]
        beta = g_star[k - 1] / alpha
        mu[k][k - 1] = nu * beta
        g_star[k] *= beta
        g_star[k - 1] = alpha
        y[k], y[k - 1] = y[k - 1], y[k]
        mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
        for i in range(k + 1, m):
            xi = mu[i][k]
            mu[i][k] = mu[i][k - 1] - nu * xi
            mu[i][k - 1] = mu[k][k - 1] * mu[i][k] + xi
        k = max(k - 1, 1)
    return [[Fraction(x) for x in row] for row in y]


def reference_nullspace(rows, ncols, rref=reference_rref):
    """`linalg.nullspace` in Fractions: the kernel vector of each free
    column read off the Fraction RREF, the vectors put in RREF again and
    reduced by `reference_lll_reduce`. `rref` computes the Fraction RREF
    as (rank, pivots, rows): Gauss-Jordan, or `linalg.frac_rref`, which
    is much faster on large entries."""
    _, pivots, red = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    if not basis:
        return []
    return reference_lll_reduce(rref(basis)[2])


def reference_point_coords(a, b, c):
    """The canonical coordinates of the former `Fraction` store of
    `ProjPoint`: the triple over its last nonzero coordinate."""
    coords = (Fraction(a), Fraction(b), Fraction(c))
    if all(x == 0 for x in coords):
        raise PreconditionError("projective point cannot be (0,0,0)")
    pivot = coords[2] if coords[2] != 0 else (
        coords[1] if coords[1] != 0 else coords[0])
    return tuple(x / pivot for x in coords)


def reference_chart(coords):
    """Index of the largest canonical coordinate in absolute value (ties:
    latest)."""
    best, best_abs = 0, abs(coords[0])
    for i in (1, 2):
        if abs(coords[i]) >= best_abs:
            best, best_abs = i, abs(coords[i])
    return best


def reference_affine(coords, chart):
    """The affine coordinates in the chart, by `Fraction` division."""
    return tuple(coords[i] / coords[chart] for i in range(3) if i != chart)


def reference_int_coords(coords):
    """The canonical coordinates times the lcm of their denominators, as
    the deleted `config._int_coords` read them."""
    return tuple(clear_denominators(coords)[1])


def reference_evaluate(p: HomPoly, coords):
    """p at the canonical coordinates, term by term in `Fraction` powers."""
    return sum((c * coords[0] ** i * coords[1] ** j * coords[2] ** k
                for (i, j, k), c in p.terms.items()), Fraction(0))
