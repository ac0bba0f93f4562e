"""Exact arithmetic over Q: projective points and homogeneous polynomials in X, Y, Z.

All values are immutable after construction and all operations are pure.
The ground field is the rationals (stdlib ``Fraction``); the fixed monomial
order used everywhere for canonical forms is graded lexicographic with
X > Y > Z. Every operation, the gcd of forms included, uses only the stdlib.

A form is stored as integer terms over one denominator (`HomPoly`), a
point as its primitive integer triple (`ProjPoint`); arithmetic, division,
evaluation and the Taylor shift, and `curves`, run on them, and `Fraction`s
are made only at the edges. The shift to a point is one sparse table per
form (`_shift_tables`): `int_expansion` sums it whole (for the μ reduction,
`lelong`'s verifier and estimators, and `local_expansion`, its Fraction
view), `order_and_cone` level by level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Iterable, Mapping

from .errors import ParseError, PreconditionError
from .linalg import clear_denominators, int_rref
from .upoly import int_gcd, int_poly


def fraction_to_str(q: Fraction) -> str:
    """Serialize as "num/den", omitting the denominator when it is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: str) -> Fraction:
    """A JSON string or number as a rational; not JSON true or 1e400 (inf),
    and not a string in exponent notation, whose cost grows with the value
    of its exponent ("1e10000000" takes seconds)."""
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ParseError(f"exponent notation is not accepted: {s!r}")
    try:
        return Fraction(None if isinstance(s, bool) else s)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"not a rational number: {s!r}") from exc


@lru_cache(maxsize=None)
def monomials(degree: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples of the given total degree in grlex order (X > Y > Z),
    which within one degree is the descending order of the triples."""
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return tuple(out)


def monomial_count(degree: int) -> int:
    return (degree + 1) * (degree + 2) // 2


def _last_nonzero(v):
    return v[2] or v[1] or v[0]


class ProjPoint:
    """A point of the projective plane, stored as its primitive integer
    triple `ints` with the last nonzero entry positive, which equality and
    hashing read. `coords` is the Fraction view, last nonzero entry 1."""

    __slots__ = ("ints",)

    def __init__(self, a, b, c):
        ints = clear_denominators([v if isinstance(v, (int, Fraction))
                                   else Fraction(v) for v in (a, b, c)])[1]
        g = math.gcd(*ints) * (1 if _last_nonzero(ints) > 0 else -1)
        if not g:
            raise PreconditionError("projective point cannot be (0,0,0)")
        object.__setattr__(self, "ints", tuple(x // g for x in ints))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ProjPoint is immutable")

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __reduce__(self):
        return ProjPoint, self.ints

    def __repr__(self):
        return "ProjPoint(%s)" % ":".join(fraction_to_str(c) for c in self.coords)

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        """`ints` over its last nonzero entry; a new tuple on each read."""
        pivot = _last_nonzero(self.ints)
        return tuple(Fraction(x, pivot) for x in self.ints)

    def chart(self) -> int:
        """Index of the largest coordinate in absolute value (ties: latest)."""
        a, b, c = map(abs, self.ints)
        return 2 if c >= max(a, b) else int(b >= a)

    def affine(self, chart: int) -> tuple[Fraction, Fraction]:
        """Coordinates of the point in the affine chart where ``chart`` is 1."""
        if self.ints[chart] == 0:
            raise PreconditionError("point at infinity of the requested chart")
        return tuple(Fraction(self.ints[i], self.ints[chart])
                     for i in range(3) if i != chart)


class HomPoly:
    """Homogeneous polynomial in X, Y, Z with exact rational coefficients,
    stored as nonzero integer terms `ints` over `den` > 0 in lowest terms.
    `terms` is the Fraction view. The zero polynomial carries an explicit
    degree tag so it stays inside a fixed graded piece.
    """

    __slots__ = ("degree", "den", "ints")

    def __new__(cls, degree: int, terms: Mapping[tuple[int, int, int], Fraction]):
        if degree < 0:
            raise PreconditionError("degree must be non-negative")
        clean = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, (int, Fraction)):
                coeff = Fraction(coeff)
            if not coeff:
                continue
            i, j, k = exps
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise PreconditionError(
                    f"exponent triple {exps} does not match degree {degree}")
            clean[(i, j, k)] = coeff
        den, nums = clear_denominators(clean.values())
        return cls._from_ints(degree, den, dict(zip(clean, nums)))

    @classmethod
    def _from_ints(cls, degree: int, den: int, ints) -> "HomPoly":
        """ints / den in lowest terms, for den != 0; exponents unchecked."""
        ints = {e: c for e, c in ints.items() if c}
        g = math.gcd(den, *ints.values()) * (1 if den > 0 else -1)
        if g != 1:
            den, ints = den // g, {e: c // g for e, c in ints.items()}
        p = object.__new__(cls)
        for name, value in zip(cls.__slots__, (degree, den, ints)):
            object.__setattr__(p, name, value)
        return p

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("HomPoly is immutable")

    def __reduce__(self):
        return HomPoly._from_ints, (self.degree, self.den, self.ints)

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, {})

    @classmethod
    def monomial(cls, exps: tuple[int, int, int], coeff=1) -> "HomPoly":
        return cls(sum(exps), {exps: coeff})

    @classmethod
    def line(cls, a, b, c) -> "HomPoly":
        return cls(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    @classmethod
    def from_coeff_vector(cls, degree: int, vec: Iterable[Fraction]) -> "HomPoly":
        mons = monomials(degree)
        vec = list(vec)
        if len(vec) != len(mons):
            raise PreconditionError("coefficient vector length mismatch")
        return cls(degree, dict(zip(mons, vec)))

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        """The Fraction view, keyed as `ints`; a new dict on each read."""
        return {e: Fraction(c, self.den) for e, c in self.ints.items()}

    def integer_view(self) -> tuple[int, dict[tuple[int, int, int], int]]:
        """(L, terms of L * p): the stored (den, ints)."""
        return self.den, self.ints

    def coeff_vector(self) -> list[Fraction]:
        terms, zero = self.terms, Fraction(0)
        return [terms.get(m, zero) for m in monomials(self.degree)]

    def _lead(self) -> int:
        if self.is_zero:
            raise PreconditionError(
                "zero polynomial has no leading coefficient")
        return self.ints[max(self.ints)]

    def leading_coeff(self) -> Fraction:
        return Fraction(self._lead(), self.den)

    def monic(self) -> "HomPoly":
        return HomPoly._from_ints(self.degree, self._lead(), self.ints)

    def __eq__(self, other):
        return (isinstance(other, HomPoly) and self.degree == other.degree
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.degree != other.degree:
            raise PreconditionError("cannot add forms of different degrees")
        den = math.lcm(self.den, other.den)
        ints = {m: den // self.den * c for m, c in self.ints.items()}
        for m, c in other.ints.items():
            ints[m] = ints.get(m, 0) + den // other.den * c
        return HomPoly._from_ints(self.degree, den, ints)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __neg__(self) -> "HomPoly":
        return self * -1

    def __mul__(self, other):
        if isinstance(other, HomPoly):
            ints: dict[tuple[int, int, int], int] = {}
            for m1, c1 in self.ints.items():
                for m2, c2 in other.ints.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    ints[m] = ints.get(m, 0) + c1 * c2
            return HomPoly._from_ints(self.degree + other.degree,
                                      self.den * other.den, ints)
        q = other if isinstance(other, (int, Fraction)) else Fraction(other)
        return HomPoly._from_ints(self.degree, self.den * q.denominator, {
            m: c * q.numerator for m, c in self.ints.items()})

    __rmul__ = __mul__

    def __repr__(self):
        if self.is_zero:
            return f"HomPoly(0; deg {self.degree})"
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            mono = "".join(v * e for v, e in zip("XYZ", m))
            parts.append(f"{fraction_to_str(c)}*{mono or '1'}")
        return "HomPoly(" + " + ".join(parts) + ")"

    def evaluate_coords(self, a, b, c) -> Fraction:
        """Value at arbitrary (not necessarily normalized) rational
        coordinates: `_value` at them cleared over their lcm denominator."""
        return self._value(*clear_denominators((a, b, c)))

    def _value(self, scale: int, coords) -> Fraction:
        """Value at the integer coordinates over scale: the integer sum of
        the terms at them over den * scale^d, as one Fraction."""
        d = self.degree
        ta, tb, tc = ([x ** e for e in range(d + 1)] for x in coords)
        total = 0
        for (i, j, k), coeff in self.ints.items():
            total += coeff * ta[i] * tb[j] * tc[k]
        return Fraction(total, self.den * scale ** d)

    def local_expansion(self, x: ProjPoint
                        ) -> tuple[int, dict[tuple[int, int], Fraction]]:
        """Dehomogenize at the chart of x and translate x to the origin.

        Returns (chart, bivariate terms). The minimal total degree of the
        result is the vanishing order of the polynomial at x. The Fraction
        view of `int_expansion`, with the same keys in the same order.
        """
        chart, den, out = int_expansion(self, x)
        return chart, {k: Fraction(v, den) for k, v in out.items()}


def int_expansion(p: HomPoly, x: ProjPoint
                  ) -> tuple[int, int, dict[tuple[int, int], int]]:
    """(chart, den, terms): the local expansion of p at x in the chart
    x.chart(), nonzero integer terms over den: `_multiply_out`."""
    return _multiply_out(_s_sums(p, x))


def _s_sums(p: HomPoly, x: ProjPoint):
    """(tables, in_s, out, value) for p's `_shift_tables` at x: in_s[e2]
    sums num * rows1[e1] over the terms with exponent e2 of t; out has each
    key the t rows reach, at 0, in order of first reach (terms in order,
    then i, then j; cover[i] is the largest j reached at i); value is level
    0, den times p(x), read before the t rows multiply out."""
    _, nums, rows1, rows2, _ = tables = _shift_tables(p, x)
    width = max((e1 for e1, _, _ in nums), default=-1) + 1
    in_s: dict[int, list[int]] = {}
    out: dict[tuple[int, int], int] = {}
    cover = [-1] * width
    for e1, e2, num in nums:
        col = in_s.setdefault(e2, [0] * width)
        for i, c1 in enumerate(rows1[e1]):
            col[i] += num * c1
            if e2 > cover[i]:
                out.update(((i, j), 0) for j in range(cover[i] + 1, e2 + 1))
                cover[i] = e2
    return tables, in_s, out, sum(col[0] * rows2[e2][0]
                                  for e2, col in in_s.items())


def _multiply_out(sums) -> tuple[int, int, dict[tuple[int, int], int]]:
    """`int_expansion` from `_s_sums`: each in_s[e2] times rows2[e2]."""
    (chart, _, _, rows2, den), in_s, out, _ = sums
    for e2, col in in_s.items():
        for i, ci in enumerate(col):
            if ci:
                for j, c2 in enumerate(rows2[e2]):
                    out[i, j] += ci * c2
    return chart, den, {k: v for k, v in out.items() if v}


def _shift_tables(p: HomPoly, x: ProjPoint):
    """(chart, nums, rows1, rows2, den) for the shift of p to x = (a, b),
    a = an/ad and b = bn/bd in lowest terms (`_lowest` of x.ints) in the
    chart x.chart(). Each term (e1, e2, num) of the stored form (L, ints),
    dehomogenized, has its coefficient as num/L; the coefficient of s^i
    t^j in the shift is the sum of num * rows1[e1][i] * rows2[e2][j] over
    den = L * ad^E1 * bd^E2, where E1 and E2 are the largest exponents of s
    and t. rows1 and rows2 hold rows only for the exponents of s and t that
    the terms have."""
    chart = x.chart()
    if p.is_zero:
        return chart, [], None, None, 1
    o1, o2 = [i for i in range(3) if i != chart]
    (an, ad), (bn, bd) = (_lowest(x.ints[o], x.ints[chart]) for o in (o1, o2))
    nums = [(e[o1], e[o2], c) for e, c in p.ints.items()]
    exps1 = {e1 for e1, _, _ in nums}
    exps2 = {e2 for _, e2, _ in nums}
    top1, top2 = max(exps1), max(exps2)
    return (chart, nums, _shift_rows(an, ad, top1, exps1),
            _shift_rows(bn, bd, top2, exps2), p.den * ad ** top1 * bd ** top2)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator, for d != 0."""
    g = math.gcd(n, d) * (1 if d > 0 else -1)
    return n // g, d // g


def _shift_rows(n: int, d: int, top: int, exps: Iterable[int]
                ) -> dict[int, list[int]]:
    """Integer coefficients of (n/d + s)^e in s, times d^top, for each e in
    exps (all at most top), keyed by e. `_shift_tables` is the only
    caller."""
    npow = [n ** k for k in range(top + 1)]
    dpow = [d ** k for k in range(top + 1)]
    return {e: [math.comb(e, i) * npow[e - i] * dpow[top - e + i]
                for i in range(e + 1)] for e in exps}


def order_and_cone(p: HomPoly, x: ProjPoint):
    """(ord_x p, tangent cone): the first nonzero level m of the shift in
    _shift_tables at x.chart(), as integers; entry i is den times the
    coefficient of s^i t^(m-i), the sum of num * rows1[e1][i] *
    rows2[e2][m - i] over the terms (e1, e2, num) with i <= e1 and
    m - i <= e2. Level m costs m + 1 sums over the terms, so a point off
    the curve costs one. The zero form gives (math.inf, None)."""
    if p.is_zero:
        return math.inf, None
    _, nums, rows1, rows2, _ = _shift_tables(p, x)
    for m in count():
        cone = [sum(num * rows1[e1][i] * rows2[e2][m - i]
                    for e1, e2, num in nums if i <= e1 and m - i <= e2)
                for i in range(m + 1)]
        if any(cone):
            return m, cone


def evaluate(p: HomPoly, x: ProjPoint) -> Fraction:
    """Value of p at the canonical representative of x: at the integer
    triple over its last nonzero entry."""
    return p._value(_last_nonzero(x.ints), x.ints)


def line_coeffs(line: HomPoly) -> tuple[Fraction, Fraction, Fraction]:
    """(a, b, c) of the line aX + bY + cZ."""
    return tuple(line.coeff_vector())


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def join(a: ProjPoint, b: ProjPoint) -> HomPoly:
    """The line through two points, the cross product of their canonical
    representatives; the zero form when they coincide."""
    scale = _last_nonzero(a.ints) * _last_nonzero(b.ints)
    return HomPoly._from_ints(1, scale, dict(zip(
        monomials(1), _cross(a.ints, b.ints))))


def meet(l1: HomPoly, l2: HomPoly) -> ProjPoint | None:
    """The common point of two lines, or None when they coincide."""
    x = _cross(*([l.ints.get(m, 0) for m in monomials(1)] for l in (l1, l2)))
    if all(c == 0 for c in x):
        return None
    return ProjPoint(*x)


def partial_derivatives(p: HomPoly) -> tuple[HomPoly, HomPoly, HomPoly]:
    """The three formal partials; Euler's identity holds exactly."""
    if p.degree == 0:
        raise PreconditionError("constant polynomial")
    outs = []
    for var in range(3):
        ints = {}
        for exps, coeff in p.ints.items():
            if exps[var] == 0:
                continue
            new = list(exps)
            new[var] -= 1
            ints[tuple(new)] = coeff * exps[var]
        outs.append(HomPoly._from_ints(p.degree - 1, p.den, ints))
    return tuple(outs)


def vanishing_order(p: HomPoly, x: ProjPoint):
    """Least total order of a nonvanishing iterated partial at x, read by
    order_and_cone; math.inf iff p is the zero polynomial."""
    return order_and_cone(p, x)[0]


def exact_divide(p: HomPoly, q: HomPoly) -> HomPoly | None:
    """p / q when the division is exact, else None.

    Long division of p's integer terms by q's primitive part in descending
    lex order on the exponent triples, in integers: {q} is a Groebner basis
    of (q), so q divides p iff every leading term met on the way is
    divisible by q's, and by Gauss's lemma the quotient is then integral; a
    step that fails either ends the division with None. Quotient terms come
    out in descending lex order.
    """
    if q.is_zero:
        raise PreconditionError("division by the zero polynomial")
    if p.is_zero:
        return HomPoly.zero(max(p.degree - q.degree, 0))
    content = math.gcd(*q.ints.values())
    lead = max(q.ints)
    rem = dict(p.ints)
    quo = {}
    while rem:
        top = max(rem)
        e = (top[0] - lead[0], top[1] - lead[1], top[2] - lead[2])
        c, r = divmod(rem[top] * content, q.ints[lead])
        if min(e) < 0 or r:
            return None
        quo[e] = c
        for (i, j, k), cq in q.ints.items():
            key = (e[0] + i, e[1] + j, e[2] + k)
            val = rem.get(key, 0) - c * cq // content
            if val:
                rem[key] = val
            else:
                del rem[key]
    return HomPoly._from_ints(p.degree - q.degree, p.den * content,
                              {e: c * q.den for e, c in quo.items()})


def divides(q: HomPoly, p: HomPoly) -> bool:
    return exact_divide(p, q) is not None


def gcd_homogeneous(p: HomPoly, q: HomPoly) -> HomPoly:
    """A gcd, normalized to leading coefficient 1 in grlex order; constant
    1 iff p and q share no component. Fiber gcds interpolated in x (Brown,
    JACM 18, 1971), proved by trial division (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 6). With each power of Z divided out (the
    lesser returns at the end), the shear t puts [0:1:0] on neither curve,
    so the gcd's fiber at X = x, Z = 1 divides the fiber gcd there, with
    the same degree for all but finitely many x. A constant fiber gcd
    gives 1; a candidate interpolated from deg + 1 fibers of the least
    degree seen that divides both sheared forms is the gcd, since no
    common divisor has a higher degree; else the oldest fiber goes."""
    if p.is_zero and q.is_zero:
        raise PreconditionError("gcd of two zero polynomials")
    if p.is_zero or q.is_zero:
        return (q if p.is_zero else p).monic()
    zp, zq = (min(e[2] for e in f.ints) for f in (p, q))
    p, q = _times_z(p, -zp), _times_z(q, -zq)
    t = next(_shears(p, q))
    pt, qt = _shear(p, t), _shear(q, t)
    fibers, least = {}, math.inf  # x: fiber gcd, each of length least
    for x in count():
        g = int_gcd(_fiber(pt, x, 1), _fiber(qt, x, 1))
        if len(g) == 1:
            return HomPoly.monomial((0, 0, min(zp, zq)))
        if len(g) < least:
            fibers, least = {}, len(g)
        if len(g) == least:
            fibers[x] = g
        if len(fibers) == least:
            gcd = _interpolated_form(fibers)
            if gcd is not None and divides(gcd, pt) and divides(gcd, qt):
                return _times_z(_shear(gcd, -t), min(zp, zq)).monic()
            del fibers[min(fibers)]


def _times_z(p: HomPoly, k: int) -> HomPoly:
    """p * Z^k; for k < 0, p / Z^-k, which must be exact."""
    return HomPoly._from_ints(p.degree + k, p.den, {
        (i, j, z + k): c for (i, j, z), c in p.ints.items()})


def _interpolated_form(fibers) -> HomPoly | None:
    """The form of degree d = len(fibers) - 1 with fiber g up to a scalar
    at X = x, Z = 1 for each {x: g} (g in Z[Y] by the power), interpolated
    by `int_rref` on Vandermonde rows; None if a term exceeds degree d."""
    d = len(fibers) - 1
    rows = int_rref([[g[-1] * x ** i for i in range(d + 1)] + g
                     for x, g in fibers.items()])
    terms = {(i, j, d - i - j): Fraction(c, row[i]) for i, row in rows
             for j, c in enumerate(row[d + 1:]) if c}
    return HomPoly(d, terms) if min(e[2] for e in terms) >= 0 else None


def _shear(p: HomPoly, t: int) -> HomPoly:
    """Substitute X -> X + t*Y."""
    if t == 0:
        return p
    ints: dict[tuple[int, int, int], int] = {}
    for (i, j, k), c in p.ints.items():
        for l in range(i + 1):
            key = (i - l, j + l, k)
            val = c * math.comb(i, l) * t ** l
            ints[key] = ints.get(key, 0) + val
    return HomPoly._from_ints(p.degree, p.den, ints)


def _shears(p: HomPoly, q: HomPoly):
    """The shear parameters t = 0, 1, ... whose projection center [t:1:0]
    lies on neither curve. When neither contains the line Z = 0, at most
    deg p + deg q values of t are skipped."""
    for t in count():
        center = ProjPoint(t, 1, 0)
        if evaluate(p, center) != 0 and evaluate(q, center) != 0:
            yield t


def _y_coeffs(terms, degree: int, x, z=1) -> list:
    """Coefficients of a form, given by its terms, at (x, Y, z), from
    Y^degree down."""
    out = [0] * (degree + 1)
    for (i, j, k), c in terms.items():
        out[degree - j] += c * x ** i * z ** k
    return out


def _fiber(p: HomPoly, x: Fraction, z: Fraction) -> list[int]:
    """p(x, s, z) as a primitive integer polynomial in s, read from the
    integer terms of p: the primitive part drops its denominator."""
    return int_poly(reversed(_y_coeffs(p.ints, p.degree, x, z)))
