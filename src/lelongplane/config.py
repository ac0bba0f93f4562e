"""Point-configuration invariants and 4-point-line incidence structures.

m_j of a point set is the maximum number of its points lying on a single
curve of degree j, read off exact integer invariants of the points'
primitive integer coordinates: the brackets [ijk] = det(p_i, p_j, p_k)
give the collinear groups and, where an incidence bound on them lets an
irreducible conic win, its test [123][145][246][356] = [124][135][236][456];
a subset lies on a cubic iff the Gale vectors of the points outside it, a
basis of the left kernel of the cubic evaluation matrix, are dependent.

The search, `_witness_labels`, builds no curve; `m_sequence` adds one
witness curve per degree, and callers that read fewer build fewer.

Incidence structures are abstract families of 4-element label sets in
which any two lines share exactly one label; they are enumerated up to
relabeling and realized by seeded random placement with exact
certification.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, _cross, evaluate, join,
                        line_coeffs, meet, monomial_count, monomials)
from .linalg import bareiss_step, int_rref, nullspace
from .record import Record


class PointSet(Record):
    """Ordered distinct projective points; label i means points[i-1]."""
    points: tuple[ProjPoint, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise PreconditionError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    def point(self, label: int) -> ProjPoint:
        return self.points[label - 1]


class MSequence(Record):
    m1: int
    m2: int
    m3: int
    witnesses: tuple[tuple[tuple[int, ...], HomPoly], ...]  # per degree 1..3

    def as_tuple(self):
        return (self.m1, self.m2, self.m3)


class IncidenceStructure(Record):
    n_points: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for line in self.lines:
            if len(line) != 4 or len(set(line)) != 4:
                raise PreconditionError("lines must have 4 distinct labels")
            if any(not 1 <= l <= self.n_points for l in line):
                raise PreconditionError("label out of range")
        for a, b in itertools.combinations(self.lines, 2):
            if len(set(a) & set(b)) > 1:
                raise PreconditionError("two lines share more than one label")


def condition_rows(degree: int, point: ProjPoint, order: int):
    """Integer rows of the condition mult >= order at the point on forms
    of degree `degree`: with m = min(order, degree + 1), the partial
    derivatives of order m - 1 at the point's integer coordinates
    (x, y, z) = `point.ints`.

    The row of (r, s, t) in `monomials(m - 1)` holds, at X^i Y^j Z^k,
    perm(i, r) perm(j, s) perm(k, t) x^(i-r) y^(j-s) z^(k-t), or 0 where
    an exponent falls short; order 1 gives the evaluation row. By Euler's
    identity, each partial of order below m - 1 <= degree at the point is
    a combination of those of order m - 1, so the rows span exactly the
    conditions mult >= m (Fulton, Algebraic Curves, ch. 3). Above
    degree + 1 the cap keeps full rank, since a nonzero form has
    multiplicity at most its degree.
    """
    m, span = min(order, degree + 1), range(degree + 1)
    tables = []
    for x in point.ints:
        # row r holds perm(i, r) x^(i-r), the derivative of row r - 1
        table = [[x ** i for i in span]]
        for _ in range(1, m):
            table.append([i * v for i, v in zip(span, [0] + table[-1])])
        tables.append(table)
    ta, tb, tc = tables
    mons = monomials(degree)
    return [[a[i] * b[j] * c[k] for i, j, k in mons]
            for a, b, c in ((ta[r], tb[s], tc[t])
                            for r, s, t in monomials(m - 1))]


def curves_through(points, degree: int) -> list[HomPoly]:
    """The canonical basis of the degree-`degree` curves through the
    points: the `nullspace` of their order-1 `condition_rows`. It depends
    only on the row space, so it is the kernel basis that
    `linsys.build_system` gives for order-1 conditions at the points."""
    rows = [row for p in points for row in condition_rows(degree, p, 1)]
    return [HomPoly.from_coeff_vector(degree, v)
            for v in nullspace(rows, monomial_count(degree))]


def _brackets(coords):
    """The bracket table, D[i][j][k] = [ijk] = det(p_i, p_j, p_k) for
    i < j, and the maximal collinear index groups: one per pair, the zeros
    of its brackets. Scaling a point changes no zero test."""
    n = len(coords)
    table = [[None] * n for _ in range(n)]
    groups = set()
    for i, j in itertools.combinations(range(n), 2):
        a, b, c = _cross(coords[i], coords[j])
        row = table[i][j] = [a * x + b * y + c * z for x, y, z in coords]
        groups.add(tuple(k for k, v in enumerate(row) if not v))
    return table, groups


def _conic_test(table, q):
    """(L, R, [bd.], [ce.], [bc.], [de.]) for q = (a, b, c, d, e), a < b:
    f lies on a conic with them iff L [bdf][cef] = R [bcf][def], with
    L = [abc][ade] and R = [abd][ace]. The difference is the 6 x 6 conic
    evaluation determinant in brackets (Sturmfels, Algorithms in Invariant
    Theory, 1993)."""
    a, b, c, d, e = q
    return (table[a][b][c] * table[a][d][e], table[a][b][d] * table[a][c][e],
            table[b][d], table[c][e], table[b][c], table[d][e])


def _conic_witness(table, groups):
    """The lexicographically first largest index subset on a conic.

    Three facts carry it. Three points of a group on a conic make its
    line L a component, so the conic holds the points on L and on one
    more maximal group, a pair or a line's: the reducible candidates.
    Otherwise, by Bezout, the conic meets each group line in at most two
    points; loading each point with the number of the k groups of three
    or more through it, the most points whose loads sum to at most 2k,
    irr, bound it, and with five or more points it is irreducible. No
    three points of an irreducible conic are collinear: when irr reaches
    the best candidate, each 5-subset with no zero bracket is searched
    with its later points on its conic, while it can still win.
    """
    n = len(table)
    masks = [sum(1 << i for i in g) for g in groups]
    lines = [g for g in masks if g.bit_count() >= 3]
    unions = {a | b for a in lines for b in masks}
    bound = max((u.bit_count() for u in unions), default=0)
    found = [tuple(i for i in range(n) if u >> i & 1)
             for u in unions if u.bit_count() == bound]
    loads = sorted(sum(g >> i & 1 for g in lines) for i in range(n))
    irr = sum(t <= 2 * len(lines) for t in itertools.accumulate(loads))
    if irr < bound:
        return min(found)
    for q in itertools.combinations(range(min(n, n + 5 - bound)), 5):
        if 4 + n - q[4] < bound:
            continue
        lhs, rhs, bd, ce, bc, de = _conic_test(table, q)
        a, b, c, d, e = q
        # no three of q are collinear iff none of its ten brackets is 0
        if not (lhs and rhs and bd[c] and bd[e] and ce[d] and bc[e]
                and table[a][b][e] and table[a][c][d]):
            continue
        subset = q + tuple([f for f in range(e + 1, n)
                            if lhs * bd[f] * ce[f] == rhs * bc[f] * de[f]])
        if len(subset) >= bound:
            found.append(subset)
            bound = len(subset)
    return min((c for c in found if len(c) == bound), default=tuple(range(n)))


def _last_dependent(vectors, size):
    """The lexicographically last dependent `size`-subset of the integer
    vectors, or None, given that every smaller subset is independent.
    Depth-first from the highest indices, each node holding the later
    vectors reduced by the chosen ones (`bareiss_step`): at depth
    size - 1 a vector depends on them iff it is zero."""
    def search(idx, red, prev, need):
        if need == 1:
            return next(([i] for i, row in zip(idx[::-1], red[::-1])
                         if not any(row)), None)
        for t in range(len(idx) - need, -1, -1):
            row = red[t]
            col = next(c for c, x in enumerate(row) if x)
            found = search(idx[t + 1:], bareiss_step(row, col, prev,
                                                     red[t + 1:]),
                           row[col], need - 1)
            if found is not None:
                return [idx[t]] + found
        return None
    return search(list(range(len(vectors))), vectors, 1, size)


def _cubic_witness(rows):
    """The lexicographically first largest index subset on a cubic.

    When the n x 10 evaluation matrix M has rank 10, a subset lies on a
    cubic iff the Gale vectors of the points outside it are dependent
    (Eisenbud and Popescu, "The projective geometry of the Gale
    transform", J. Algebra 230, 2000): the rows of a left kernel basis of
    M, read off the integer RREF of M^T up to a factor per row. Lex order
    on sets of one size reverses under complement, so the witness is the
    complement of the last smallest dependent set; any n - 9 are one.
    """
    n = len(rows)
    rref = dict(int_rref([list(col) for col in zip(*rows)]))
    if len(rref) < 10:
        return tuple(range(n))
    free = [c for c in range(n) if c not in rref]
    gale = [[rref[i][c] for c in free] if i in rref
            else [int(c == i) for c in free] for i in range(n)]
    for size in range(1, len(free) + 1):
        last = _last_dependent(gale, size)
        if last is not None:
            return tuple(i for i in range(n) if i not in last)
    return tuple(range(9))


def _witness_labels(s: PointSet):
    """The witness label tuples of degrees 1, 2 and 3, with no curve: m_d
    is the length of tuple d. See `m_sequence`, which adds the curves."""
    n = len(s)
    if n > 16:
        raise PreconditionError("point sets capped at 16 points")
    table, groups = _brackets([p.ints for p in s.points])
    m1 = max(map(len, groups), default=n)
    line = min((g for g in groups if len(g) == m1), default=tuple(range(n)))
    combos = (line, _conic_witness(table, groups),
              _cubic_witness([condition_rows(3, p, 1)[0] for p in s.points]))
    return tuple(tuple(i + 1 for i in combo) for combo in combos)


def _witness_curve(s: PointSet, labels, degree: int) -> HomPoly:
    """The witness curve of `m_sequence`: the first `curves_through` basis
    member of degree `degree` through the labelled points."""
    return curves_through([s.point(l) for l in labels], degree)[0]


def m_sequence(s: PointSet) -> MSequence:
    """Exact invariants (m1, m2, m3) with witness subsets and curves.

    m_d is the largest k such that some k-subset lies on a curve of degree
    d; its witness is the lexicographically first such subset, and the
    first kernel vector of its rows the curve. m1 is the largest
    collinear group and the witness the least, or (1, 2); conics use the
    bracket identity [123][145][246][356] = [124][135][236][456]; and
    m3 = n - g for the size g of the smallest dependent set of Gale
    vectors, or n when the cubic evaluation matrix has rank below 10.

    The subsets are `_witness_labels` and the curves `_witness_curve`;
    a caller that reads fewer curves calls those two itself.

    The contract callers may rely on: some m_d-subset lies on a curve of
    degree d, and unless m_d = n, every (m_d + 1)-subset has a full-rank
    evaluation matrix. So some k-subset lies on such a curve exactly when
    k <= m_d; `currents.sharpness_example` reads its 105 full-rank
    verdicts on 13 of 15 points off m3 < 13.
    """
    labels = _witness_labels(s)
    m1, m2, m3 = map(len, labels)
    return MSequence(m1=m1, m2=m2, m3=m3, witnesses=tuple(
        (l, _witness_curve(s, l, d)) for d, l in enumerate(labels, 1)))


def four_point_lines(s: PointSet):
    """All maximal collinear label groups of size >= 3, largest first."""
    groups = _brackets([p.ints for p in s.points])[1]
    return sorted((tuple(k + 1 for k in g) for g in groups if len(g) >= 3),
                  key=lambda g: (-len(g), g))


# ---------------------------------------------------------------------------
# Enumeration of 4-point-line families up to relabeling.


def _place(line, cells):
    """The least relabeled tuple of `line` and the refined cells.

    `cells` is an ordered partition of the labels placed so far; the i-th
    cell owns the next len(cell) values. The k labels a line takes from a
    cell get that cell's k least values and the cell splits in two, taken
    labels first; the line's fresh labels form a new last cell.
    """
    relabeled, refined, start = [], [], 1
    for cell in cells:
        taken = cell & line
        if taken:
            relabeled.extend(range(start, start + len(taken)))
            refined.append(taken)
            if len(taken) < len(cell):
                refined.append(cell - taken)
        else:
            refined.append(cell)
        start += len(cell)
        line = line - taken
    if line:
        relabeled.extend(range(start, start + len(line)))
        refined.append(line)
    return tuple(relabeled), refined


def canonical_form(lines):
    """Lexicographically least relabeling of a line family.

    Minimizes, over all line orderings and all relabelings that number the
    labels by first occurrence, the sequence of relabeled sorted lines.
    The search never permutes labels. It keeps the placed labels in
    ordered cells of labels that no placed line tells apart, each cell
    owning a run of consecutive values (McKay and Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 2014, individualisation
    and refinement cut down to this problem): see `_place`.

    This is exact. Each placed line holds every cell whole or not at all,
    so the prefix is the same however a cell's values fall among its
    labels; and since the cells own disjoint runs of values, the k least
    values of each cell give the elementwise least sorted tuple, and only
    relabelings that give them reach it. Only the remaining lines whose
    tuple is the least can come next, and a node whose prefix is above
    the best leaf's is cut.
    """
    lines = [frozenset(l) for l in lines]
    if not lines:
        return ()
    best: list[tuple[tuple[int, ...], ...] | None] = [None]

    def extend(remaining, cells, acc):
        if not remaining:
            if best[0] is None or acc < best[0]:
                best[0] = acc
            return
        placed = {idx: _place(lines[idx], cells) for idx in remaining}
        least = min(tup for tup, _ in placed.values())
        acc = acc + (least,)
        if best[0] is not None and acc > best[0][:len(acc)]:
            return
        for idx, (tup, refined) in placed.items():
            if tup == least:
                extend(remaining - {idx}, refined, acc)

    extend(frozenset(range(len(lines))), [], ())
    return best[0]


def _extensions(lines, n_points, cap):
    """All ways to add one line meeting every existing line in exactly one
    label, respecting the per-point cap and the label budget; fresh labels
    are appended in order so extensions are already label-normalized."""
    used = sorted({x for l in lines for x in l})
    counts = {x: sum(x in l for l in lines) for x in used}
    available = [x for x in used if counts[x] < cap]
    out = []
    for k in range(0, 5):
        fresh_needed = 4 - k
        if len(used) + fresh_needed > n_points:
            continue
        for combo in itertools.combinations(available, k):
            if any(len(set(combo) & set(l)) != 1 for l in lines):
                continue
            fresh = list(range(len(used) + 1, len(used) + 1 + fresh_needed))
            out.append(tuple(sorted(list(combo) + fresh)))
    return out


class EnumerationReport(Record):
    n_points: int
    per_point_cap: int
    maximum: int
    families_by_size: tuple[tuple[int, tuple[tuple[tuple[int, ...], ...], ...]], ...]
    maximal_families: tuple[tuple[tuple[int, ...], ...], ...]


def enumerate_4lines(n_points: int, per_point_cap: int) -> EnumerationReport:
    """Exhaustive enumeration, up to relabeling, of families of 4-point
    lines in which any two lines meet in exactly one point.

    Returns the maximum family size, the canonical families of every size,
    and the families admitting no further extension.
    """
    if n_points > 12:
        raise PreconditionError("enumeration capped at 12 points")
    if n_points < 0:
        raise PreconditionError("point count must be >= 0")
    if per_point_cap not in (2, 3):
        raise PreconditionError("per-point cap must be 2 or 3")
    if n_points < 4:
        return EnumerationReport(n_points, per_point_cap, 0, ((0, ((),)),), ((),))
    # levels[k - 1] holds one canonical form per relabeling class of size k
    levels = [{canonical_form(((1, 2, 3, 4),))}]
    maximal = set()
    while True:
        nxt = set()
        for fam in levels[-1]:
            exts = _extensions(list(fam), n_points, per_point_cap)
            if not exts:
                maximal.add(fam)
            for line in exts:
                nxt.add(canonical_form(fam + (line,)))
        if not nxt:
            break
        levels.append(nxt)
    return EnumerationReport(
        n_points=n_points, per_point_cap=per_point_cap, maximum=len(levels),
        families_by_size=tuple((k, tuple(sorted(fams)))
                               for k, fams in enumerate(levels, 1)),
        maximal_families=tuple(sorted(maximal)))


# named incidence shapes used by the instance generators: five 4-point
# lines with every point on at most two of them; families of concurrent
# lines; and the two 5-line shapes with a triple point
SHAPE_5LINES_CAP2 = IncidenceStructure(12, (
    (1, 2, 3, 4), (1, 5, 6, 7), (2, 5, 8, 9), (3, 6, 8, 10), (4, 7, 9, 10)))
SHAPE_3CONCURRENT_PLUS2 = IncidenceStructure(12, (
    (1, 2, 3, 4), (1, 5, 6, 7), (1, 8, 9, 10), (2, 5, 8, 11), (3, 6, 9, 11)))
SHAPE_3CONCURRENT_PLUS2_SPLIT = IncidenceStructure(12, (
    (1, 2, 3, 4), (1, 5, 6, 7), (1, 8, 9, 10), (2, 5, 8, 11), (2, 6, 9, 12)))
SHAPE_DOUBLE_STAR = IncidenceStructure(12, (
    (1, 2, 3, 4), (1, 5, 6, 7), (1, 8, 9, 10),
    (11, 2, 5, 8), (11, 3, 6, 9), (11, 4, 7, 10)))


class Realization(Record):
    point_set: PointSet
    lines: tuple[HomPoly, ...]


class NonRealizationReport(Record):
    attempts: int
    message: str


def _random_fraction(rng):
    # small heights keep downstream exact arithmetic cheap
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_point(rng) -> ProjPoint:
    return ProjPoint(_random_fraction(rng), _random_fraction(rng), 1)


def _point_on_line(line: HomPoly, rng) -> ProjPoint:
    a, b, c = line_coeffs(line)
    while True:
        t = _random_fraction(rng)
        if b != 0:
            cand = ProjPoint(t, (-c - a * t) / b, 1)
        elif a != 0:
            cand = ProjPoint((-c - b * t) / a, t, 1)
        else:
            cand = ProjPoint(t, 1, 0)
        if evaluate(line, cand) == 0:
            return cand


def realize_structure(structure: IncidenceStructure, seed: int,
                      attempts: int = 200):
    """Rational points and line equations realizing the incidences exactly,
    with no unintended collinear triple among the points.

    Placement is randomized from the seed; failure after the attempt budget
    yields a report, not a proof of non-realizability.
    """
    rng = random.Random(seed)
    for _ in range(attempts):
        result = _try_realize(structure, rng)
        if result is not None:
            return result
    return NonRealizationReport(
        attempts=attempts,
        message="random placement budget exhausted")


def _try_realize(structure: IncidenceStructure, rng):
    n = structure.n_points
    line_eqs: list[HomPoly] = []
    pos: dict[int, ProjPoint] = {}

    def lines_of(label):
        return [i for i, l in enumerate(structure.lines) if label in l]

    for idx, line in enumerate(structure.lines):
        anchors = [pos[x] for x in line if x in pos]
        if len(anchors) >= 3:
            return None  # ordering forces a non-generic collinearity
        if len(anchors) == 2:
            eq = join(anchors[0], anchors[1])
        elif len(anchors) == 1:
            other = _random_point(rng)
            if other == anchors[0]:
                return None
            eq = join(anchors[0], other)
        else:
            p1 = _random_point(rng)
            p2 = _random_point(rng)
            if p1 == p2:
                return None
            eq = join(p1, p2)
        if eq.is_zero:
            return None
        line_eqs.append(eq)
        # fix every label now lying on two placed lines
        for label in line:
            if label in pos:
                continue
            placed = [i for i in lines_of(label) if i <= idx]
            if len(placed) >= 2:
                x = meet(line_eqs[placed[0]], line_eqs[placed[1]])
                if x is None:
                    return None
                pos[label] = x
    # consistency: every fixed point lies on all of its lines
    for label, x in pos.items():
        for i in lines_of(label):
            if evaluate(line_eqs[i], x) != 0:
                return None
    # labels on exactly one line get a random point of that line;
    # free labels get random points
    for label in range(1, n + 1):
        if label in pos:
            continue
        on = lines_of(label)
        if on:
            pos[label] = _point_on_line(line_eqs[on[0]], rng)
        else:
            pos[label] = _random_point(rng)
    pts = [pos[label] for label in range(1, n + 1)]
    if len(set(pts)) != n:
        return None
    ps = PointSet(tuple(pts))
    # certification: the collinear groups of size >= 3 are exactly the lines
    groups = four_point_lines(ps)
    expected = sorted(tuple(sorted(l)) for l in structure.lines)
    if sorted(tuple(g) for g in groups) != expected:
        return None
    return Realization(point_set=ps, lines=tuple(line_eqs))
