"""Point-configuration invariants and 4-point-line incidence structures.

m_j of a point set is the maximum number of its points lying on a single
curve of degree j. All three are read off exact integer invariants of the
points' primitive integer coordinates, with no subset search: the brackets
[ijk] = det(p_i, p_j, p_k) give the collinear groups, and six points lie on
a conic iff [123][145][246][356] = [124][135][236][456]; a subset lies on a
cubic iff the Gale vectors of the points outside it, a basis of the left
kernel of the cubic evaluation matrix, are dependent. Incidence structures
are abstract families of 4-element label sets in which any two lines share
exactly one label; they are enumerated up to relabeling and realized by
seeded random placement with exact certification.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, _cross, evaluate, join,
                        line_coeffs, meet, monomial_count, monomials)
from .linalg import bareiss_step, int_rank, int_rref, nullspace


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct projective points; label i means points[i-1]."""
    points: tuple[ProjPoint, ...]

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if p.coords in seen:
                raise PreconditionError("points must be pairwise distinct")
            seen.add(p.coords)

    def __len__(self):
        return len(self.points)

    def point(self, label: int) -> ProjPoint:
        return self.points[label - 1]


@dataclass(frozen=True)
class MSequence:
    m1: int
    m2: int
    m3: int
    witnesses: tuple[tuple[tuple[int, ...], HomPoly], ...]  # per degree 1..3

    def as_tuple(self):
        return (self.m1, self.m2, self.m3)


@dataclass(frozen=True)
class IncidenceStructure:
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


def _int_coords(p: ProjPoint) -> tuple[int, int, int]:
    """The point's coordinates times the lcm D of their denominators.

    They are primitive. The last nonzero coordinate is 1 and becomes D,
    and a prime p dividing D divides some denominator to its full power
    in D, so that coordinate times D is prime to p.
    """
    scale = math.lcm(*(x.denominator for x in p.coords))
    return tuple(x.numerator * (scale // x.denominator) for x in p.coords)


def _evaluation_rows(points, degree):
    """Integer monomial evaluation rows, one per point.

    Each point is scaled to integer coordinates by the lcm D of its
    denominators (`_int_coords`), so its row is D**degree times the
    rational one: the same row as clearing the denominators of the
    rational values.
    """
    mons = monomials(degree)
    rows = []
    for p in points:
        pa, pb, pc = ([x ** e for e in range(degree + 1)]
                      for x in _int_coords(p))
        rows.append([pa[i] * pb[j] * pc[k] for i, j, k in mons])
    return rows


def subset_on_curve(points, degree: int):
    """The degree-`degree` curve through all the points, or None.

    Returns a witness curve exactly when the evaluation matrix has a
    nonzero kernel.
    """
    rows = _evaluation_rows(points, degree)
    ncols = monomial_count(degree)
    if int_rank(rows) == ncols:
        return None
    return HomPoly.from_coeff_vector(degree, nullspace(rows, ncols)[0])


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

    Up to five points impose independent conditions on conics iff no four
    are collinear. If a subset M on a conic has five independent points,
    let S be its shortest prefix that does: M lies on the one conic through
    those five, so M is inside S plus the later indices that pass their
    bracket test, a set on that conic. These sets and the subsets on a
    conic with fewer than five independent points are the candidates, and
    the witness is the first of the largest. S is an independent 5-subset
    or a subset with fewer than five independent points grown by one; such
    a subset, once it has five or more points, has all but one on a line L
    and stays on L times a line whatever point is added. A 5-subset with
    four collinear points passes every bracket test, so one that passes
    every later index is checked. Two collinear groups, or one and a
    point, lie on a conic, as does every candidate, so m2 >= `bound`: only
    subsets that can still reach it are kept.
    """
    n = len(table)
    lines = [sum(1 << i for i in g) for g in groups if len(g) >= 3]
    on = [[g for g in lines if g.bit_count() >= 4 and g >> i & 1]
          for i in range(n)]
    bound = min(n, max([len(g) + 1 for g in groups]
                       + [(a | b).bit_count()
                          for a, b in itertools.combinations(lines, 2)],
                       default=n))

    def extend(chosen, test, f):
        if test is None and all((chosen & g).bit_count() < 3 for g in on[f]):
            chosen |= 1 << f
            if chosen.bit_count() == 5:
                test = _conic_test(table, [i for i in range(n)
                                           if chosen >> i & 1])
        return chosen, test

    found = []
    level = [(q, 0, _conic_test(table, q)) for q in
             itertools.combinations(range(min(n, n + 5 - bound)), 5)]
    while level:
        grown = []
        for subset, chosen, test in level:
            if len(subset) + n - 1 - subset[-1] < bound:
                continue
            ext = range(subset[-1] + 1, n)
            if test is not None:
                lhs, rhs, bd, ce, bc, de = test
                hits = [f for f in ext
                        if lhs * bd[f] * ce[f] == rhs * bc[f] * de[f]]
                if len(subset) == 5 and ext and len(hits) == len(ext):
                    chosen, test = 0, None
                    for x in subset:
                        chosen, test = extend(chosen, test, x)
                if test is not None:
                    found.append(subset + tuple(hits))
                    bound = max(bound, len(found[-1]))
                    continue
            found.append(subset)
            grown += [(subset + (f,), *extend(chosen, test, f)) for f in ext]
        level = grown
    m2 = max(map(len, found), default=n)
    return min((c for c in found if len(c) == m2), default=tuple(range(n)))


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


def m_sequence(s: PointSet) -> MSequence:
    """Exact invariants (m1, m2, m3) with witness subsets and curves.

    m_d is the largest k such that some k-subset lies on a curve of degree
    d; its witness is the lexicographically first such subset, and the
    first kernel vector of its rows the curve. m1 is the largest
    collinear group and the witness the least, or (1, 2); conics use the
    bracket identity [123][145][246][356] = [124][135][236][456]; and
    m3 = n - g for the size g of the smallest dependent set of Gale
    vectors, or n when the cubic evaluation matrix has rank below 10.

    The contract callers may rely on: some m_d-subset lies on a curve of
    degree d, and unless m_d = n, every (m_d + 1)-subset has a full-rank
    evaluation matrix. So some k-subset lies on such a curve exactly when
    k <= m_d; `currents.sharpness_example` reads its 105 full-rank
    verdicts on 13 of 15 points off m3 < 13.
    """
    n = len(s)
    if n > 16:
        raise PreconditionError("point sets capped at 16 points")
    table, groups = _brackets([_int_coords(p) for p in s.points])
    m1 = max(map(len, groups), default=n)
    line = min((g for g in groups if len(g) == m1), default=tuple(range(n)))
    witnesses = []
    for degree, combo in ((1, line), (2, _conic_witness(table, groups)),
                          (3, _cubic_witness(_evaluation_rows(s.points, 3)))):
        rows = _evaluation_rows([s.points[i] for i in combo], degree)
        curve = HomPoly.from_coeff_vector(
            degree, nullspace(rows, monomial_count(degree))[0])
        witnesses.append((tuple(i + 1 for i in combo), curve))
    m1, m2, m3 = (len(w[0]) for w in witnesses)
    return MSequence(m1=m1, m2=m2, m3=m3, witnesses=tuple(witnesses))


def four_point_lines(s: PointSet):
    """All maximal collinear label groups of size >= 3, largest first."""
    groups = _brackets([_int_coords(p) for p in s.points])[1]
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


@dataclass(frozen=True)
class EnumerationReport:
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


@dataclass(frozen=True)
class Realization:
    point_set: PointSet
    lines: tuple[HomPoly, ...]


@dataclass(frozen=True)
class NonRealizationReport:
    attempts: int
    message: str


def _random_fraction(rng):
    # small heights keep downstream exact arithmetic cheap
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


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
    n = structure.n_points
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
            other = ProjPoint(_random_fraction(rng), _random_fraction(rng), 1)
            if other.coords == anchors[0].coords:
                return None
            eq = join(anchors[0], other)
        else:
            p1 = ProjPoint(_random_fraction(rng), _random_fraction(rng), 1)
            p2 = ProjPoint(_random_fraction(rng), _random_fraction(rng), 1)
            if p1.coords == p2.coords:
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
            pos[label] = ProjPoint(_random_fraction(rng),
                                   _random_fraction(rng), 1)
    pts = [pos[label] for label in range(1, n + 1)]
    if len({p.coords for p in pts}) != n:
        return None
    ps = PointSet(tuple(pts))
    # certification: the collinear groups of size >= 3 are exactly the lines
    groups = four_point_lines(ps)
    expected = sorted(tuple(sorted(l)) for l in structure.lines)
    if sorted(tuple(g) for g in groups) != expected:
        return None
    return Realization(point_set=ps, lines=tuple(line_eqs))
