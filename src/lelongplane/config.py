"""Point-configuration invariants and 4-point-line incidence structures.

m_j of a point set is the maximum number of its points lying on a single
curve of degree j; a k-subset lies on such a curve iff its integer monomial
evaluation matrix has a nonzero kernel. k walks upward from the
interpolation floor until no k-subset is found. The subset search runs
depth-first in lexicographic order, each node carrying the remaining rows
fraction-free reduced by the rows it chose, and drops every prefix that
would reach full rank: rank never drops when rows are added, so the first
subset it returns is the first one in `combinations` order. Incidence
structures are abstract families of 4-element label sets
in which any two lines share exactly one label; they are enumerated up to
relabeling and realized by seeded random placement with exact
certification.
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
from .linalg import bareiss_step, int_rank, nullspace


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

    def line_count_at(self, label: int) -> int:
        return sum(label in line for line in self.lines)


def _int_coords(p: ProjPoint) -> tuple[int, int, int]:
    """The point's coordinates times the lcm D of their denominators.

    They are primitive. The last nonzero coordinate is 1 and becomes D,
    and a prime p dividing D divides some denominator to its full power
    in D, so that coordinate times D is prime to p.
    """
    scale = math.lcm(*(x.denominator for x in p.coords))
    return tuple(int(x * scale) for x in p.coords)


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


def _first_deficient_subset(rows, k, ncols):
    """The lexicographically first k-subset of row indices whose rows span
    fewer than `ncols` dimensions, or None.

    Depth-first in index order. Each node holds the rows after its last
    chosen index, reduced by the pivot rows it chose (`bareiss_step`, one
    column fewer per pivot), so a row depends on the chosen rows exactly
    when it is all zeros. A nonzero row at rank ncols - 1 would reach full
    rank, and adding rows never lowers the rank, so there only zero rows
    can join and the first `need` of them complete the subset.
    """
    def search(idx, red, prev, rank, need):
        if not need:
            return []
        if rank == ncols - 1:
            zeros = [i for i, row in zip(idx, red) if not any(row)]
            return zeros[:need] if len(zeros) >= need else None
        for t in range(len(idx) - need + 1):
            row = red[t]
            col = next((c for c, x in enumerate(row) if x), None)
            if col is None:
                found = search(idx[t + 1:], red[t + 1:], prev, rank,
                               need - 1)
            else:
                found = search(idx[t + 1:],
                               bareiss_step(row, col, prev, red[t + 1:]),
                               row[col], rank + 1, need - 1)
            if found is not None:
                return [idx[t]] + found
        return None

    combo = search(list(range(len(rows))), rows, 1, 0, k)
    return None if combo is None else tuple(combo)


def m_sequence(s: PointSet) -> MSequence:
    """Exact invariants (m1, m2, m3) with witness subsets and curves.

    m_d is the largest k such that some k-subset lies on a curve of degree
    d, and its witness is the lexicographically first such subset, found
    by `_first_deficient_subset`. Rank never drops when rows are added, so
    if some k-subset lies on a curve, so does some (k-1)-subset: m_d is the
    last k of an upward walk from the interpolation floor at which a subset
    is still found. At the floor every subset lies on a curve, so a witness
    always exists. The search eliminates fraction-free, each step dividing
    exactly by the previous pivot, and never builds a Fraction.

    The contract callers may rely on: some m_d-subset lies on a curve of
    degree d, and unless m_d = n, every (m_d + 1)-subset has a full-rank
    evaluation matrix. So some k-subset lies on such a curve exactly when
    k <= m_d; `currents.sharpness_example` reads its 105 full-rank
    verdicts on 13 of 15 points off m3 < 13.
    """
    n = len(s)
    if n > 16:
        raise PreconditionError("point sets capped at 16 points")
    floors = {1: 2, 2: 5, 3: 9}
    values = {}
    witnesses = []
    for degree in (1, 2, 3):
        rows = _evaluation_rows(s.points, degree)
        ncols = monomial_count(degree)
        k = min(floors[degree], n)
        combo = _first_deficient_subset(rows, k, ncols)
        while k < n:
            larger = _first_deficient_subset(rows, k + 1, ncols)
            if larger is None:
                break
            k, combo = k + 1, larger
        curve = HomPoly.from_coeff_vector(
            degree, nullspace([rows[i] for i in combo], ncols)[0])
        values[degree] = k
        witnesses.append((tuple(i + 1 for i in combo), curve))
    return MSequence(m1=values[1], m2=values[2], m3=values[3],
                     witnesses=tuple(witnesses))


def four_point_lines(s: PointSet):
    """All maximal collinear label groups of size >= 3, largest first.

    Joins and membership tests run on primitive integer coordinates:
    scaling a point or a line by a nonzero factor changes no zero test.
    """
    coords = [_int_coords(p) for p in s.points]
    groups = set()
    for i, j in itertools.combinations(range(len(coords)), 2):
        a, b, c = _cross(coords[i], coords[j])
        members = tuple(k + 1 for k, (x, y, z) in enumerate(coords)
                        if a * x + b * y + c * z == 0)
        if len(members) >= 3:
            groups.add(members)
    return sorted(groups, key=lambda g: (-len(g), g))


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
