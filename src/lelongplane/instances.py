"""Seeded generators for the named 12-point configurations.

Every generator certifies its output exactly: the values m1, m2 and m3
of the m-sequence are recomputed from scratch (`config._witness_labels`,
with no witness curve, since an instance stores none) and any advertised
incidence (points on a conic, a 4-point line, the realized line
structures) is checked before the instance is returned. Generation is
deterministic in the seed; degenerate draws are resampled within a
bounded budget.
"""

from __future__ import annotations

import random

from .config import (SHAPE_3CONCURRENT_PLUS2, SHAPE_3CONCURRENT_PLUS2_SPLIT,
                     SHAPE_5LINES_CAP2, SHAPE_DOUBLE_STAR, IncidenceStructure,
                     PointSet, Realization, _point_on_line, _random_point,
                     _witness_labels, realize_structure)
from .currents import sharpness_example
from .curves import irreducible_conic_through
from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, evaluate, join,
                        partial_derivatives)
from .record import Record


class Instance(Record):
    """A generated configuration with its certified invariants."""
    kind: str
    seed: int
    point_set: PointSet
    m_seq: tuple[int, int, int]
    lines: tuple[HomPoly, ...] = ()
    extra: ProjPoint | None = None


INSTANCE_KINDS = ("generic12", "figure1", "figure2", "figure3", "figure4",
                  "figure5", "case2", "case3", "case4", "example6lines",
                  "conic6", "conic7")

_BUDGET = 200


def _distinct(draw, count, avoid, what):
    """count distinct points from draw(), which gives a point or None,
    none of them in avoid, within _BUDGET draws per point."""
    out, seen = [], set(avoid)
    for _ in range(_BUDGET * count):
        if len(out) == count:
            break
        p = draw()
        if p is not None and p not in seen:
            seen.add(p)
            out.append(p)
    if len(out) < count:
        raise PreconditionError(f"{what} sampling budget exhausted")
    return out


def _distinct_points(rng, count):
    return _distinct(lambda: _random_point(rng), count, (), "point")


def random_conic(rng) -> tuple[HomPoly, ProjPoint]:
    """A random irreducible conic together with a rational point on it."""
    for _ in range(_BUDGET):
        base = _distinct_points(rng, 5)
        conic = irreducible_conic_through(base)
        if conic is not None:
            return conic, base[0]
    raise PreconditionError("could not sample an irreducible conic")


def second_intersection(conic: HomPoly, p0: ProjPoint, d: ProjPoint):
    """The residual intersection of the chord from p0 in direction d.

    For a quadratic form q with q(p0) = 0, the line p0 + s*d meets the conic
    again at s = -grad q(p0).d / q(d); returns None for tangent or
    degenerate directions.
    """
    qd = evaluate(conic, d)
    if qd == 0:
        return None
    grads = partial_derivatives(conic)
    b = sum(evaluate(g, p0) * dc for g, dc in zip(grads, d.coords))
    s = -b / qd
    if s == 0:
        return None
    coords = tuple(pc + s * dc for pc, dc in zip(p0.coords, d.coords))
    if all(c == 0 for c in coords):
        return None
    return ProjPoint(*coords)


def points_on_conic(conic: HomPoly, p0: ProjPoint, rng, count: int):
    """count distinct rational points on the conic, not including p0."""
    return _distinct(lambda: second_intersection(conic, p0,
                                                 _random_point(rng)),
                     count, (p0,), "conic point")


def _certified(kind, seed, points, expect, lines=(), extra=None):
    s = PointSet(tuple(points))
    m_seq = tuple(map(len, _witness_labels(s)))
    if m_seq != expect:
        return None
    return Instance(kind=kind, seed=seed, point_set=s,
                    m_seq=m_seq, lines=tuple(lines), extra=extra)


def generic12(seed: int) -> Instance:
    """12 random points with certified m-sequence (2, 5, 9)."""
    rng = random.Random(seed)
    for _ in range(_BUDGET):
        inst = _certified("generic12", seed, _distinct_points(rng, 12),
                          (2, 5, 9))
        if inst is not None:
            return inst
    raise PreconditionError("generic sampling budget exhausted")


def conic_instance(seed: int, k: int) -> Instance:
    """The kind conic6 or conic7: k = 6 or 7 points on an irreducible
    conic plus 12 - k generic points; m-sequence (2, k, 9)."""
    rng = random.Random(seed)
    for _ in range(_BUDGET):
        conic, p0 = random_conic(rng)
        on_conic = [p0] + points_on_conic(conic, p0, rng, k - 1)
        free = _distinct_points(rng, 12 - k)
        inst = _certified(f"conic{k}", seed, on_conic + free, (2, k, 9))
        if inst is not None:
            return inst
    raise PreconditionError(f"conic{k} sampling budget exhausted")


_FIGURE_SHAPES: dict[str, tuple[IncidenceStructure, tuple[int, int, int]]] = {
    # five 4-point lines, pairwise meeting in distinct points, cap 2
    "figure1": (SHAPE_5LINES_CAP2, (4, 7, 9)),
    # same incidence class and realization seeds as figure1, so figure2
    # yields the same instances and certificates
    "figure2": (SHAPE_5LINES_CAP2, (4, 7, 9)),
    # three lines concurrent at label 1 plus two more through label 11
    "figure3": (SHAPE_3CONCURRENT_PLUS2, (4, 7, 10)),
    # two concurrence points (labels 1 and 2) sharing a line
    "figure4": (SHAPE_3CONCURRENT_PLUS2_SPLIT, (4, 7, 10)),
    # three lines through label 1 and three through label 11
    "figure5": (SHAPE_DOUBLE_STAR, (4, 7, 10)),
}


def figure_instance(kind: str, seed: int) -> Instance:
    """A rational realization of one of the named line structures, with the
    realized 4-point lines and the certified m-sequence."""
    if kind not in _FIGURE_SHAPES:
        raise PreconditionError(f"unknown figure kind: {kind}")
    shape, expect = _FIGURE_SHAPES[kind]
    for attempt in range(40):
        result = realize_structure(shape, seed * 1009 + attempt)
        if not isinstance(result, Realization):
            continue
        inst = _certified(kind, seed, result.point_set.points, expect,
                          lines=result.lines)
        if inst is not None:
            return inst
    raise PreconditionError(f"could not realize {kind} within the budget")


def case2_instance(seed: int) -> Instance:
    """A unique 4-point line, six points on an irreducible conic, and two
    free points; m-sequence (4, 6, 10)."""
    rng = random.Random(seed)
    for _ in range(_BUDGET):
        conic, p0 = random_conic(rng)
        a, b = _distinct_points(rng, 2)
        line = join(a, b)
        if evaluate(line, p0) == 0:
            continue
        on_line = [a, b] + _distinct(lambda: _point_on_line(line, rng), 2,
                                     (a, b), "line point")
        on_conic = [p0] + points_on_conic(conic, p0, rng, 5)
        if any(evaluate(line, p) == 0 for p in on_conic):
            continue
        free = _distinct_points(rng, 2)
        pts = on_line + on_conic + free
        if len(set(pts)) != 12:
            continue
        inst = _certified("case2", seed, pts, (4, 6, 10), lines=(line,))
        if inst is not None:
            return inst
    raise PreconditionError("case2 sampling budget exhausted")


def case3_instance(seed: int) -> Instance:
    """Seven points on an irreducible conic; of the other five, exactly
    three are collinear; m-sequence (3, 7, 10)."""
    rng = random.Random(seed)
    for _ in range(_BUDGET):
        conic, p0 = random_conic(rng)
        on_conic = [p0] + points_on_conic(conic, p0, rng, 6)
        x8, x9 = _distinct_points(rng, 2)
        line = join(x8, x9)
        if any(evaluate(line, p) == 0 for p in on_conic):
            continue
        (x12,) = _distinct(lambda: _point_on_line(line, rng), 1, (x8, x9),
                           "line point")
        x10, x11 = _distinct_points(rng, 2)
        pts = on_conic + [x8, x9, x10, x11, x12]
        if len(set(pts)) != 12:
            continue
        inst = _certified("case3", seed, pts, (3, 7, 10), lines=(line,))
        if inst is not None:
            return inst
    raise PreconditionError("case3 sampling budget exhausted")


def case4_instance(seed: int) -> Instance:
    """Seven points on an irreducible conic, four on a line, one point off
    both, and an extra point whose join with the off point misses the rest
    of the set; m-sequence (4, 7, 11)."""
    rng = random.Random(seed)
    for _ in range(_BUDGET):
        conic, p0 = random_conic(rng)
        on_conic = [p0] + points_on_conic(conic, p0, rng, 6)
        a, b = _distinct_points(rng, 2)
        line = join(a, b)
        if evaluate(line, p0) == 0:
            continue
        on_line = [a, b] + _distinct(lambda: _point_on_line(line, rng), 2,
                                     (a, b), "line point")
        if any(evaluate(line, p) == 0 for p in on_conic):
            continue
        (x12,) = _distinct_points(rng, 1)
        if evaluate(line, x12) == 0 or evaluate(conic, x12) == 0:
            continue
        pts = on_conic + on_line + [x12]
        if len(set(pts)) != 12:
            continue
        extra = None
        for _ in range(_BUDGET):
            cand = _random_point(rng)
            if cand in pts:
                continue
            if evaluate(line, cand) == 0 or evaluate(conic, cand) == 0:
                continue
            through = join(cand, x12)
            if any(evaluate(through, p) == 0 for p in pts[:-1]):
                continue
            extra = cand
            break
        if extra is None:
            continue
        inst = _certified("case4", seed, pts, (4, 7, 11), lines=(line,),
                          extra=extra)
        if inst is not None:
            return inst
    raise PreconditionError("case4 sampling budget exhausted")


def example6lines(seed: int) -> Instance:
    """The 15 pairwise intersections of six generic lines."""
    rep = sharpness_example(seed)
    s = PointSet(rep.points)
    return Instance(kind="example6lines", seed=seed, point_set=s,
                    m_seq=rep.m_seq, lines=rep.lines)


def generate(kind: str, seed: int) -> Instance:
    """Dispatch by kind name; see INSTANCE_KINDS."""
    if kind == "generic12":
        return generic12(seed)
    if kind in _FIGURE_SHAPES:
        return figure_instance(kind, seed)
    if kind == "case2":
        return case2_instance(seed)
    if kind == "case3":
        return case3_instance(seed)
    if kind == "case4":
        return case4_instance(seed)
    if kind == "example6lines":
        return example6lines(seed)
    if kind in ("conic6", "conic7"):
        return conic_instance(seed, int(kind[-1]))
    raise PreconditionError(f"unknown instance kind: {kind}")
