"""Linear systems with base-point multiplicity conditions.

Oracles: interpolation dimensions known in closed form (lines through 2
points, conics through 5, cubics through 8 or 9), independent re-checks of
every kernel member via local vanishing orders, and the classical
nine-point coincidence for two cubics meeting in a rational grid.
"""

import random
import warnings
from fractions import Fraction

import pytest

from lelongplane.config import condition_rows, curves_through
from lelongplane.errors import PreconditionError, UnsupportedInstanceError
from lelongplane.exactpoly import HomPoly, ProjPoint, evaluate, monomial_count
from lelongplane.instances import INSTANCE_KINDS, generate, generic12
from lelongplane.linsys import (PairFailure, VanishingCondition, build_system,
                                cayley_bacharach_check, independent_pair,
                                linearly_independent, pencil_member,
                                satisfies)


def rand_point(rng):
    return ProjPoint(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                     Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                     Fraction(1))


def distinct_points(rng, n):
    out, seen = [], set()
    while len(out) < n:
        p = rand_point(rng)
        if p.coords not in seen:
            seen.add(p.coords)
            out.append(p)
    return out


def test_interpolation_dimensions():
    rng = random.Random(17)
    pts = distinct_points(rng, 9)
    conds = [VanishingCondition(p, 1) for p in pts]
    assert build_system(1, conds[:2]).dim == 1   # unique line
    assert build_system(2, conds[:5]).dim == 1   # unique conic
    assert build_system(3, conds[:8]).dim == 2   # pencil of cubics
    assert build_system(3, conds[:9]).dim == 1
    assert build_system(2, []).dim == monomial_count(2)


def test_double_point_row_count():
    x = ProjPoint(Fraction(1), Fraction(2), Fraction(1))
    cond = VanishingCondition(x, 2)
    assert len(condition_rows(4, x, 2)) == 3
    sys2 = build_system(2, [cond])
    assert sys2.dim == 3  # conics singular at a point


def test_kernel_members_satisfy_conditions():
    # independent re-check through local vanishing orders, including a
    # point at infinity and one whose largest coordinate is not the last
    rng = random.Random(29)
    pts = [ProjPoint(Fraction(3), Fraction(1), Fraction(0)),
           ProjPoint(Fraction(90), Fraction(2), Fraction(1))]
    pts += distinct_points(rng, 4)
    conds = [VanishingCondition(pts[0], 2), VanishingCondition(pts[1], 2)] \
        + [VanishingCondition(p, 1) for p in pts[2:]]
    system = build_system(4, conds)
    assert system.dim == monomial_count(4) - 10
    assert system.kernel_basis
    for member in system.kernel_basis:
        for cond in conds:
            assert satisfies(member, cond)


def test_condition_rows_scale_free():
    # the rows only depend on the projective point, not the representative
    x = ProjPoint(Fraction(4), Fraction(6), Fraction(2))
    y = ProjPoint(Fraction(2), Fraction(3), Fraction(1))
    assert condition_rows(3, x, 2) == condition_rows(3, y, 2)


def test_curves_through_is_the_order_one_system():
    """The kernel of the evaluation rows is the basis `build_system`
    gives for order-1 conditions at the points, on every kind at seed 0
    and degrees 1-4."""
    for kind in INSTANCE_KINDS:
        points = generate(kind, 0).point_set.points
        conds = [VanishingCondition(x, 1) for x in points]
        for d in range(1, 5):
            assert curves_through(points, d) == list(
                build_system(d, conds).kernel_basis)


def test_duplicate_conditions_merge_with_warning():
    x = ProjPoint(Fraction(1), Fraction(1), Fraction(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = build_system(2, [VanishingCondition(x, 1),
                                  VanishingCondition(x, 2)])
    assert any("conflicting" in str(w.message) for w in caught)
    assert len(system.conditions) == 1
    assert system.conditions[0].order == 2


def test_degree_cap():
    with pytest.raises(PreconditionError):
        build_system(13, [])


def test_sextic_system_dimension_four():
    s = generic12(123).point_set
    conds = [VanishingCondition(s.point(l), 2) for l in range(1, 7)] \
        + [VanishingCondition(s.point(l), 1) for l in range(7, 13)]
    system = build_system(6, conds)
    assert system.matrix_rank == 24
    assert system.dim == 4


def test_independent_pair_direct_and_sum():
    lx = HomPoly.line(1, 0, 0)
    ly = HomPoly.line(0, 1, 0)
    lz = HomPoly.line(0, 0, 1)
    from lelongplane.linsys import LinearSystem
    basis = (lx * ly, lx * lz, ly * lz, lx * lx)
    system = LinearSystem(degree=2, conditions=(),
                          matrix_rank=monomial_count(2) - len(basis),
                          kernel_basis=basis)
    result, trace = independent_pair(system, [lx, ly])
    assert result is not None
    p, q = result
    assert linearly_independent(p, q)
    for member in (p, q):
        from lelongplane.exactpoly import divides
        assert not divides(lx, member) and not divides(ly, member)
    assert any(step.startswith("sum") for step in trace)


def test_independent_pair_reports_blocking_pattern():
    lx = HomPoly.line(1, 0, 0)
    ly = HomPoly.line(0, 1, 0)
    lz = HomPoly.line(0, 0, 1)
    from lelongplane.linsys import LinearSystem
    # every member and every pairwise sum is divisible by X
    basis = (lx * ly, lx * lz, lx * lx)
    system = LinearSystem(degree=2, conditions=(),
                          matrix_rank=monomial_count(2) - len(basis),
                          kernel_basis=basis)
    result, failure = independent_pair(system, [lx])
    assert result is None
    assert isinstance(failure, PairFailure)
    assert all(pattern == (0,) for pattern in failure.basis_pattern)


def test_pencil_member():
    f = HomPoly.line(1, 0, 0) * HomPoly.line(0, 1, 0)
    g = HomPoly.line(0, 0, 1) * HomPoly.line(1, 1, 1)
    h = 3 * f + Fraction(-2, 5) * g
    assert pencil_member(f, g, h) == (Fraction(3), Fraction(-2, 5))
    outside = HomPoly.monomial((2, 0, 0)) + HomPoly.monomial((0, 0, 2), 7)
    assert pencil_member(f, g, outside) is None
    with pytest.raises(PreconditionError):
        pencil_member(f, 2 * f, h)


def test_nine_point_coincidence_on_grid():
    # two triples of lines meeting in the rational 3x3 grid: every cubic
    # through 8 of the 9 points passes through the 9th
    horiz = (HomPoly.line(0, 1, 0) * HomPoly.line(0, 1, -1)
             * HomPoly.line(0, 1, -2))
    vert = (HomPoly.line(1, 0, 0) * HomPoly.line(1, 0, -1)
            * HomPoly.line(1, 0, -2))
    report = cayley_bacharach_check(horiz, vert)
    assert report.passed
    assert len(report.points) == 9
    assert all(report.per_point)


def test_nine_point_check_rejects_irrational_intersections():
    # a conic-line pair with irrational tangency cannot occur; instead use
    # cubics with a non-rational intersection: X^3 - 2Z^3 and Y^3 - Z^3
    p = HomPoly.monomial((3, 0, 0)) - HomPoly.monomial((0, 0, 3), 2)
    q = HomPoly.monomial((0, 3, 0)) - HomPoly.monomial((0, 0, 3))
    with pytest.raises(UnsupportedInstanceError):
        cayley_bacharach_check(p, q)
