"""Linear systems with base-point multiplicity conditions.

Oracles: interpolation dimensions known in closed form (lines through 2
points, conics through 5, cubics through 8 or 9), and independent
re-checks of every kernel member via local vanishing orders.
"""

import random
import warnings
from fractions import Fraction

import pytest

from lelongplane.config import condition_rows, curves_through
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import ProjPoint, monomial_count, vanishing_order
from lelongplane.instances import INSTANCE_KINDS, generate, generic12
from lelongplane.linsys import VanishingCondition, build_system


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
            assert vanishing_order(member, cond.point) >= cond.order


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
