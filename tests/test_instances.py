"""Seeded instance generators and their certified m-sequence gates.

Oracles: each generator's m-sequence is recomputed here from its points,
and the geometric side conditions (points on the stated conic or line,
extra point off the witness cubic) are checked exactly.
"""

import pytest

from lelongplane import instances
from lelongplane.config import m_sequence
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import ProjPoint, evaluate
from lelongplane.instances import (INSTANCE_KINDS, case4_instance, generate,
                                   points_on_conic, random_conic,
                                   second_intersection)
import random


EXPECTED_MSEQ = {
    "generic12": (2, 5, 9),
    "conic6": (2, 6, 9),
    "conic7": (2, 7, 9),
    "figure1": (4, 7, 9),
    "figure2": (4, 7, 9),
    "figure3": (4, 7, 10),
    "figure4": (4, 7, 10),
    "figure5": (4, 7, 10),
    "case2": (4, 6, 10),
    "case3": (3, 7, 10),
    "case4": (4, 7, 11),
}


@pytest.mark.parametrize("kind", sorted(EXPECTED_MSEQ))
def test_generator_m_sequences(kind):
    inst = generate(kind, 1)
    assert inst.m_seq == EXPECTED_MSEQ[kind]
    # recomputed independently from the point set
    assert m_sequence(inst.point_set).as_tuple() == EXPECTED_MSEQ[kind]


def test_kind_enum_and_dispatch():
    assert set(EXPECTED_MSEQ) <= set(INSTANCE_KINDS)
    with pytest.raises((PreconditionError, KeyError, ValueError)):
        generate("nonsense", 0)


def test_case4_extra_point_side_conditions():
    inst = case4_instance(6)
    assert inst.extra is not None
    # the extra point is off the point set
    assert all(inst.extra != p for p in inst.point_set.points)
    # and off the m3 witness cubic
    ms = m_sequence(inst.point_set)
    _, cubic = ms.witnesses[2]
    assert evaluate(cubic, inst.extra) != 0


def test_conic_sampling_helpers():
    rng = random.Random(9)
    conic, p0 = random_conic(rng)
    assert evaluate(conic, p0) == 0
    pts = points_on_conic(conic, p0, rng, 6)
    assert len({p.coords for p in pts}) == 6
    for p in pts:
        assert evaluate(conic, p) == 0
    d = pts[1]
    q = second_intersection(conic, p0, d)
    if q is not None:
        assert evaluate(conic, q) == 0


def test_distinct_draws_within_its_budget():
    """The sampler keeps the first `count` new points, skipping failed
    draws (None), repeats and the points to avoid, and refuses after
    _BUDGET draws per point; a last point on the final draw still counts."""
    pts = [ProjPoint(i, 1, 1) for i in range(3)]
    draws = iter([None, pts[0], pts[1], pts[1], pts[2]])
    assert instances._distinct(lambda: next(draws), 2, (pts[0],),
                               "test") == [pts[1], pts[2]]
    budget = instances._BUDGET
    draws = iter([None] * (budget - 1) + [pts[2]])
    assert instances._distinct(lambda: next(draws), 1, (), "test") == \
        [pts[2]]
    calls = []

    def stuck():
        calls.append(None)
        return pts[0]
    with pytest.raises(PreconditionError,
                       match="^line point sampling budget exhausted$"):
        instances._distinct(stuck, 2, (pts[0],), "line point")
    assert len(calls) == 2 * budget


def test_example6lines_instance():
    inst = generate("example6lines", 0)
    assert len(inst.point_set) == 15
    assert inst.m_seq[2] == 12
    assert len(inst.lines) == 6


def test_determinism_across_kinds():
    for kind in ("generic12", "case3", "figure3"):
        a, b = generate(kind, 5), generate(kind, 5)
        assert [p.coords for p in a.point_set.points] == \
            [p.coords for p in b.point_set.points]
