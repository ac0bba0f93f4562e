"""Point-configuration invariants, incidence enumeration, realization.

Oracles: hand-checkable point sets (collinear triples, grids), the plain
`combinations` x rank scan as the reference for the m-sequence read off
brackets and Gale vectors, `int_det` for the bracket identity, the
permutation-branching canonical form and the `Fraction` collinearity
scan kept in `expr_reference`, closed-form counts for small enumerations,
and exact certification of every realized structure through the
m-sequence witnesses.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lelongplane import config
from lelongplane.config import (SHAPE_3CONCURRENT_PLUS2,
                                SHAPE_3CONCURRENT_PLUS2_SPLIT,
                                SHAPE_5LINES_CAP2, SHAPE_DOUBLE_STAR,
                                IncidenceStructure,
                                MSequence, NonRealizationReport, PointSet,
                                Realization, canonical_form, enumerate_4lines,
                                curves_through, four_point_lines, m_sequence,
                                realize_structure)
from lelongplane.currents import sharpness_example
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import (HomPoly, ProjPoint, evaluate, monomial_count,
                                   monomials)
from lelongplane.instances import INSTANCE_KINDS, generate, generic12
from lelongplane.linalg import int_det, int_rank, nullspace

from expr_reference import (evaluation_rows, reference_canonical_form,
                            reference_four_point_lines)


def pt(a, b, c=1):
    return ProjPoint(Fraction(a), Fraction(b), Fraction(c))


def reference_m_sequence(s):
    """Every k-subset in `combinations` order, one rank each."""
    n = len(s)
    values, witnesses = [], []
    for degree, floor in ((1, 2), (2, 5), (3, 9)):
        rows = evaluation_rows(s.points, degree)
        ncols = monomial_count(degree)
        for k in range(n, min(floor, n) - 1, -1):
            combo = next((c for c in itertools.combinations(range(n), k)
                          if int_rank([rows[i] for i in c]) < ncols), None)
            if combo is not None:
                break
        kern = nullspace([[Fraction(x) for x in rows[i]] for i in combo],
                         ncols)
        values.append(k)
        witnesses.append((tuple(i + 1 for i in combo),
                          HomPoly.from_coeff_vector(degree, kern[0])))
    return MSequence(*values, witnesses=tuple(witnesses))


def random_set(n, seed, span=3):
    rng = random.Random(seed)
    pts = {}
    while len(pts) < n:
        p = pt(rng.randint(-span, span), rng.randint(-span, span))
        pts.setdefault(p.coords, p)
    return PointSet(tuple(pts.values()))


# example6lines at seed 0 is the sharpness arrangement of seed 0
@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_m_sequence_matches_reference_on_instances(kind):
    s = generate(kind, 0).point_set
    assert m_sequence(s) == reference_m_sequence(s)


def test_m_sequence_contract_by_rank_scan():
    """Per kind at seed 0 and degree d: every (m_d + 1)-subset has a
    full-rank evaluation matrix (unless m_d = n), and some m_d-subset does
    not; `sharpness_example` reads its verdicts off this."""
    for kind in INSTANCE_KINDS:
        s = generate(kind, 0).point_set
        n = len(s)
        for degree, m in zip((1, 2, 3), m_sequence(s).as_tuple()):
            rows = evaluation_rows(s.points, degree)
            ncols = monomial_count(degree)

            def full(combo):
                return int_rank([rows[i] for i in combo]) == ncols
            if m < n:
                assert all(map(full, itertools.combinations(range(n), m + 1)))
            assert not all(map(full, itertools.combinations(range(n), m)))


def test_m_sequence_matches_reference_on_small_sets():
    """Grids, a line, seeded sets, and 40 line-heavy sets of 6-11 points
    in [-2, 2]^2, where many triples are collinear."""
    sets = [PointSet(tuple(pt(i, j) for i in range(a) for j in range(3)))
            for a in (3, 4)]
    sets.append(PointSet(tuple(pt(i, 2 * i + 1) for i in range(7))))
    sets += [random_set(n, 100 + n) for n in range(12)]
    sets += [random_set(6 + k % 6, 300 + k, span=2) for k in range(40)]
    for s in sets:
        assert m_sequence(s) == reference_m_sequence(s)


def _named_sets():
    """Edge shapes for the reference check: n below each interpolation
    floor, all points on one line, 16 points, points on Z = 0, 40-bit
    denominators, and the sharpness arrangement of seed 2 (seed 0 is
    example6lines, seed 1 a dual set), whose conic side is all lines."""
    rng = random.Random(41)
    sets = {"n1": random_set(1, 7), "n4": random_set(4, 8),
            "n8": random_set(8, 9)}
    sets["collinear"] = PointSet(tuple(pt(i, 3 * i - 2) for i in range(7)))
    sets["grid16"] = PointSet(tuple(pt(i, j) for i in range(4)
                                    for j in range(4)))
    sets["on_z0"] = PointSet(tuple(pt(a, b, 0)
                                   for a, b in ((1, 0), (0, 1), (1, 1),
                                                (2, -1)))
                             + tuple(random_set(6, 10).points))
    sets["den40"] = PointSet(tuple(
        pt(Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40)),
           Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40)))
        for _ in range(10)))
    sets["sharpness2"] = PointSet(sharpness_example(2).points)
    return sets


@pytest.mark.parametrize("name", sorted(_named_sets()))
def test_m_sequence_matches_reference_on_edge_sets(name):
    s = _named_sets()[name]
    assert m_sequence(s) == reference_m_sequence(s)


def _dual_sets():
    """Sets for the cubic side, with the m3 each should have: seeded random
    sets of 13 and 14 points (Gale vectors in Q^3 and Q^4), 12 points on a
    conic and a line (evaluation rank below 10), 11 of them and a point off
    the cubic (a zero Gale vector), 10 of them and two points off (a
    parallel pair), and the sharpness arrangement of seed 1."""
    conic = [pt(t * t, t) for t in range(-3, 4)]
    line = [pt(x, 5) for x in range(5)]
    return {"n13": (random_set(13, 113), None),
            "n14": (random_set(14, 114), None),
            "conic_line12": (PointSet(tuple(conic + line)), 12),
            "zero_gale": (PointSet(tuple(conic + line[:4] + [pt(2, 7)])), 11),
            "parallel_gale": (PointSet(tuple(conic[:6] + line[:4]
                                             + [pt(2, 7), pt(-5, 3)])), 10),
            "sharpness1": (PointSet(sharpness_example(1).points), 12)}


@pytest.mark.parametrize("name", sorted(_dual_sets()))
def test_m_sequence_matches_reference_on_dual_sets(name):
    s, m3 = _dual_sets()[name]
    rank = int_rank(evaluation_rows(s.points, 3))
    assert rank == (9 if name == "conic_line12" else 10)
    ms = m_sequence(s)
    assert ms == reference_m_sequence(s)
    assert m3 is None or ms.m3 == m3


def test_m_sequence_on_one_conic():
    """Sixteen and fifteen points on the conic XZ = Y^2: every subset of
    them lies on it, and the witness is all of them with that conic."""
    conic = [pt(t * t, t) for t in range(-8, 8)]
    xz_y2 = HomPoly.from_coeff_vector(2, [0, 0, 1, -1, 0, 0])
    for s, labels in ((PointSet(tuple(conic)), tuple(range(1, 17))),
                      (PointSet(tuple(conic[:15] + [pt(2, 7)])),
                       tuple(range(1, 16)))):
        ms = m_sequence(s)
        assert ms.as_tuple() == (2, len(labels), 16)
        assert ms.witnesses[1][0] == labels
        assert ms.witnesses[1][1] in (xz_y2, -xz_y2)


def test_last_dependent_matches_scan():
    """The smallest dependent size g and the last dependent g-subset
    against the `combinations` x `int_rank` scan, on seeded integer
    vectors of dimension 1 to 6 with zero, proportional and repeated
    vectors and vectors in the span of two or three others, with small and
    with 200-bit entries. Below g the search finds nothing."""
    rng = random.Random(53)
    cases = []
    for dim in (1, 2, 3, 4, 6):
        for span in (3, 2 ** 200):
            for shape in ("plain", "zero", "multiple", "span2", "span3"):
                n = rng.randint(dim + 1, dim + 6)
                m = [[rng.randint(-span, span) for _ in range(dim)]
                     for _ in range(n)]
                i, j, k, l = (rng.sample(range(n), 4) if n >= 4
                              else [0, 1, 0, 1])
                if shape == "zero":
                    m[i] = [0] * dim
                elif shape == "multiple":
                    m[i] = [rng.choice((-3, 1, 2)) * x for x in m[j]]
                elif shape == "span2":
                    m[i] = [2 * x - 3 * y for x, y in zip(m[j], m[k])]
                elif shape == "span3" and n >= 4:
                    m[i] = [x + y - z for x, y, z in zip(m[j], m[k], m[l])]
                cases.append(m)
    sizes = set()
    for m in cases:
        n = len(m)
        girth = next(g for g in range(1, n + 1)
                     if any(int_rank([m[i] for i in c]) < g
                            for c in itertools.combinations(range(n), g)))
        want = max(c for c in itertools.combinations(range(n), girth)
                   if int_rank([m[i] for i in c]) < girth)
        for size in range(1, girth):
            assert config._last_dependent(m, size) is None
        if girth <= len(m[0]):
            assert tuple(config._last_dependent(m, girth)) == want
        sizes.add(girth)
    assert sizes >= {1, 2, 3, 4, 5}


def test_bracket_identity_is_the_conic_determinant():
    """[123][145][246][356] - [124][135][236][456] equals the 6 x 6 conic
    evaluation determinant (columns in `monomials(2)` order), not merely
    both zero or both nonzero, on seeded sets with coordinates in -3..3,
    collinear triples and points on Z = 0 among them."""
    rng = random.Random(67)
    mons = monomials(2)
    seen_zero = seen_collinear = 0
    for _ in range(600):
        pts = []
        while len(pts) < 6:
            if len(pts) >= 2 and rng.random() < 0.2:
                u, v = rng.sample(pts, 2)
                a, b = rng.choice((1, -1, 2)), rng.choice((1, -2, 3))
                p = tuple(a * x + b * y for x, y in zip(u, v))
                seen_collinear += 1
            else:
                p = (rng.randint(-3, 3), rng.randint(-3, 3),
                     rng.choice((0, rng.randint(-3, 3))))
            if any(p):
                pts.append(p)
        table = config._brackets(pts)[0]
        lhs, rhs, bd, ce, bc, de = config._conic_test(table, range(5))
        det = int_det([[x ** i * y ** j * z ** k for i, j, k in mons]
                       for x, y, z in pts])
        assert lhs * bd[5] * ce[5] - rhs * bc[5] * de[5] == det
        seen_zero += det == 0
    assert seen_zero and seen_collinear


@pytest.mark.parametrize("kind", ["generic12", "conic7", "example6lines"])
def test_m_sequence_reads_invariants(kind, monkeypatch):
    """One kernel per degree, on the witness rows; one integer RREF, of
    the transposed cubic evaluation matrix, for the Gale vectors; no
    elimination on evaluation rows; and no (m_d + 1)-subsets of the points
    enumerated."""
    s = generate(kind, 0).point_set
    n = len(s)
    kernels, rrefs, steps, subsets = [], [], [], []
    real_kernel, real_rref = config.nullspace, config.int_rref
    real_step, real_subsets = config.bareiss_step, itertools.combinations

    def kernel(rows, ncols):
        kernels.append((len(rows), ncols))
        return real_kernel(rows, ncols)

    def rref(rows):
        rrefs.append((len(rows), len(rows[0])))
        return real_rref(rows)

    def step(pivot, col, prev, rows):
        steps.append(len(pivot))
        return real_step(pivot, col, prev, rows)

    def combinations(pool, r):
        pool = tuple(pool)
        subsets.append((len(pool), r))
        return real_subsets(pool, r)
    monkeypatch.setattr(config, "nullspace", kernel)
    monkeypatch.setattr(config, "int_rref", rref)
    monkeypatch.setattr(config, "bareiss_step", step)
    monkeypatch.setattr(itertools, "combinations", combinations)
    ms = m_sequence(s)
    assert kernels == [(m, c) for m, c in zip(ms.as_tuple(), (3, 6, 10))]
    assert rrefs == [(10, n)]
    assert all(length <= n - 10 for length in steps)
    assert not [(size, r) for size, r in subsets
                if size == n and r - 1 in ms.as_tuple()]


def test_m_sequence_search_needs_no_rank_calls(monkeypatch):
    s = PointSet(sharpness_example(0).points)
    expected = m_sequence(s)

    def forbidden(rows):
        raise AssertionError("int_rank called by the subset search")
    monkeypatch.setattr(config, "int_rank", forbidden, raising=False)
    assert m_sequence(s) == expected
    assert expected.as_tuple() == (5, 9, 12)


def test_conic_search_runs_only_where_an_irreducible_conic_can_win(
        monkeypatch):
    """Bracket tests of the conic search: none on the sharpness arrangement,
    whose six 5-point lines hold 9 points on two of them while an
    irreducible conic meets each line twice, 6 points at most; at most one
    per 5-subset on generic12."""
    calls = []
    real = config._conic_test

    def spy(table, q):
        calls.append(q)
        return real(table, q)
    monkeypatch.setattr(config, "_conic_test", spy)
    for s, most in ((PointSet(sharpness_example(0).points), 0),
                    (generate("generic12", 0).point_set, 792)):
        calls.clear()
        config._witness_labels(s)
        assert len(calls) <= most
        assert len(set(calls)) == len(calls)


def test_point_set_rejects_duplicates():
    with pytest.raises(PreconditionError):
        PointSet((pt(1, 1), pt(2, 2), pt(1, 1)))


def test_m1_three_collinear():
    s = PointSet((pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1)))
    ms = m_sequence(s)
    assert ms.m1 == 3
    labels, line = ms.witnesses[0]
    assert set(labels) == {1, 2, 3}
    assert line.degree == 1
    for l in labels:
        assert evaluate(line, s.point(l)) == 0


def test_m_sequence_generic_instance():
    inst = generic12(42)
    ms = m_sequence(inst.point_set)
    assert ms.as_tuple() == (2, 5, 9)
    # witness soundness: each witness curve vanishes on its subset
    for j, (labels, curve) in enumerate(ms.witnesses, start=1):
        assert curve is not None and curve.degree == j
        assert len(labels) == ms.as_tuple()[j - 1]
        for l in labels:
            assert evaluate(curve, inst.point_set.point(l)) == 0


def test_m_sequence_grid():
    # the 3x3 grid: 3 collinear, 6 on a conic (two lines), all 9 on a cubic
    pts = tuple(pt(i, j) for i in range(3) for j in range(3))
    ms = m_sequence(PointSet(pts))
    assert ms.as_tuple() == (3, 6, 9)


def test_subset_on_curve():
    collinear = [pt(0, 0), pt(1, 1), pt(2, 2)]
    (line,) = curves_through(collinear, 1)
    assert all(evaluate(line, p) == 0 for p in collinear)
    assert curves_through(collinear + [pt(1, 0)], 1) == []


def test_four_point_lines_on_grid():
    pts = tuple(pt(i, j) for i in range(3) for j in range(3))
    groups = four_point_lines(PointSet(pts))
    # 3 rows + 3 columns + 2 diagonals, all of size 3
    assert len(groups) == 8
    assert all(len(g) == 3 for g in groups)
    assert groups == reference_four_point_lines(PointSet(pts))


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_four_point_lines_matches_reference_on_instances(kind):
    for seed in range(4):
        s = generate(kind, seed).point_set
        assert four_point_lines(s) == reference_four_point_lines(s)


def test_four_point_lines_matches_reference_on_crafted_sets():
    big = 2 ** 201 + 17
    crafted = {
        # four points on Z = 0 and four on X = 0, meeting at (0:1:0)
        "infinity": [pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(1, 2, 0),
                     pt(0, 0), pt(0, 1), pt(0, 3), pt(5, 7)],
        # zero coordinates on both axes
        "zeros": [pt(0, 0), pt(0, 2), pt(0, -5), pt(3, 0), pt(-4, 0),
                  pt(0, 1, 0), pt(1, 0, 0), pt(1, 1)],
        # joins such as (-2, 2, 0), not primitive
        "non_primitive": [pt(0, 0), pt(2, 2), pt(4, 4), pt(6, 6), pt(2, 0),
                          pt(4, 0), pt(6, 3), pt(Fraction(1, 3), 5)],
        # coordinates over 200 bits, with a collinear triple among them
        "large": [pt(big, 1), pt(1, big), pt(big + 1, 1 - big),
                  pt(Fraction(big, 3), Fraction(1, big)),
                  pt(Fraction(2 * big, 3), Fraction(2, big)),
                  pt(Fraction(-big, 3), Fraction(-1, big)),
                  pt(big ** 2, 7, 3), pt(3, 5)],
    }
    for name, pts in crafted.items():
        s = PointSet(tuple(pts))
        groups = four_point_lines(s)
        assert groups == reference_four_point_lines(s), name
        assert groups, name
    # a 4-point line among the large points: (big, 1) + t (1 - big, big - 1)
    line = [pt(big + t * (1 - big), 1 + t * (big - 1)) for t in range(4)]
    s = PointSet(tuple(line) + (pt(1, 1), pt(big, big)))
    assert four_point_lines(s)[0] == (1, 2, 3, 4)
    assert four_point_lines(s) == reference_four_point_lines(s)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(77)
    lines = list(SHAPE_5LINES_CAP2.lines)
    base = canonical_form(lines)
    for _ in range(5):
        perm = list(range(1, 13))
        rng.shuffle(perm)
        relabeled = [tuple(perm[x - 1] for x in line) for line in lines]
        rng.shuffle(relabeled)
        assert canonical_form(relabeled) == base


def test_canonical_form_matches_reference_on_random_families():
    rng = random.Random(2024)
    families = []
    # 1-6 lines of 4 labels out of 10, not necessarily pairwise meeting
    for _ in range(300):
        families.append([tuple(rng.sample(range(1, 11), 4))
                         for _ in range(rng.randint(1, 6))])
    # 3-8 lines of 2-4 labels out of at most 9: lines share several labels
    # and often lie wholly in cells placed before later ones
    for _ in range(300):
        size = rng.randint(2, 4)
        labels = range(1, rng.randint(size + 2, 9) + 1)
        families.append([tuple(rng.sample(labels, size))
                         for _ in range(rng.randint(3, 8))])
    for lines in families:
        assert canonical_form(lines) == reference_canonical_form(lines)


@pytest.mark.parametrize("shape", [SHAPE_5LINES_CAP2, SHAPE_3CONCURRENT_PLUS2,
                                   SHAPE_3CONCURRENT_PLUS2_SPLIT,
                                   SHAPE_DOUBLE_STAR],
                         ids=["5lines_cap2", "3concurrent_plus2",
                              "3concurrent_plus2_split", "double_star"])
def test_canonical_form_matches_reference_on_shapes(shape):
    rng = random.Random(5)
    base = reference_canonical_form(shape.lines)
    assert canonical_form(shape.lines) == base
    for _ in range(5):
        perm = list(range(1, 13))
        rng.shuffle(perm)
        relabeled = [tuple(perm[x - 1] for x in line) for line in shape.lines]
        rng.shuffle(relabeled)
        assert canonical_form(relabeled) == base
        assert reference_canonical_form(relabeled) == base


# the reference takes about 6 s at n = 12, cap 3; the golden digest of
# `enumerate --n 12 --cap 3` in test_cli covers that case
@pytest.mark.parametrize("n, cap", [(n, 2) for n in range(4, 13)]
                         + [(n, 3) for n in range(4, 12)])
def test_enumeration_matches_reference_canonical_form(monkeypatch, n, cap):
    report = enumerate_4lines(n, cap)
    monkeypatch.setattr(config, "canonical_form", reference_canonical_form)
    assert enumerate_4lines(n, cap) == report


def test_incidence_structure_invariants():
    with pytest.raises(PreconditionError):
        IncidenceStructure(12, ((1, 2, 3), ))
    with pytest.raises(PreconditionError):
        IncidenceStructure(12, ((1, 2, 3, 4), (1, 2, 5, 6)))
    with pytest.raises(PreconditionError):
        IncidenceStructure(6, ((1, 2, 3, 7), ))


def test_enumeration_small_oracles():
    rep = enumerate_4lines(8, 2)
    # two 4-subsets of an 8-set meeting in one point use 7 labels; any
    # third line would need more fresh labels than remain
    assert rep.maximum == 2
    rep12 = enumerate_4lines(12, 2)
    assert rep12.maximum == 5
    # the unique maximum family is the pairwise-intersection pattern
    sizes = dict(rep12.families_by_size)
    assert len(sizes[5]) == 1
    assert sizes[5][0] == canonical_form(SHAPE_5LINES_CAP2.lines)


def test_enumeration_input_caps():
    with pytest.raises(PreconditionError):
        enumerate_4lines(13, 2)
    with pytest.raises(PreconditionError):
        enumerate_4lines(12, 4)


def test_realize_five_line_shape():
    result = realize_structure(SHAPE_5LINES_CAP2, 5)
    assert isinstance(result, Realization)
    s = result.point_set
    # incidences hold exactly
    for eq, labels in zip(result.lines, SHAPE_5LINES_CAP2.lines):
        for l in labels:
            assert evaluate(eq, s.point(l)) == 0
    # and nothing extra: the collinear groups are exactly the five lines
    groups = four_point_lines(s)
    assert sorted(tuple(sorted(g)) for g in groups) == \
        sorted(tuple(sorted(l)) for l in SHAPE_5LINES_CAP2.lines)


def test_realize_concurrent_shapes():
    for shape in (SHAPE_3CONCURRENT_PLUS2, SHAPE_DOUBLE_STAR):
        result = realize_structure(shape, 11)
        assert isinstance(result, Realization)
        groups = four_point_lines(result.point_set)
        assert sorted(tuple(sorted(g)) for g in groups) == \
            sorted(tuple(sorted(l)) for l in shape.lines)


def test_realization_determinism():
    a = realize_structure(SHAPE_5LINES_CAP2, 5)
    b = realize_structure(SHAPE_5LINES_CAP2, 5)
    assert [p.coords for p in a.point_set.points] == \
        [p.coords for p in b.point_set.points]


def test_unrealizable_budget_report():
    # a heavily over-constrained structure the random placer cannot hit
    shape = IncidenceStructure(12, (
        (1, 2, 3, 4), (1, 5, 6, 7), (2, 5, 8, 9), (3, 6, 8, 10),
        (4, 7, 9, 10), (1, 8, 11, 12)))
    result = realize_structure(shape, 3, attempts=5)
    assert isinstance(result, (Realization, NonRealizationReport))
    if isinstance(result, NonRealizationReport):
        assert result.attempts == 5
