"""Exact linear algebra: fraction-free ranks and canonical kernels.

Oracles: hand-sized matrices with known ranks, the Bareiss rank as the
reference for the incremental reduction, minors (sympy's `DomainMatrix`
determinant) as the reference for each Bareiss step, a Fraction
Gauss-Jordan as the reference for the fraction-free RREF, sympy's
`DomainMatrix.lll()` as the reference for the exact LLL where it runs, the
two LLL invariants where it does not, the Fraction condition rows, kernel
and LLL kept in `expr_reference` as the references for the integer ones,
and the defining identity A v = 0 verified exactly on seeded random
systems.
"""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from expr_reference import (reference_condition_rows, reference_lll_reduce,
                            reference_nullspace, reference_rref)
from lelongplane import linalg, linsys
from lelongplane.config import condition_rows
from lelongplane.exactpoly import ProjPoint, monomial_count
from lelongplane.instances import INSTANCE_KINDS, generate, generic12
from lelongplane.linalg import (_lll_reduce, bareiss_step, clear_denominators,
                                frac_rref, int_det, int_rank, int_rref,
                                nullspace, reduce_row)
from lelongplane.linsys import VanishingCondition, build_system


def _mat(rng, nrows, ncols, span=9):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
             for _ in range(ncols)] for _ in range(nrows)]


def test_clear_denominators_on_int_fraction_and_mixed_rows():
    """L is the lcm of the denominators and the entries are L times the
    values, as ints, for int, Fraction and mixed rows; the empty row and
    Fractions with denominator 1 give L = 1."""
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([3, -4, 0]) == (1, [3, -4, 0])
    assert clear_denominators([Fraction(6, 3), Fraction(-5)]) == (1, [2, -5])
    assert clear_denominators([Fraction(1, 4), Fraction(-5, 6), 0]) == \
        (12, [3, -10, 0])
    assert clear_denominators((7, Fraction(2, 9), -1)) == (9, [63, 2, -9])
    rng = random.Random(23)
    for _ in range(100):
        row = [rng.choice((rng.randint(-10 ** 20, 10 ** 20),
                           Fraction(rng.randint(-10 ** 20, 10 ** 20),
                                    rng.randint(1, 10 ** rng.randint(0, 9)))))
               for _ in range(rng.randint(1, 12))]
        big_l, ints = clear_denominators(row)
        assert big_l == math.lcm(*(Fraction(x).denominator for x in row))
        assert all(type(v) is int for v in ints)
        assert ints == [x * big_l for x in row]


def test_rank_oracles():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    # 3x3 with an exact dependency: row3 = row1 + row2
    assert int_rank([[1, 0, 2], [0, 1, 1], [1, 1, 3]]) == 2


def test_int_det_matches_domain_matrix():
    """Hand cases (a zero leading entry forces a row swap and a sign), then
    seeded random integer matrices, full rank and singular, against
    sympy's DomainMatrix determinant."""
    assert int_det([]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    rng = random.Random(17)
    for n in range(1, 9):
        for _ in range(6):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                m[-1] = [a - 3 * b for a, b in zip(m[0], m[1 % n])]
            want = DomainMatrix([[ZZ(x) for x in row] for row in m],
                                (n, n), ZZ).det()
            assert int_det(m) == want
    # the Bareiss loop is shared: rank is unchanged by it
    assert int_rank([[0, 1], [1, 0], [1, 1]]) == 2


def test_bareiss_step_entries_are_minors():
    """After steps on pivots (r1, c1) .. (rk, ck), the entry of row j at
    column c is the minor on rows r1 .. rk, j and columns c1 .. ck, c:
    so every division was exact. 200-bit entries make a wrong divisor
    show; a zero pivot-column entry and a dependent row are included."""
    rng = random.Random(23)
    big = 2 ** 200
    for _ in range(6):
        nrows, ncols = 6, 5
        m = [[rng.randint(-big, big) for _ in range(ncols)]
             for _ in range(nrows)]
        m[2][0] = 0
        m[4] = [3 * a - b for a, b in zip(m[0], m[1])]
        rows, idx, cols = m, list(range(nrows)), list(range(ncols))
        pivots, prev = [], 1
        while rows and cols:
            row = rows[0]
            col = next((c for c, x in enumerate(row) if x), None)
            if col is None:
                rows, idx = rows[1:], idx[1:]
                continue
            pivots.append((idx[0], cols[col]))
            rows = bareiss_step(row, col, prev, rows[1:])
            prev, idx = row[col], idx[1:]
            cols = cols[:col] + cols[col + 1:]
            for j, red in zip(idx, rows):
                for c, x in zip(cols, red):
                    rs = [r for r, _ in pivots] + [j]
                    cs = [c0 for _, c0 in pivots] + [c]
                    minor = DomainMatrix(
                        [[ZZ(m[r][cc]) for cc in cs] for r in rs],
                        (len(rs), len(rs)), ZZ).det()
                    assert x == minor
        # row 4 lies in the span of rows 0 and 1: it reduced to zeros
        assert [r for r, _ in pivots] == [0, 1, 2, 3, 5]


def test_rank_fraction_scaling_invariance():
    rng = random.Random(11)
    for _ in range(20):
        m = _mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        scaled = [[x * Fraction(rng.randint(1, 5), rng.randint(1, 5))
                   for x in row] for row in m]
        # row scaling cannot change the rank
        assert int_rank(m) == int_rank([r for r in m])
        assert int_rank([[x * 7 for x in row] for row in m]) == int_rank(m)
        del scaled


def test_rref_is_reduced():
    rng = random.Random(23)
    for _ in range(10):
        m = _mat(rng, 4, 6)
        rnk, pivots, red = frac_rref(m)
        assert rnk == len(pivots) == len(red)
        for r, pc in enumerate(pivots):
            assert red[r][pc] == 1
            for r2 in range(len(red)):
                if r2 != r:
                    assert red[r2][pc] == 0


def test_nullspace_annihilates():
    rng = random.Random(37)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 7)
        m = _mat(rng, nrows, ncols)
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - int_rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # the basis itself is independent
        if basis:
            assert int_rank(basis) == len(basis)


def test_nullspace_entries_are_integers():
    # kernels are lattice-reduced to primitive integer vectors
    rng = random.Random(4)
    m = _mat(rng, 3, 6)
    for v in nullspace(m, 6):
        assert all(x.denominator == 1 for x in v)


def test_nullspace_depends_only_on_row_space():
    rng = random.Random(51)
    m = _mat(rng, 3, 5)
    shuffled = [m[2], m[0], m[1]]
    combined = m + [[a + b for a, b in zip(m[0], m[1])]]
    assert nullspace(m, 5) == nullspace(shuffled, 5) == nullspace(combined, 5)


def _reduced_basis(rows):
    """The basis built by reducing integer-scaled rows one at a time."""
    basis = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in row))
        red = reduce_row(basis, [int(x * lcm) for x in row])
        if red is not None:
            basis.append(red)
    return basis


def test_reduce_row_rank_matches_int_rank():
    hand = [[[0, 0], [0, 0]], [[1, 2], [2, 4]], [[1, 2], [3, 4]],
            [[1, 0, 2], [0, 1, 1], [1, 1, 3]]]
    for m in hand:
        assert len(_reduced_basis(m)) == int_rank(m)
    rng = random.Random(11)
    for _ in range(20):
        m = _mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert len(_reduced_basis(m)) == int_rank(m)
    # repeated and combined rows
    m = _mat(rng, 3, 6)
    m += [m[0], [a - 2 * b for a, b in zip(m[1], m[2])]]
    assert len(_reduced_basis(m)) == int_rank(m) == 3


def test_reduce_row_on_sextic_system():
    # the 24 x 28 matrix of sextics double at six points through six more
    pts = generic12(0).point_set.points
    conds = [VanishingCondition(p, 2) for p in pts[:6]] \
        + [VanishingCondition(p, 1) for p in pts[6:]]
    rows = [r for c in conds for r in condition_rows(6, c.point, c.order)]
    assert len(rows) == 24 and len(rows[0]) == monomial_count(6)
    basis = _reduced_basis(rows)
    assert len(basis) == int_rank(rows) == build_system(6, conds).matrix_rank
    # primitive rows, each zero at the pivots of the rows before it
    for idx, (piv, row) in enumerate(basis):
        assert math.gcd(*row) == 1 and row[piv] != 0
        assert all(row[p] == 0 for p, _ in basis[:idx])


def _sextic_conditions(kind, seed):
    """Double at points 1-6, simple at 7-12: the `linsys --degree 6
    --double 1,2,3,4,5,6` system of an instance."""
    pts = generate(kind, seed).point_set.points
    return [VanishingCondition(p, 2) for p in pts[:6]] \
        + [VanishingCondition(p, 1) for p in pts[6:]]


def test_frac_rref_matches_gauss_jordan():
    rng = random.Random(61)
    cases = [[], [[0, 0, 0]], [[0, 0], [0, 0]], [[Fraction(1, 3), 2]],
             [[0, 5, 1], [0, 0, 0], [0, 10, 2]]]
    for _ in range(30):  # full rank and rank deficient
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _mat(rng, nrows, ncols)
        if rng.random() < 0.5 and nrows > 1:
            i, j = rng.sample(range(nrows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[i] = [c * x for x in m[j]]  # a multiple of another row
        if rng.random() < 0.3:
            m.insert(rng.randint(0, len(m)), [0] * ncols)  # a zero row
        if rng.random() < 0.3:
            m.append(list(m[0]))  # a duplicate row
        cases.append(m)
    wide = _mat(rng, 3, 9)
    cases.append(wide + [[a + b for a, b in zip(wide[0], wide[1])]])
    for m in cases:
        assert frac_rref(m) == reference_rref(m), m


def test_frac_rref_on_sextic_systems():
    for kind in ("generic12", "figure3"):
        rows = [r for c in _sextic_conditions(kind, 0)
                for r in condition_rows(6, c.point, c.order)]
        assert len(rows) == 24 and len(rows[0]) == 28
        got = frac_rref(rows)
        assert got == reference_rref(rows)
        assert got[0] == int_rank(rows)


def test_build_system_rank_needs_no_second_elimination(monkeypatch):
    conds = _sextic_conditions("generic12", 0)
    expected = build_system(6, conds)

    def refuse(rows):
        raise AssertionError("build_system called int_rank")

    monkeypatch.setattr(linalg, "int_rank", refuse)
    monkeypatch.setattr(linsys, "int_rank", refuse)
    assert build_system(6, conds) == expected


def _gram_schmidt(basis):
    """(mu, squared norms) of the Gram-Schmidt orthogonalization."""
    m = len(basis)
    mu = [[Fraction(0)] * m for _ in range(m)]
    star, norms = [], []
    for i, row in enumerate(basis):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(row, star[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _assert_lll_reduced(basis):
    mu, norms = _gram_schmidt(basis)
    half = Fraction(1, 2)
    assert all(abs(mu[i][j]) <= half
               for i in range(len(basis)) for j in range(i))
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2)
               * norms[k - 1] for k in range(1, len(basis)))


def _gram_det(basis):
    """det(B B^T), the product of the Gram-Schmidt squared norms."""
    return math.prod(_gram_schmidt(basis)[1])


def _primitive_int_rows(basis):
    """Each row scaled to coprime integers, as `_lll_reduce` scales it."""
    out = []
    for row in basis:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        row = [int(x * scale) for x in row]
        g = math.gcd(*row)
        out.append([x // g for x in row])
    return out


def reference_lll(basis):
    """sympy's LLL on the primitive integer rows, as `_lll_reduce` feeds it."""
    ints = _primitive_int_rows(basis)
    m = DomainMatrix([[ZZ(x) for x in row] for row in ints],
                     (len(ints), len(ints[0])), ZZ)
    return [[Fraction(int(x)) for x in row] for row in m.lll().to_list()]


def _captured_lll_inputs(monkeypatch, run):
    seen = []
    real = linalg._lll_reduce

    def spy(basis):
        seen.append(basis)
        return real(basis)

    monkeypatch.setattr(linalg, "_lll_reduce", spy)
    run()
    return seen


def test_lll_matches_sympy_where_sympy_runs(monkeypatch):
    rng = random.Random(71)

    def run():
        for _ in range(12):
            nrows = rng.randint(1, 4)
            ncols = nrows + rng.randint(1, 4)
            nullspace(_mat(rng, nrows, ncols), ncols)
        for kind in ("generic12", "figure3"):
            build_system(6, _sextic_conditions(kind, 0))
            build_system(4, _sextic_conditions(kind, 0)[6:])

    bases = _captured_lll_inputs(monkeypatch, run)
    assert len(bases) >= 10
    for basis in bases:
        got = _lll_reduce(basis)
        assert got == reference_lll(basis)
        _assert_lll_reduced(got)


def test_lll_on_the_basis_sympy_fails(monkeypatch):
    """figure3 seed 2: sympy rounds mu through float and leaves it
    unreduced, then fails its own final check. The integral LLL gives the
    rational LLL's vectors."""
    conds = _sextic_conditions("figure3", 2)
    bases = _captured_lll_inputs(monkeypatch, lambda: build_system(6, conds))
    (basis,) = bases
    with pytest.raises(AssertionError):
        reference_lll(basis)
    got = _lll_reduce(basis)
    assert got == reference_lll_reduce(basis)
    _assert_lll_reduced(got)
    assert _gram_det(got) == _gram_det(_primitive_int_rows(basis))
    rows = [r for c in conds for r in condition_rows(6, c.point, c.order)]
    assert all(sum(a * b for a, b in zip(row, v)) == 0
               for v in got for row in rows)


def test_linalg_imports_no_sympy():
    tree = ast.parse(Path(linalg.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "sympy"]


def _instance_systems():
    """(degree, conditions) of every kind at seeds 0-3: cubics and
    quartics through all the points, and sextics double at labels 1-6."""
    for kind in INSTANCE_KINDS:
        for seed in range(4):
            pts = generate(kind, seed).point_set.points
            simple = [VanishingCondition(p, 1) for p in pts]
            yield 3, simple
            yield 4, simple
            if len(pts) >= 6:
                yield 6, ([VanishingCondition(p, 2) for p in pts[:6]]
                          + simple[6:])


def _random_systems(count):
    """Seeded (degree, conditions) with degree 1-4, one to four distinct
    points whose coordinates are often 0 (Z = 0 included) and orders from
    1 to degree + 2, past the cap of `condition_rows`."""
    rng = random.Random(47)
    values = (0, 0, 1, -2, 3, Fraction(-5, 3), Fraction(7, 4))
    for _ in range(count):
        degree, n = rng.randint(1, 4), rng.randint(1, 4)
        pts = {}
        while len(pts) < n:
            coords = [rng.choice(values) for _ in range(3)]
            if any(coords):
                x = ProjPoint(*coords)
                pts.setdefault(x.coords, x)
        yield degree, [VanishingCondition(x, rng.randint(1, degree + 2))
                       for x in pts.values()]


def test_integer_systems_match_fraction_reference():
    """On every kind at seeds 0-3 (degrees 3, 4 and the doubled sextics)
    and on seeded random systems: the integer condition rows span the
    Fraction rows, which take the derivatives in the point's chart, and
    the kernel equals the one built in Fractions throughout; an order
    above degree + 1 leaves no curve. The Fraction RREF here is
    `frac_rref` (Gauss-Jordan would take seconds on these entries); the
    tests above check it against Gauss-Jordan."""
    count = capped = 0
    for degree, conds in itertools.chain(_instance_systems(),
                                         _random_systems(80)):
        rows, ref_rows = [], []
        for cond in conds:
            got = condition_rows(degree, cond.point, cond.order)
            want = reference_condition_rows(degree, cond)
            assert all(type(x) is int for row in got for x in row)
            assert int_rank(got) == int_rank(want) == int_rank(got + want)
            rows += got
            ref_rows += want
        ncols = monomial_count(degree)
        kernel = nullspace(rows, ncols)
        assert kernel == reference_nullspace(ref_rows, ncols, frac_rref)
        system = build_system(degree, conds)
        assert system.kernel_basis == tuple(
            linsys.HomPoly.from_coeff_vector(degree, v) for v in kernel)
        if max(c.order for c in conds) > degree + 1:
            assert system.dim == 0
            capped += 1
        count += 1
    assert count == len(INSTANCE_KINDS) * 4 * 3 + 80
    assert capped


def _random_matrices(rng):
    """Small integer and Fraction matrices, full rank and rank deficient,
    with zero, repeated and combined rows."""
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        m = _mat(rng, nrows, ncols, span=rng.choice((3, 9, 2 ** 40)))
        if rng.random() < 0.5:
            m = [[int(x * 12) for x in row] for row in m]
        if nrows > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(nrows), 2)
            m[i] = [rng.randint(-3, 3) * x for x in m[j]]
        if rng.random() < 0.3:
            m.append(list(m[0]))
        if rng.random() < 0.3:
            m.insert(rng.randint(0, len(m)), [0] * ncols)
        if len(m) > 2 and rng.random() < 0.3:
            m.append([a - 2 * b for a, b in zip(m[0], m[1])])
        yield m, ncols


def test_int_rref_is_the_primitive_fraction_rref():
    """Primitive rows with positive pivots, equal to the Gauss-Jordan RREF
    scaled to coprime integers, whatever positive scaling the rows had."""
    rng = random.Random(83)
    for m, _ in _random_matrices(rng):
        ints = [[int(x * 12) for x in row] for row in m]
        got = int_rref(ints)
        _, pivots, red = reference_rref(m)
        assert [piv for piv, _ in got] == pivots
        assert [row for _, row in got] == _primitive_int_rows(red)
        assert all(row[piv] > 0 for piv, row in got)
        scaled = [[c * x for x in r]
                  for r, c in zip(ints, (rng.randint(1, 50) for _ in ints))]
        assert int_rref(scaled) == got


def test_nullspace_matches_fraction_reference_on_random_matrices():
    rng = random.Random(89)
    for m, ncols in _random_matrices(rng):
        assert nullspace(m, ncols) == reference_nullspace(m, ncols), m


def test_integral_lll_matches_rational_lll():
    """Hand-made ties, then random independent bases, including entries of
    60 bits and nearly parallel vectors that force many swaps."""
    # ties: mu = +-1/2 is not size-reduced, and the Lovasz test holds with
    # equality (B_1 = 6 - 8 / 4 = (3/4 - 1/4) B_0), so there is no swap
    for basis in ([[2, 1, 1, 1, 1], [2, 0, 1, -1, 0]],
                  [[2, 1, 1, 1, 1], [-2, 0, -1, 1, 0]]):
        assert _lll_reduce(basis) == reference_lll_reduce(basis) == basis
    rng = random.Random(97)
    for _ in range(80):
        n = rng.randint(1, 6)
        dim = n + rng.randint(0, 4)
        span = rng.choice((5, 1000, 2 ** 60))
        basis = [[rng.randint(-span, span) for _ in range(dim)]
                 for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            basis[1] = [a + rng.randint(-1, 1) for a in basis[0]]
        if int_rank(basis) < n:
            continue
        assert _lll_reduce(basis) == reference_lll_reduce(basis), basis
