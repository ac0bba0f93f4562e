"""Exact linear algebra: fraction-free ranks, canonical kernels, solving.

Oracles: hand-sized matrices with known ranks, the Bareiss rank as the
reference for the incremental reduction, and the defining identities
A v = 0 / A x = b verified exactly on seeded random systems.
"""

import math
import random
from fractions import Fraction

from lelongplane.exactpoly import monomial_count
from lelongplane.instances import generic12
from lelongplane.linalg import (frac_rref, int_rank, nullspace, reduce_row,
                                solve_exact)
from lelongplane.linsys import (VanishingCondition, build_system,
                                condition_rows)


def _mat(rng, nrows, ncols, span=9):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
             for _ in range(ncols)] for _ in range(nrows)]


def test_rank_oracles():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 2], [3, 4]]) == 2
    # 3x3 with an exact dependency: row3 = row1 + row2
    assert int_rank([[1, 0, 2], [0, 1, 1], [1, 1, 3]]) == 2


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


def test_solve_exact():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 5)
        sol = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(n)]
        m = _mat(rng, n + 1, n)
        if int_rank(m) < n:
            continue
        rhs = [sum(a * x for a, x in zip(row, sol)) for row in m]
        assert solve_exact(m, rhs) == sol
    # inconsistent system
    assert solve_exact([[1, 0], [1, 0]], [Fraction(1), Fraction(2)]) is None


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
    rows = [r for c in conds for r in condition_rows(6, c)]
    assert len(rows) == 24 and len(rows[0]) == monomial_count(6)
    basis = _reduced_basis(rows)
    assert len(basis) == int_rank(rows) == build_system(6, conds).matrix_rank
    # primitive rows, each zero at the pivots of the rows before it
    for idx, (piv, row) in enumerate(basis):
        assert math.gcd(*row) == 1 and row[piv] != 0
        assert all(row[p] == 0 for p, _ in basis[:idx])
