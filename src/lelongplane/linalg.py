"""Exact linear algebra over the rationals used by every module.

Rank queries run fraction-free (Bareiss) over scaled integer rows, and
`reduce_row` is the one incremental integer elimination, for searches that
add rows one at a time; kernel computations run over Fractions and are
canonicalized by reduced row echelon form so outputs are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _int_rows(rows):
    """Scale each row to integers (row scaling preserves rank)."""
    out = []
    for row in rows:
        scale = 1
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
        out.append([int(x * scale) for x in row])
    return out


def int_rank(rows) -> int:
    """Rank via fraction-free Gaussian elimination on integer-scaled rows."""
    m = [r[:] for r in _int_rows(rows)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            m[r] = [(p * m[r][c] - f * m[rank][c]) // prev
                    for c in range(ncols)]
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def reduce_row(basis, row):
    """One step of incremental fraction-free elimination on integer rows.

    `basis` lists (pivot, row) pairs in the order they were added; each row
    is primitive and zero at the pivots of the rows before it. The new row
    is reduced against them in that order. Returns the (pivot, row) pair to
    append, with the row divided by its content, or None when the row lies
    in the span of the basis. So rank(rows) is the number of non-None
    results when the rows are reduced one after another.
    """
    for piv, b in basis:
        f = row[piv]
        if f:
            p = b[piv]
            row = [p * x - f * y for x, y in zip(row, b)]
    g = math.gcd(*row)
    if not g:
        return None
    if g > 1:
        row = [x // g for x in row]
    return next(c for c, x in enumerate(row) if x), row


def frac_rref(rows):
    """Reduced row echelon form over Fractions.

    Returns (rank, pivot_columns, reduced_rows); zero rows are dropped.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0, [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots, m[:rank]


def _lll_reduce(basis):
    """Short integer vectors spanning the same lattice as the scaled basis.

    RREF kernel entries are ratios of large minors; reducing the lattice
    keeps every downstream polynomial small. Deterministic."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    ints = _int_rows(basis)
    for row in ints:
        g = math.gcd(*row)
        if g > 1:
            row[:] = [x // g for x in row]
    m = DomainMatrix([[ZZ(x) for x in row] for row in ints],
                     (len(ints), len(ints[0])), ZZ)
    reduced = m.lll().to_list()
    return [[Fraction(int(x)) for x in row] for row in reduced]


def nullspace(rows, ncols):
    """Canonical kernel basis of the matrix (rows act on length-ncols vectors).

    The raw kernel basis is canonicalized by RREF, then LLL-reduced to short
    primitive integer vectors, so the output depends only on the row space
    of the input and all entries stay small.
    """
    if not rows:
        rank, pivots, red = 0, [], []
    else:
        rank, pivots, red = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    if not basis:
        return []
    _, _, canon = frac_rref(basis)
    return _lll_reduce(canon)


def solve_exact(rows, rhs):
    """Solve A x = b exactly; returns the solution vector or None if
    inconsistent; requires unique solution (full column rank)."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rnk, pivots, red = frac_rref(aug)
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    if len(pivots) < ncols:
        return None  # underdetermined
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = red[r][ncols]
    return sol
