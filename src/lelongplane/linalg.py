"""Exact linear algebra over the rationals used by every module.

Everything runs on integer-scaled rows, with no sympy. One fraction-free
elimination step (Bareiss), `bareiss_step`, serves the rank and
determinant queries and the m-sequence subset search, which carries the
reduced rows down its search tree. `frac_rref` reduces the rows one at a
time through `reduce_row`, then back-substitutes in integers and builds
Fractions only for the result.
Kernels are canonicalized by that reduced row echelon form and shortened
by an exact LLL over ints and Fractions, so outputs are deterministic.
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


def bareiss_step(pivot, col, prev, rows):
    """One fraction-free elimination step (Bareiss 1968).

    Each row loses its entry at `col` against the pivot row, and the column
    is dropped: the new entries are (p * x - f * y) / prev, with p =
    pivot[col] and f = row[col]. When `prev` is the pivot of the step
    before (1 at the first step), every entry is a minor of the original
    rows, so the division is exact and a row becomes all zeros exactly when
    it lies in the span of the pivot rows so far.
    """
    p = pivot[col]
    out = []
    for row in rows:
        f = row[col]
        if f:
            new = [(p * x - f * y) // prev for x, y in zip(row, pivot)]
        else:  # common: the Sylvester rows of `int_det` are banded
            new = [p * x // prev for x in row]
        del new[col]
        out.append(new)
    return out


def _first_nonzero(m):
    """(column, row) of the first nonzero entry in column-major order."""
    for col in range(len(m[0])):
        for r, row in enumerate(m):
            if row[col]:
                return col, r
    return None


def _bareiss(m):
    """Fraction-free Gaussian elimination on integer rows, by
    `bareiss_step`: pivots in column order, the first nonzero row swapped
    up. Returns (rank, det), det being the last pivot signed by the row
    swaps: the determinant when m is square of full rank."""
    rank = 0
    prev = 1
    sign = 1
    while m:
        found = _first_nonzero(m)
        if found is None:
            break
        col, piv = found
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        p = m[0][col]
        m = bareiss_step(m[0], col, prev, m[1:])
        prev = p
        rank += 1
    return rank, sign * prev


def int_rank(rows) -> int:
    """Rank via fraction-free Gaussian elimination on integer-scaled rows."""
    return _bareiss(_int_rows(rows))[0]


def int_det(rows) -> int:
    """Determinant of a square integer matrix, by the same elimination."""
    rank, det = _bareiss(list(rows))
    return det if rank == len(rows) else 0


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

    Returns (rank, pivot_columns, reduced_rows); zero rows are dropped. The
    elimination runs fraction-free: the integer-scaled rows are reduced one
    at a time through `reduce_row` and the primitive basis is sorted by
    pivot. Then, from the last pivot upward, each row loses its entries at
    the later pivots in one step over the lcm of those (already reduced)
    rows' pivots and is divided by its content. Fractions are built only at
    the end, as entry / pivot.
    """
    basis = []
    for row in _int_rows(rows):
        red = reduce_row(basis, row)
        if red is not None:
            basis.append(red)
    basis.sort()
    for i in range(len(basis) - 2, -1, -1):
        piv, row = basis[i]
        hits = [(pj, b) for pj, b in basis[i + 1:] if row[pj]]
        if not hits:
            continue
        lcm = math.lcm(*(b[pj] for pj, b in hits))
        acc = [lcm * x for x in row]
        for pj, b in hits:
            f = row[pj] * (lcm // b[pj])
            acc = [a - f * y for a, y in zip(acc, b)]
        g = math.gcd(*acc)
        basis[i] = piv, [x // g for x in acc]
    pivots = [piv for piv, _ in basis]
    red = [[Fraction(x, row[piv]) for x in row] for piv, row in basis]
    return len(basis), pivots, red


def _lll_reduce(basis):
    """Short integer vectors spanning the same lattice as the scaled basis.

    RREF kernel entries are ratios of large minors; reducing the lattice
    keeps every downstream polynomial small. Exact LLL with delta = 3/4
    (Lenstra, Lenstra and Lovasz 1982), in the reduction and swap order of
    sympy's `_ddm_lll`, over ints and Fractions; mu is rounded to the
    nearest integer exactly, halves upward. Deterministic."""
    y = _int_rows(basis)
    for i, row in enumerate(y):
        g = math.gcd(*row)
        if g > 1:
            y[i] = [x // g for x in row]
    m = len(y)
    delta, half = Fraction(3, 4), Fraction(1, 2)
    mu = [[Fraction(0)] * m for _ in range(m)]
    g_star = [Fraction(0)] * m
    y_star = []
    for i in range(m):
        v = [Fraction(x) for x in y[i]]
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(y[i], y_star[j])) / g_star[j]
            v = [a - mu[i][j] * b for a, b in zip(v, y_star[j])]
        y_star.append(v)
        g_star[i] = sum(x * x for x in v)

    def size_reduce(k, j):
        q = mu[k][j]
        r = (2 * q.numerator + q.denominator) // (2 * q.denominator)
        y[k] = [a - r * b for a, b in zip(y[k], y[j])]
        for z in range(j):
            mu[k][z] -= r * mu[j][z]
        mu[k][j] -= r

    k = 1
    while k < m:
        if abs(mu[k][k - 1]) > half:
            size_reduce(k, k - 1)
        if g_star[k] >= (delta - mu[k][k - 1] ** 2) * g_star[k - 1]:
            for j in range(k - 2, -1, -1):
                if abs(mu[k][j]) > half:
                    size_reduce(k, j)
            k += 1
            continue
        nu = mu[k][k - 1]
        alpha = g_star[k] + nu ** 2 * g_star[k - 1]
        beta = g_star[k - 1] / alpha
        mu[k][k - 1] = nu * beta
        g_star[k] *= beta
        g_star[k - 1] = alpha
        y[k], y[k - 1] = y[k - 1], y[k]
        mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
        for i in range(k + 1, m):
            xi = mu[i][k]
            mu[i][k] = mu[i][k - 1] - nu * xi
            mu[i][k - 1] = mu[k][k - 1] * mu[i][k] + xi
        k = max(k - 1, 1)
    return [[Fraction(x) for x in row] for row in y]


def nullspace(rows, ncols):
    """Canonical kernel basis of the matrix (rows act on length-ncols vectors).

    The raw kernel basis is canonicalized by RREF, then LLL-reduced to short
    primitive integer vectors, so the output depends only on the row space
    of the input and all entries stay small. The rank of the matrix is
    ncols minus the number of vectors returned.
    """
    _, pivots, red = frac_rref(rows)
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
