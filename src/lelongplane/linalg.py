"""Exact linear algebra over the rationals used by every module.

Everything runs on integer-scaled rows, with no sympy. One fraction-free
elimination step (Bareiss), `bareiss_step`, serves the rank and
determinant queries and the m-sequence's search for dependent Gale
vectors, which carries the reduced rows down its search tree. One integer
reduced row echelon form, `int_rref`, reduces the rows one at a time
through `reduce_row` and then back-substitutes in integers; `solve_exact`
reads its solution off it. Kernels stay in integers end to end:
`nullspace` forms integer kernel vectors from `int_rref`, canonicalizes
them by `int_rref` again and shortens them by the integral LLL, so outputs
are deterministic and depend only on the row space.
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
    is reduced against them in that order, the step against pivot p with
    row entry f being (p / g) row - (f / g) b for g = gcd(p, f): a positive
    multiple of p row - f b with smaller entries, so the primitive result
    is the same as without g. Returns the (pivot, row) pair to append,
    with the row divided by its content, or None when the row lies in the
    span of the basis. So rank(rows) is the number of non-None
    results when the rows are reduced one after another.
    """
    for piv, b in basis:
        f = row[piv]
        if f:
            p = b[piv]
            g = math.gcd(p, f)
            if g > 1:
                p, f = p // g, f // g
            row = [p * x - f * y for x, y in zip(row, b)]
    g = math.gcd(*row)
    if not g:
        return None
    if g > 1:
        row = [x // g for x in row]
    return next(c for c, x in enumerate(row) if x), row


def int_rref(rows):
    """Reduced row echelon form of integer rows, kept in integers.

    Returns the (pivot column, row) pairs sorted by pivot; zero rows are
    dropped. Each row is primitive with a positive pivot and is zero at
    the other pivots, so the result is the unique RREF with each row scaled
    to coprime integers, whatever positive scaling the input rows had. The
    rows are reduced one at a time through `reduce_row`; then, from the
    last pivot upward, each row loses its entries at the later pivots in
    one step over the lcm of those (already reduced) rows' pivots and is
    divided by its content.
    """
    basis = []
    for row in rows:
        red = reduce_row(basis, row)
        if red is not None:
            basis.append(red)
    basis.sort()
    for i in range(len(basis) - 1, -1, -1):
        piv, row = basis[i]
        hits = [(pj, b) for pj, b in basis[i + 1:] if row[pj]]
        if hits:
            lcm = math.lcm(*(b[pj] for pj, b in hits))
            acc = [lcm * x for x in row]
            for pj, b in hits:
                f = row[pj] * (lcm // b[pj])
                acc = [a - f * y for a, y in zip(acc, b)]
            row = acc
        g = math.gcd(*row)
        if row[piv] < 0:
            g = -g
        basis[i] = piv, [x // g for x in row] if g != 1 else row
    return basis


def frac_rref(rows):
    """Reduced row echelon form over Fractions: (rank, pivot_columns,
    reduced_rows), zero rows dropped. `int_rref` on the integer-scaled
    rows, with each entry divided by its row's pivot. The library no
    longer calls it; the benchmark's span list (`perfbench/tracing.py`)
    still names it, and the tests use it as the Fraction view of
    `int_rref`."""
    basis = int_rref(_int_rows(rows))
    pivots = [piv for piv, _ in basis]
    red = [[Fraction(x, row[piv]) for x in row] for piv, row in basis]
    return len(basis), pivots, red


def _lll_reduce(basis):
    """Short integer vectors spanning the same lattice as the scaled basis.

    RREF kernel entries are ratios of large minors; reducing the lattice
    keeps every downstream polynomial small. The integral LLL with
    delta = 3/4 (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7, after de Weger), in the reduction and swap order of sympy's
    `_ddm_lll`. It keeps d_i, the Gram determinant of the first i vectors,
    and lambda_ij = d_(j+1) mu_ij in integers: |mu| > 1/2 reads
    2 |lambda| > d, mu rounds halves upward as (2 lambda + d) // (2 d), and
    the Lovasz test fails when 4 d_(k+1) d_(k-1) < 3 d_k^2 - 4 lambda^2.
    These are the decisions of the exact rational LLL, so the output is
    its output. Deterministic."""
    y = _int_rows(basis)
    for i, row in enumerate(y):
        g = math.gcd(*row)
        if g > 1:
            y[i] = [x // g for x in row]
    m = len(y)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(a * b for a, b in zip(y[i], y[j]))
            for z in range(j):
                u = (d[z + 1] * u - lam[i][z] * lam[j][z]) // d[z]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u

    def size_reduce(k, j):
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) <= dj:
            return
        r = (2 * lam[k][j] + dj) // (2 * dj)
        y[k] = [a - r * b for a, b in zip(y[k], y[j])]
        for z in range(j):
            lam[k][z] -= r * lam[j][z]
        lam[k][j] -= r * dj

    k = 1
    while k < m:
        size_reduce(k, k - 1)
        nu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * nu ** 2:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
            continue
        big = (d[k - 1] * d[k + 1] + nu ** 2) // d[k]
        y[k], y[k - 1] = y[k - 1], y[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        for i in range(k + 1, m):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - nu * t) // d[k]
            lam[i][k - 1] = (big * t + nu * lam[i][k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return [[Fraction(x) for x in row] for row in y]


def nullspace(rows, ncols):
    """Canonical kernel basis of the matrix (rows act on length-ncols vectors).

    From the integer RREF of the rows, the kernel vector of a free column
    fc is taken over the lcm L of the pivots of the rows that hit fc: L at
    fc and -row[fc] * (L / pivot) at each such row's pivot. Those vectors
    are canonicalized by `int_rref`, then LLL-reduced to short primitive
    integer vectors, so the output depends only on the row space of the
    input and all entries stay small. The rank of the matrix is ncols
    minus the number of vectors returned.
    """
    rref = int_rref(_int_rows(rows))
    pivots = {piv for piv, _ in rref}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        hits = [(piv, row) for piv, row in rref if row[fc]]
        lcm = math.lcm(*(row[piv] for piv, row in hits))
        vec = [0] * ncols
        vec[fc] = lcm
        for piv, row in hits:
            vec[piv] = -row[fc] * (lcm // row[piv])
        basis.append(vec)
    if not basis:
        return []
    return _lll_reduce([row for _, row in int_rref(basis)])


def solve_exact(rows, rhs):
    """Solve A x = b exactly; returns the solution vector or None if
    inconsistent; requires unique solution (full column rank)."""
    if not rows:
        return None
    ncols = len(rows[0])
    basis = int_rref(_int_rows([list(r) + [b] for r, b in zip(rows, rhs)]))
    # a pivot in the augmented column is inconsistent, a missing one
    # underdetermined
    if [piv for piv, _ in basis] != list(range(ncols)):
        return None
    return [Fraction(row[ncols], row[piv]) for piv, row in basis]
