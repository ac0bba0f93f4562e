"""Linear systems of plane curves with base-point multiplicity conditions.

A condition of order m at a point imposes the vanishing of all partial
derivatives of total order below m. Its rows (`config.condition_rows`)
are the partials of order m - 1 at the point's primitive integer
coordinates, which by Euler's identity span the same conditions. Ranks
and kernel bases are exact, computed in integers end to end
(`linalg.nullspace`), and canonicalized for determinism.
"""

from __future__ import annotations

import warnings

from .config import condition_rows
from .errors import PreconditionError, UnsupportedInstanceError
from .curves import bezout_table, coprime
from .exactpoly import (HomPoly, ProjPoint, divides, evaluate, monomial_count,
                        vanishing_order)
from .linalg import int_rank, nullspace, solve_exact
from .record import Record


class VanishingCondition(Record):
    point: ProjPoint
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise PreconditionError("condition order must be at least 1")


class LinearSystem(Record):
    degree: int
    conditions: tuple[VanishingCondition, ...]
    matrix_rank: int
    kernel_basis: tuple[HomPoly, ...]

    @property
    def dim(self) -> int:
        return monomial_count(self.degree) - self.matrix_rank


def _merge_conditions(conditions):
    merged: dict[tuple, VanishingCondition] = {}
    order = []
    for cond in conditions:
        key = cond.point.coords
        if key in merged:
            prev = merged[key]
            if prev.order != cond.order:
                warnings.warn(
                    "duplicate point with conflicting orders; using the max",
                    stacklevel=3)
            if cond.order > prev.order:
                merged[key] = cond
        else:
            merged[key] = cond
            order.append(key)
    return [merged[k] for k in order]


def build_system(degree: int, conditions) -> LinearSystem:
    """Exact rank and canonical kernel basis of the constraint matrix."""
    if not 1 <= degree <= 12:
        raise PreconditionError("degree must be between 1 and 12")
    conds = _merge_conditions(conditions)
    rows = []
    for cond in conds:
        rows.extend(condition_rows(degree, cond.point, cond.order))
    ncols = monomial_count(degree)
    kernel = nullspace(rows, ncols)
    basis = tuple(HomPoly.from_coeff_vector(degree, v) for v in kernel)
    return LinearSystem(degree=degree, conditions=tuple(conds),
                        matrix_rank=ncols - len(kernel), kernel_basis=basis)


def satisfies(poly: HomPoly, cond: VanishingCondition) -> bool:
    """Independent re-check of one condition via local vanishing order."""
    return vanishing_order(poly, cond.point) >= cond.order


def linearly_independent(f: HomPoly, g: HomPoly) -> bool:
    if f.degree != g.degree:
        raise PreconditionError("degree mismatch")
    return int_rank([f.coeff_vector(), g.coeff_vector()]) == 2


class PairFailure(Record):
    """Names the divisibility pattern that blocked every selection move."""
    basis_pattern: tuple[tuple[int, ...], ...]  # per basis element: indices
    sum_pattern: tuple[tuple[int, int, tuple[int, ...]], ...]
    message: str


def independent_pair(system: LinearSystem, forbidden_factors):
    """Two independent kernel members with no forbidden factor.

    Moves, in order: direct scan of the basis; pairwise sums of basis
    elements. Returns ((P, Q), trace) or (None, PairFailure).
    """
    if system.dim < 2:
        raise PreconditionError("system dimension below 2")

    def blockers(p: HomPoly):
        return tuple(i for i, f in enumerate(forbidden_factors)
                     if divides(f, p))

    basis = list(system.kernel_basis)
    basis_pattern = tuple(blockers(b) for b in basis)
    clean = [b for b, pat in zip(basis, basis_pattern) if not pat]
    if len(clean) >= 2:
        return (clean[0], clean[1]), ["direct"]
    candidates = list(clean)
    trace = []
    sum_pattern = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = basis[i] + basis[j]
            pat = blockers(s)
            sum_pattern.append((i, j, pat))
            if not pat:
                candidates.append(s)
                trace.append(f"sum({i},{j})")
    for a in range(len(candidates)):
        for b in range(a + 1, len(candidates)):
            if linearly_independent(candidates[a], candidates[b]):
                moves = ["direct"] if clean else []
                return (candidates[a], candidates[b]), moves + trace
    return None, PairFailure(
        basis_pattern=basis_pattern, sum_pattern=tuple(sum_pattern),
        message="no move produced two independent factor-free members")


def pencil_member(f: HomPoly, g: HomPoly, h: HomPoly):
    """The unique (alpha, beta) with h = alpha*f + beta*g, or None."""
    if f.degree != g.degree or f.degree != h.degree:
        raise PreconditionError("degree mismatch")
    if not linearly_independent(f, g):
        raise PreconditionError("pencil generators are dependent")
    fv, gv, hv = f.coeff_vector(), g.coeff_vector(), h.coeff_vector()
    rows = [[a, b] for a, b in zip(fv, gv)]
    sol = solve_exact(rows, hv)
    if sol is None:
        return None
    return sol[0], sol[1]


class CayleyBacharachReport(Record):
    points: tuple[ProjPoint, ...]
    per_point: tuple[bool, ...]  # omitting point i: dim 2 and basis hits i
    passed: bool


def cayley_bacharach_check(c1: HomPoly, c2: HomPoly) -> CayleyBacharachReport:
    """For two cubics meeting in 9 distinct rational points: every cubic
    through 8 of them contains the 9th."""
    if c1.degree != 3 or c2.degree != 3:
        raise PreconditionError("both inputs must be cubics")
    if not coprime(c1, c2):
        raise PreconditionError("cubics share a component")
    records, residual = bezout_table(c1, c2)
    if residual != 0 or len(records) != 9 or any(
            r.multiplicity != 1 for r in records):
        raise UnsupportedInstanceError(
            "intersection is not 9 distinct rational points")
    pts = tuple(r.point for r in records)
    per_point = []
    for omit in range(9):
        conds = [VanishingCondition(p, 1) for k, p in enumerate(pts)
                 if k != omit]
        sys8 = build_system(3, conds)
        ok = sys8.dim == 2 and all(
            evaluate(b, pts[omit]) == 0 for b in sys8.kernel_basis)
        per_point.append(ok)
    return CayleyBacharachReport(points=pts, per_point=tuple(per_point),
                                 passed=all(per_point))
