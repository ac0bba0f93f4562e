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
from .errors import PreconditionError
from .exactpoly import HomPoly, ProjPoint, monomial_count, monomials
from .linalg import int_rank, nullspace
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
    """One condition per point, in order of first listing, of the largest
    order given for it."""
    merged: dict[ProjPoint, VanishingCondition] = {}
    for cond in conditions:
        prev = merged.get(cond.point)
        if prev is not None and prev.order != cond.order:
            warnings.warn(
                "duplicate point with conflicting orders; using the max",
                stacklevel=3)
        if prev is None or cond.order > prev.order:
            merged[cond.point] = cond
    return list(merged.values())


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


def linearly_independent(f: HomPoly, g: HomPoly) -> bool:
    if f.degree != g.degree:
        raise PreconditionError("degree mismatch")
    # den * coeff_vector(): scaling a row keeps the rank
    mons = monomials(f.degree)
    return int_rank([[h.ints.get(m, 0) for m in mons] for h in (f, g)]) == 2
