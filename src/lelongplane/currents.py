"""Weighted line-arrangement currents and potential estimators.

Lelong numbers of arrangement currents are exact sums of incident weights;
Euclidean ball masses have the closed form sum w * max(0, r^2 - d^2) / r^2
over the lines at distance d. Pole weights and growth rates of certified
potentials u = (1/2r) log(|P|^2 + |Q|^2) are estimated numerically from
exact local expansions, so the samples stay cancellation-free down to very
small radii. The expansions come from an integer Taylor shift
(``HomPoly.local_expansion``), scaled once and converted to floats.

The estimators take absolute radii. Which radii are small enough depends
on the point: where the higher-order coefficients of the expansion dwarf
those of the tangent cone, the slope is still biased at radius 2^-16.
``pole_scale`` computes the radius rho* below which the tangent cone
dominates, exactly and in logs, and the ``lelong`` command samples each
listed point at rho* 2^-4 .. 2^-12, with rho* capped at 2^16; a rho*
below 2^-64, or samples that leave the range of floats, raise
PreconditionError instead. Each circle is sampled in four seeded
directions (``_directions``): along any direction where the tangent cone
does not vanish, u(x + rho v) already grows like min(ord P, ord Q) / r
times log rho, and a sweep over every instance kind at seeds 0-3 kept the
worst pole error near 0.01 from 4 up to 256 samples per circle.

Both estimators share one sampling loop. At each sample (du, dv) it builds
the power tables du ** i and dv ** j once, and sums (c * du ** i) * dv ** j
over the terms of a form in sorted exponent order, starting from the int 0.
These are the float operations of a plain term-by-term evaluation in the
same order, so the estimates are bit-for-bit those of that evaluation.

Each exact fact is computed once per command. The ``lelong`` command
expands P and Q once per listed point (``_local_forms``) for both the
scale and the estimate; the verifier it runs first expands them again,
as the independent check. The sharpness example reads its 105 full-rank
verdicts on the 13-point subsets off the m-sequence it reports (m3 < 13).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .config import PointSet, m_sequence
from .construct import PotentialCertificate
from .errors import PreconditionError
from .exactpoly import HomPoly, ProjPoint, evaluate, line_coeffs, meet


@dataclass(frozen=True)
class ArrangementCurrent:
    lines: tuple[tuple[HomPoly, Fraction], ...]

    def __post_init__(self):
        for line, w in self.lines:
            if line.degree != 1 or line.is_zero:
                raise PreconditionError("arrangement entries must be lines")
            if w <= 0:
                raise PreconditionError("weights must be positive")

    @property
    def mass(self) -> Fraction:
        return sum((w for _, w in self.lines), Fraction(0))


def lelong_exact(t: ArrangementCurrent, x: ProjPoint) -> Fraction:
    """Sum of the weights of the lines through x."""
    return sum((w for line, w in t.lines if evaluate(line, x) == 0),
               Fraction(0))


def lelong_ball_mass(t: ArrangementCurrent, x, r):
    """Normalized mass of the arrangement in the Euclidean ball B(x, r) of
    the chart Z = 1: sum of w * max(0, r^2 - d^2) / r^2 with d the distance
    from x to each affine line trace. Exact when x and r are rational."""
    if isinstance(x, ProjPoint):
        if x.coords[2] == 0:
            raise PreconditionError("center must be affine in the chart Z=1")
        x0, y0 = x.affine(2)
    else:
        x0, y0 = x
    r2 = r * r
    total = 0
    for line, w in t.lines:
        a, b, c = line_coeffs(line)
        if a == 0 and b == 0:
            raise PreconditionError("arrangement contains the line at "
                                    "infinity of the chart Z=1")
        d2 = (a * x0 + b * y0 + c) ** 2 / (a * a + b * b)
        excess = r2 - d2
        if excess > 0:
            total = total + w * excess / r2
    return total


@dataclass(frozen=True)
class LelongEstimate:
    point: ProjPoint
    radii: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    exact: Fraction | None


@dataclass(frozen=True)
class GrowthEstimate:
    radii: tuple[float, ...]
    max_values: tuple[float, ...]
    slope: float
    claimed: Fraction


def _fit_slope(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    return num / den


def _directions(seed: int, count: int = 4, phases: int = 1):
    """Deterministic unit directions in C^2, each with a ring of phases."""
    rng = random.Random(seed)
    dirs = []
    for _ in range(count):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in v))
        dirs.append((v[0] / norm, v[1] / norm))
    out = []
    for v0, v1 in dirs:
        for k in range(phases):
            ph = cmath.exp(2j * math.pi * k / phases)
            out.append((ph * v0, ph * v1))
    return out


def _local_forms(p: HomPoly, q: HomPoly, x: ProjPoint):
    """The exact local expansions of p and q at x, in the chart of x."""
    chart = x.chart()
    return p.local_expansion(x, chart)[1], q.local_expansion(x, chart)[1]


def pole_scale(p: HomPoly, q: HomPoly, x: ProjPoint) -> float:
    """Radius rho* below which the tangent cone at x dominates the local
    expansions of p and q.

    With m = min(ord p, ord q) and A the largest |coefficient| of degree m
    in either expansion, rho* = min over the terms c of degree d > m of
    (A / |c|) ** (1 / (d - m)), a Fujiwara-type root bound (1916); on
    |z - x| < rho* every higher term is smaller than A rho^m. It is
    computed in logs of the exact coefficients, so it does not overflow
    however many bits they have. 1.0 when no term has degree above m.

    The estimators sample at rho* 2^-4 .. 2^-12 in double precision, so
    rho* is capped at 2^16: the cone dominates on every smaller radius as
    well, and the powers of the samples stay finite. Below 2^-64 the cone
    dominates only on radii too small to sample, and this raises
    PreconditionError.
    """
    return _pole_scale(_local_forms(p, q, x))


_LOG2 = math.log(2)


def _pole_scale(local) -> float:
    """`pole_scale` from the pair of exact local expansions."""
    terms = [(i + j, math.log(abs(c.numerator)) - math.log(c.denominator))
             for f in local for (i, j), c in f.items()]
    m = min(d for d, _ in terms)
    cone = max(lc for d, lc in terms if d == m)
    log_rho = min(((cone - lc) / (d - m) for d, lc in terms if d > m),
                  default=0.0)
    if log_rho < -64 * _LOG2:
        raise PreconditionError(
            "the tangent cone dominates only below radius "
            f"2^{log_rho / _LOG2:.0f}, too small to sample in floats")
    return math.exp(min(log_rho, 16 * _LOG2))


def _scaled_floats(fp, fq):
    """Both exact forms as float dicts under a shared normalization, so
    float evaluation cannot overflow; the dropped log-scale only shifts u
    by a constant and leaves every slope unchanged.

    Each float is c / scale, formed as the int quotient
    (c.numerator * scale.denominator) / (c.denominator * scale.numerator):
    int true division rounds correctly, as `Fraction.__float__` does, so
    the floats are those of float(c / scale) without a Fraction division.
    """
    scale = max(map(abs, itertools.chain(fp.values(), fq.values())))
    sn, sd = scale.numerator, scale.denominator
    return tuple({k: (c.numerator * sd) / (c.denominator * sn)
                  for k, c in f.items()} for f in (fp, fq))


def _evaluator(f):
    """Evaluation of the float form f from power tables pu, pv of the two
    local variables: the terms are sorted once, and each call sums
    (c * pu[i]) * pv[j] in that order through C-level maps."""
    terms = sorted(f.items())
    coeffs = [c for _, c in terms]
    exps_u = [i for (i, _), _ in terms]
    exps_v = [j for (_, j), _ in terms]

    def value(pu, pv) -> complex:
        return sum(map(mul, map(mul, coeffs, map(pu.__getitem__, exps_u)),
                       map(pv.__getitem__, exps_v)))
    return value


def _max_potential(fp, fq, r: int, radii, dirs) -> list[float]:
    """For each radius rho, the largest log(|P|^2 + |Q|^2) / (2r) over the
    samples (rho * v0, rho * v1) of the directions. Raises
    PreconditionError when the samples overflow floats, or underflow to
    zero on a whole circle."""
    value_p, value_q = _evaluator(fp), _evaluator(fq)
    top = max((max(k) for k in itertools.chain(fp, fq)), default=0)
    exps = range(top + 1)
    values = []
    try:
        for rho in radii:
            best = -math.inf
            for v0, v1 in dirs:
                du, dv = rho * v0, rho * v1
                pu = [du ** i for i in exps]
                pv = [dv ** j for j in exps]
                m2 = abs(value_p(pu, pv)) ** 2 + abs(value_q(pu, pv)) ** 2
                if m2 > 0:
                    best = max(best, math.log(m2) / (2 * r))
            values.append(best)
    except OverflowError:
        values.append(math.inf)
    bad = [rho for rho, v in zip(radii, values) if not math.isfinite(v)]
    if bad:
        raise PreconditionError(
            f"the samples at radius {bad[0]:g} leave the range of floats")
    return values


def estimate_pole_weight(cert: PotentialCertificate, x: ProjPoint, radii,
                         seed: int = 0) -> LelongEstimate:
    """Least-squares slope of max u on shrinking circles around x against
    log radius; for a pole of weight w the slope converges to w."""
    return _estimate_pole_weight(cert, x, _local_forms(cert.p, cert.q, x),
                                 radii, seed)


def _estimate_pole_weight(cert: PotentialCertificate, x: ProjPoint, local,
                          radii, seed: int) -> LelongEstimate:
    """`estimate_pole_weight` from the pair of exact local expansions of
    cert.p and cert.q at x."""
    if not cert.verified:
        raise PreconditionError("certificate must be verified")
    claimed = None
    for pt, w in cert.points:
        if pt.coords == x.coords:
            claimed = w
            break
    if claimed is None:
        raise PreconditionError("point is not listed in the certificate")
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 3:
        raise PreconditionError("need at least 3 radii")
    fp, fq = _scaled_floats(*local)
    values = _max_potential(fp, fq, cert.r, radii, _directions(seed))
    slope = _fit_slope([math.log(r) for r in radii], values)
    return LelongEstimate(point=x, radii=tuple(radii), values=tuple(values),
                          extrapolated=slope, exact=claimed)


def estimate_growth(cert: PotentialCertificate, radii,
                    seed: int = 0) -> GrowthEstimate:
    """Slope of max u on spheres ||z|| = R against log R; converges to
    gamma = degree / r."""
    if not cert.verified:
        raise PreconditionError("certificate must be verified")
    radii = sorted(float(r) for r in radii)
    if len(radii) < 3:
        raise PreconditionError("need at least 3 radii")
    fp, fq = _scaled_floats(cert.p.dehomogenize(2), cert.q.dehomogenize(2))
    values = _max_potential(fp, fq, cert.r, radii, _directions(seed))
    slope = _fit_slope([math.log(r) for r in radii], values)
    return GrowthEstimate(radii=tuple(radii), max_values=tuple(values),
                          slope=slope, claimed=cert.gamma_u)


@dataclass(frozen=True)
class InequalityReport:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    terms: tuple[tuple[ProjPoint, Fraction, Fraction], ...]


def mass_inequality_check(t: ArrangementCurrent,
                          cert: PotentialCertificate) -> InequalityReport:
    """Exact check of sum over certificate points of weight * nu(T, x)
    against gamma, for a unit-mass arrangement current."""
    if t.mass != 1:
        raise PreconditionError("arrangement must have unit mass")
    if not cert.verified:
        raise PreconditionError("certificate must be verified")
    terms = []
    lhs = Fraction(0)
    for x, w in cert.points:
        nu = lelong_exact(t, x)
        terms.append((x, w, nu))
        lhs += w * nu
    return InequalityReport(lhs=lhs, rhs=cert.gamma_u,
                            holds=lhs <= cert.gamma_u, terms=tuple(terms))


@dataclass(frozen=True)
class SharpnessReport:
    lines: tuple[HomPoly, ...]
    points: tuple[ProjPoint, ...]
    lelong_values: tuple[Fraction, ...]
    all_values_one_third: bool
    rank_checks: int
    all_ranks_full: bool
    m_seq: tuple[int, int, int]


def _random_line(rng) -> HomPoly:
    while True:
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if a != 0 or b != 0:
            return HomPoly.line(a, b, c).monic()


def sharpness_example(seed: int, budget: int = 100) -> SharpnessReport:
    """Six generic rational lines and their 15 pairwise intersections.

    Certifies: the normalized arrangement has Lelong number exactly 1/3 at
    every intersection point, and no cubic passes through any 13 of the 15
    points (all C(15, 13) = 105 evaluation matrices have full rank 10), so
    the level set cannot sit inside a cubic plus two points.

    The 105 verdicts are read off the m-sequence. m3 is the largest k for
    which some k-subset lies on a cubic, and every subset of points on a
    cubic lies on it too, so some 13-subset lies on a cubic exactly when
    m3 >= 13. `m_sequence` reads m3 off the duality: m3 < 13 means that
    the 15 x 10 cubic evaluation matrix has rank 10 and that no one or two
    of its Gale vectors in Q^5 are dependent, so the two points outside
    any 13-subset are independent and its evaluation matrix has full rank.
    """
    rng = random.Random(seed)
    for _ in range(budget):
        lines = [_random_line(rng) for _ in range(6)]
        if len({tuple(l.coeff_vector()) for l in lines}) != 6:
            continue
        pts = []
        ok = True
        for l1, l2 in itertools.combinations(lines, 2):
            x = meet(l1, l2)
            if x is None:
                ok = False
                break
            pts.append(x)
        if not ok or len({p.coords for p in pts}) != 15:
            continue  # a concurrence or parallel pair: resample
        t = ArrangementCurrent(tuple((l, Fraction(1, 6)) for l in lines))
        values = tuple(lelong_exact(t, p) for p in pts)
        ms = m_sequence(PointSet(tuple(pts)))
        return SharpnessReport(
            lines=tuple(lines), points=tuple(pts), lelong_values=values,
            all_values_one_third=all(v == Fraction(1, 3) for v in values),
            rank_checks=math.comb(15, 13), all_ranks_full=ms.m3 < 13,
            m_seq=ms.as_tuple())
    raise PreconditionError("could not generate a generic arrangement "
                            "within the budget")
