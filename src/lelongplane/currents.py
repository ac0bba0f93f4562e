"""Weighted line-arrangement currents and potential estimators.

Lelong numbers of arrangement currents are exact sums of incident weights;
Euclidean ball masses have the closed form sum w * max(0, r^2 - d^2) / r^2
over the lines at distance d. Pole weights and growth rates of certified
potentials u = (1/2r) log(|P|^2 + |Q|^2) are estimated numerically from
exact jets, so the samples stay cancellation-free down to very small
radii. A jet is (den, integer terms), from the integer Taylor shift
(``exactpoly.int_expansion``), scaled once and converted to floats.

The estimators take absolute radii. Which radii are small enough depends
on the point: where the higher-order coefficients of the expansion dwarf
those of the tangent cone, the slope is still biased at radius 2^-16.
``_pole_scale`` computes, exactly and in logs, the radius rho* below
which the cone dominates. ``lelong`` samples each listed point at
rho* 2^-4 .. 2^-12, rho* capped at 2^16, and the growth at GROWTH_RADII =
2^8 .. 2^16; a rho* below 2^-64, or samples that leave the range of
floats, raise PreconditionError. Every circle is sampled in the same four
seeded directions (``_directions``), drawn once per command: along any
direction where the tangent cone does not vanish, u(x + rho v) already
grows like min(ord P, ord Q) / r times log rho, and a sweep over every
instance kind at seeds 0-3 kept the worst pole error near 0.01 from 4 up
to 256 samples per circle.

Both estimators share one sampling loop (``_sampled_slope``): at each
sample (du, dv) it builds the power tables du ** i and dv ** j once, and
sums (c * du ** i) * dv ** j over a form's terms in sorted exponent order
from the int 0, the float operations of a plain term-by-term evaluation,
so the estimates are bit-for-bit those of that evaluation.

``lelong`` shifts P and Q once per listed point, multiplies a form's jet
out only where it vanishes (``_point_jet``), and the verifier's orders,
cones and reductions, rho* and the samples read those jets; the growth
reads each form's integers at Z = 1. The sharpness example reads its 105
full-rank verdicts on the 13-point subsets off its m-sequence (m3 < 13).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import partial
from operator import itemgetter, mul

from .config import PointSet, _witness_labels
from .construct import PotentialCertificate, _report
from .curves import _point_mu, _reduction_mu, coprime
from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, _multiply_out, _s_sums, evaluate,
                        int_expansion, line_coeffs, meet)
from .record import Record


class ArrangementCurrent(Record):
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


def lelong_ball_mass(t: ArrangementCurrent, x: ProjPoint, r):
    """Normalized mass of the arrangement in the Euclidean ball B(x, r) of
    the chart Z = 1: sum of w * max(0, r^2 - d^2) / r^2 with d the distance
    from x to each affine line trace. Exact when r is rational."""
    if x.ints[2] == 0:
        raise PreconditionError("center must be affine in the chart Z=1")
    x0, y0 = x.affine(2)
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


class LelongEstimate(Record):
    point: ProjPoint
    radii: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    exact: Fraction


class GrowthEstimate(Record):
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


# seeded directions per sampled circle; see the module docstring
_DIRECTIONS = 4


def _directions(seed: int):
    """_DIRECTIONS deterministic unit directions in C^2."""
    rng = random.Random(seed)
    out = []
    for _ in range(_DIRECTIONS):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in v))
        out.append((v[0] / norm, v[1] / norm))
    return out


def _local_forms(p: HomPoly, q: HomPoly, x: ProjPoint):
    """The jets (den, integer terms) of p and q at x, by `int_expansion`."""
    return int_expansion(p, x)[1:], int_expansion(q, x)[1:]


def _jet_cone(jet):
    """The (order, cone) of order_and_cone, over the same den, read off the
    lowest level of a jet; (math.inf, None) for the zero form's empty jet."""
    m = min((i + j for i, j in jet[1]), default=math.inf)
    return m, (None if m == math.inf else
               [jet[1].get((i, m - i), 0) for i in range(m + 1)])


def _point_jet(f: HomPoly, x: ProjPoint):
    """f's jet at x as `_local_forms` has it, or its 0-jet, the value of
    `_s_sums`, where f(x) != 0, so that mu is 0 and the point fails."""
    tables, _, _, value = sums = _s_sums(f, x)
    return (tables[4], {(0, 0): value}) if value else _multiply_out(sums)[1:]


def jet_verification(cert: PotentialCertificate):
    """(jets, report): the jets at each listed point (`_point_jet`), and
    `verify_certificate(cert)` read off them by `curves._point_mu`."""
    jets = [(_point_jet(cert.p, x), _point_jet(cert.q, x))
            for x, _ in cert.points]
    discrete = (not cert.p.is_zero and not cert.q.is_zero
                and coprime(cert.p, cert.q))
    return jets, _report(cert, discrete, [
        _point_mu(_jet_cone(jp), _jet_cone(jq), discrete,
                  partial(_reduction_mu, cert.p, cert.q, x, (jp[1], jq[1])))
        for (x, _), (jp, jq) in zip(cert.points, jets)])


_LOG2 = math.log(2)


def _pole_scale(jets) -> float:
    """Radius rho* below which the tangent cone at a point dominates the
    local expansions of p and q, from their pair of jets there.

    With m = min(ord p, ord q) and A the largest |coefficient| of degree m
    in either expansion, rho* = min over the terms c of degree d > m of
    (A / |c|) ** (1 / (d - m)), a Fujiwara-type root bound (1916); on
    |z - x| < rho* every higher term is smaller than A rho^m. It is taken
    in logs of the reduced pairs of the exact coefficients, so it does not
    overflow however many bits they have; 1.0 if no term has degree > m.

    The estimators sample at rho* 2^-4 .. 2^-12 in double precision, so
    rho* is capped at 2^16: the cone dominates on every smaller radius as
    well, and the powers of the samples stay finite. Below 2^-64 it
    dominates only on radii too small to sample: PreconditionError.
    """
    terms = [(i + j, math.log(abs(n) // g) - math.log(den // g))
             for den, f in jets for (i, j), n in f.items()
             for g in (math.gcd(n, den),)]
    m = min(d for d, _ in terms)
    cone = max(lc for d, lc in terms if d == m)
    log_rho = min(((cone - lc) / (d - m) for d, lc in terms if d > m),
                  default=0.0)
    if log_rho < -64 * _LOG2:
        raise PreconditionError(
            "the tangent cone dominates only below radius "
            f"2^{log_rho / _LOG2:.0f}, too small to sample in floats")
    return math.exp(min(log_rho, 16 * _LOG2))


def _scaled_floats(jp, jq):
    """Both jets (den, integer terms) as float dicts under a shared
    normalization, so float evaluation cannot overflow; the dropped
    log-scale only shifts u by a constant and leaves every slope
    unchanged.

    The scale sn/sd is the largest |n| / den over the two jets, and each
    float is the int quotient (n * sd) / (den * sn): int true division
    rounds the exact quotient correctly, as `Fraction.__float__` does, so
    the floats are those of float(Fraction(n, den) / scale).
    """
    (a, da), (b, db) = ((max(map(abs, f.values()), default=0), den)
                        for den, f in (jp, jq))
    sn, sd = (a, da) if a * db >= b * da else (b, db)
    return tuple({k: (n * sd) / (den * sn) for k, n in f.items()}
                 for den, f in (jp, jq))


def _evaluator(f):
    """Evaluation of the float form f from power tables pu, pv of the two
    local variables: the terms are sorted once, and each call sums
    (c * pu[i]) * pv[j] in that order through C-level maps. complex(c)
    multiplies as c (CPython makes a float operand (c, 0.0)); two pad
    entries keep each itemgetter's result a tuple."""
    terms = sorted(f.items())
    coeffs = [complex(c) for _, c in terms]
    exps_u = itemgetter(*(i for (i, _), _ in terms), 0, 0)
    exps_v = itemgetter(*(j for (_, j), _ in terms), 0, 0)

    def value(pu, pv) -> complex:
        return sum(map(mul, map(mul, coeffs, exps_u(pu)), exps_v(pv)))
    return value


def _sampled_slope(r: int, jets, radii, dirs):
    """(maxima, slope): at each radius rho, in the order given (it fixes the
    float sums' bits), the largest log(|P|^2 + |Q|^2) / (2r) over the
    samples rho * (v0, v1) of dirs, and the maxima's least-squares slope
    against log rho. PreconditionError when the samples leave floats."""
    if len(radii) < 3:
        raise PreconditionError("need at least 3 radii")
    fp, fq = _scaled_floats(*jets)
    value_p, value_q = _evaluator(fp), _evaluator(fq)
    exps = range(max((max(k) for k in itertools.chain(fp, fq)), default=0) + 1)
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
    return values, _fit_slope([math.log(r) for r in radii], values)


def estimate_pole_weight(cert: PotentialCertificate, x: ProjPoint, radii,
                         seed: int = 0) -> LelongEstimate:
    """Least-squares slope of max u on shrinking circles around x against
    log radius; for a pole of weight w the slope converges to w."""
    return _estimate_pole_weight(cert, x, _local_forms(cert.p, cert.q, x),
                                 radii, _directions(seed))


def _estimate_pole_weight(cert: PotentialCertificate, x: ProjPoint, jets,
                          radii, dirs) -> LelongEstimate:
    """`estimate_pole_weight` from the jets of cert.p, cert.q at x, on dirs."""
    if not cert.verified:
        raise PreconditionError("certificate must be verified")
    claimed = next((w for pt, w in cert.points if pt == x), None)
    if claimed is None:
        raise PreconditionError("point is not listed in the certificate")
    radii = sorted((float(r) for r in radii), reverse=True)
    values, slope = _sampled_slope(cert.r, jets, radii, dirs)
    return LelongEstimate(point=x, radii=tuple(radii), values=tuple(values),
                          extrapolated=slope, exact=claimed)


def pole_estimates(cert: PotentialCertificate, jets, dirs):
    """The pole estimate at each listed point of cert, in order, as
    ``lelong`` samples it: its jets (`jet_verification`) give both rho*
    (`_pole_scale`) and the estimate at rho* 2^-4 .. 2^-12, along dirs."""
    for (x, _), pair in zip(cert.points, jets):
        rho = _pole_scale(pair)
        yield _estimate_pole_weight(
            cert, x, pair, [rho * 2.0 ** -k for k in range(4, 13)], dirs)


GROWTH_RADII = tuple(2.0 ** k for k in range(8, 17))


def estimate_growth(cert: PotentialCertificate, radii, seed: int = 0,
                    dirs=None) -> GrowthEstimate:
    """Slope of max u on spheres ||z|| = R against log R, sampled along
    dirs (default `_directions(seed)`); converges to gamma = degree / r.
    It reads the forms' integer terms at Z = 1, keyed by X and Y exponents."""
    if not cert.verified:
        raise PreconditionError("certificate must be verified")
    radii = sorted(float(r) for r in radii)
    jets = [(f.den, {(i, j): n for (i, j, _), n in f.ints.items()})
            for f in (cert.p, cert.q)]
    values, slope = _sampled_slope(cert.r, jets, radii,
                                   dirs or _directions(seed))
    return GrowthEstimate(radii=tuple(radii), max_values=tuple(values),
                          slope=slope, claimed=cert.gamma_u)


class InequalityReport(Record):
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


class SharpnessReport(Record):
    lines: tuple[HomPoly, ...]
    points: tuple[ProjPoint, ...]
    lelong_values: tuple[Fraction, ...]
    all_values_one_third: bool
    rank_checks: int
    all_ranks_full: bool
    m_seq: tuple[int, int, int]


# arrangements drawn before sharpness_example gives up
_SHARPNESS_BUDGET = 100


def _random_line(rng) -> HomPoly:
    while True:
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if a != 0 or b != 0:
            return HomPoly.line(a, b, c).monic()


def sharpness_example(seed: int) -> SharpnessReport:
    """Six generic rational lines and their 15 pairwise intersections.

    Certifies: the normalized arrangement has Lelong number exactly 1/3 at
    every intersection point, and no cubic passes through any 13 of the 15
    points (all C(15, 13) = 105 evaluation matrices have full rank 10), so
    the level set cannot sit inside a cubic plus two points.

    The 105 verdicts are read off the m-sequence. m3 is the largest k for
    which some k-subset lies on a cubic, and every subset of points on a
    cubic lies on it too, so some 13-subset lies on a cubic exactly when
    m3 >= 13. `config._witness_labels`, the search of `m_sequence` without
    its witness curves, reads m3 off the duality: m3 < 13 means that
    the 15 x 10 cubic evaluation matrix has rank 10 and that no one or two
    of its Gale vectors in Q^5 are dependent, so the two points outside
    any 13-subset are independent and its evaluation matrix has full rank.
    """
    rng = random.Random(seed)
    for _ in range(_SHARPNESS_BUDGET):
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
        if not ok or len(set(pts)) != 15:
            continue  # a concurrence or parallel pair: resample
        t = ArrangementCurrent(tuple((l, Fraction(1, 6)) for l in lines))
        values = tuple(lelong_exact(t, p) for p in pts)
        m_seq = tuple(map(len, _witness_labels(PointSet(tuple(pts)))))
        return SharpnessReport(
            lines=tuple(lines), points=tuple(pts), lelong_values=values,
            all_values_one_third=all(v == Fraction(1, 3) for v in values),
            rank_checks=math.comb(15, 13), all_ranks_full=m_seq[2] < 13,
            m_seq=m_seq)
    raise PreconditionError("could not generate a generic arrangement "
                            "within the budget")
