"""Constructive pipelines producing potential certificates.

A certificate is a pair of coprime forms (P, Q) of equal degree d together
with the list of points where both vanish and the claimed pole weights of
u = (1/2r) log(|P|^2 + |Q|^2). One driver, construct_certificate, picks
an ordered list of routes from the m-sequence's witness labels
(`config._witness_labels`): quartics on a product of two conics, degree-6
pairs on a product of two irreducible cubics (the direct pick of a
quadruple member that neither cubic divides), and, for m3 = 11, quartics
on a conic times two lines. A witness curve is built only where a route
reads it: the conic once at m2 = 7, for both conic routes, and the cubic
by the m3 = 11 route. Each route is a generator of (steps, P, Q, points,
case tag) candidates, and every candidate passes through the one certify
step, `_certify`: make_certificate, which takes the weights and the
verifier's checks from one pass over the points, then the route's
acceptance check. verify_certificate, run by `certify`, re-derives every
invariant from the forms, and `lelong` runs its checks on its jets. The
curves through simple points come from `config.curves_through`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .config import (PointSet, _witness_curve, _witness_labels,
                     curves_through, four_point_lines)
from .curves import (_orders_and_mu, conic_rank, coprime,
                     cubic_is_irreducible, irreducible_conic_through)
from .errors import PreconditionError
from .exactpoly import (HomPoly, ProjPoint, divides, evaluate, exact_divide,
                        join, monomials)
from .linalg import int_rank
from .linsys import (LinearSystem, VanishingCondition, build_system,
                     linearly_independent)
from .record import Record

CERT_SHAPES = {(6, 18), (4, 12)}


class PotentialCertificate(Record):
    p: HomPoly
    q: HomPoly
    r: int
    points: tuple[tuple[ProjPoint, Fraction], ...]
    gamma_u: Fraction
    case_tag: str
    verified: bool

    @property
    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.points), Fraction(0))


class ConstructionReport(Record):
    branch_trace: tuple[str, ...]
    outcome: str  # "certificate" | "unsupported"
    certificate: PotentialCertificate | None = None
    detail: str = ""


class PointCheck(Record):
    point: ProjPoint
    claimed: Fraction
    ord_p: object
    ord_q: object
    multiplicity: object
    ok: bool


class VerificationReport(Record):
    discrete: bool
    per_point: tuple[PointCheck, ...]
    total_weight_ok: bool
    verified: bool


def make_certificate(p: HomPoly, q: HomPoly, points,
                     case_tag: str) -> PotentialCertificate | None:
    """Assemble a certificate from a coprime pair, at scale r = 1; weights
    are the exact minimum vanishing orders. Returns None when the verifier
    rejects the result, as it does when the pair shares a component.
    One pass over the points gives both the weights and the verifier's
    checks (`_report`), so no order is computed twice.
    """
    if p.degree != q.degree:
        raise PreconditionError("certificate forms must share a degree")
    discrete = not p.is_zero and not q.is_zero and coprime(p, q)
    listed, per_point = [], []
    for x in points:
        op, oq, mu = _orders_and_mu(p, q, x, discrete)
        order = min(op, oq)
        if 1 <= order < math.inf:
            listed.append((x, Fraction(order)))
            per_point.append((op, oq, mu))
    cert = PotentialCertificate(
        p=p, q=q, r=1, points=tuple(listed),
        gamma_u=Fraction(p.degree), case_tag=case_tag, verified=False)
    if not _report(cert, discrete, per_point).verified:
        return None
    return cert.replace(verified=True)


def verify_certificate(cert: PotentialCertificate) -> VerificationReport:
    """Re-derive every certificate invariant from scratch (`_report`).

    Checks: the pair is coprime (discrete common zeros, decided by
    curves.coprime, the exact gcd of sheared fibers, each fiber first
    modulo a prime), r >= 1, the listed points are pairwise distinct,
    every one is a common zero whose claimed weight equals
    min(ord P, ord Q)/r and whose intersection multiplicity is at least
    ord P * ord Q, P and Q have one degree and gamma equals it over r,
    and the multiplicities at the listed points sum to at most
    deg P * deg Q (Bezout). The orders and cones come from one
    order_and_cone per form and point, not the full expansion; a point
    where both forms vanish identically has no weight and is not ok.
    """
    discrete = (not cert.p.is_zero and not cert.q.is_zero
                and coprime(cert.p, cert.q))
    return _report(cert, discrete, [
        _orders_and_mu(cert.p, cert.q, x, discrete) for x, _ in cert.points])


def _report(cert: PotentialCertificate, discrete: bool,
            per_point) -> VerificationReport:
    """The verification report of `cert`, given whether its forms are
    coprime and (ord P, ord Q, mu) at each listed point, in order, with mu
    None where the forms are not coprime."""
    r_ok = cert.r >= 1
    checks = []
    for (x, w), (op, oq, mu) in zip(cert.points, per_point):
        ok = (r_ok and 1 <= min(op, oq) < math.inf
              and Fraction(min(op, oq), cert.r) == w
              and (mu is None or mu >= op * oq))
        checks.append(PointCheck(point=x, claimed=w, ord_p=op, ord_q=oq,
                                 multiplicity=mu, ok=ok))
    distinct = len({c.point for c in checks}) == len(checks)
    # with unequal degrees u grows like max(deg P, deg Q) / r
    gamma_ok = (r_ok and cert.p.degree == cert.q.degree
                and cert.gamma_u == Fraction(cert.p.degree, cert.r))
    total_ok = gamma_ok and distinct and all(c.ok for c in checks)
    bezout_ok = discrete and (sum(c.multiplicity for c in checks)
                              <= cert.p.degree * cert.q.degree)
    return VerificationReport(discrete=discrete, per_point=tuple(checks),
                              total_weight_ok=total_ok,
                              verified=bezout_ok and total_ok)


# ---------------------------------------------------------------------------
# The degree-6 pair construction: two independent members of the sextic
# system with order 2 at six common points, coprime by the direct pick.


def _cubic_pair_fault(s: PointSet, c1: HomPoly, c2: HomPoly, common, only1,
                      only2) -> str | None:
    """Why (c1, c2, common, only1, only2) is not a pair of irreducible
    cubics with c1 through the common and only1 points and none of only2,
    and symmetrically for c2; None when it is."""
    if len(common) != 6 or len(only1) != 3 or len(only2) != 3:
        return "label groups must have sizes 6, 3, 3"
    for name, cubic, inside, outside in (("c1", c1, common + only1, only2),
                                         ("c2", c2, common + only2, only1)):
        if cubic.degree != 3:
            return f"{name} is not a cubic"
        if not cubic_is_irreducible(cubic):
            return f"{name} is not irreducible"
        if any(evaluate(cubic, s.point(l)) != 0 for l in inside):
            return f"{name} misses a required point"
        if any(evaluate(cubic, s.point(l)) == 0 for l in outside):
            return f"{name} contains an excluded point"
    return None


def _extend_to_four(p1: HomPoly, system: LinearSystem) -> list[HomPoly]:
    """Three system members completing p1 to an independent quadruple. The
    sextic system has dimension at least 28 - 24 = 4 and holds p1."""
    mons = monomials(p1.degree)
    chosen = [p1]
    for b in system.kernel_basis:
        cand = chosen + [b]
        # den * coeff_vector(): scaling a row keeps the rank
        if int_rank([[c.ints.get(m, 0) for m in mons]
                     for c in cand]) == len(cand):
            chosen = cand
            if len(chosen) == 4:
                break
    return chosen[1:]


def _sextic_candidates(s: PointSet, steps: tuple[str, ...], label_pairs):
    """For each (c1, c2, common, only1, only2) that passes
    `_cubic_pair_fault`, the product c1*c2 with the first member of an
    independent quadruple of the sextic system (order 2 on the common
    labels, 1 on the rest) that neither cubic divides."""
    for c1, c2, common, only1, only2 in label_pairs:
        conds = ([VanishingCondition(s.point(l), 2) for l in common]
                 + [VanishingCondition(s.point(l), 1) for l in only1 + only2])
        p1 = c1 * c2
        q = next((q for q in _extend_to_four(p1, build_system(6, conds))
                  if not divides(c1, q) and not divides(c2, q)), None)
        if q is not None:
            yield steps + ("direct_pick",), p1, q, s.points, "sextic_pair"


def construct_sextic_pair(s: PointSet, c1: HomPoly, c2: HomPoly,
                          common, only1, only2) -> ConstructionReport:
    """Degree-6 coprime pair vanishing to order 2 on the six common labels
    and order 1 on the rest: the product c1*c2 with the first member of an
    independent quadruple of the system that neither cubic divides. With no
    such member the report is unsupported.

    `common`, `only1`, `only2` are label groups: c1 must contain the common
    and only1 points and none of only2; symmetrically for c2.
    """
    common, only1, only2 = tuple(common), tuple(only1), tuple(only2)
    fault = _cubic_pair_fault(s, c1, c2, common, only1, only2)
    if fault is not None:
        raise PreconditionError(fault)
    for steps, p, q, points, tag in _sextic_candidates(
            s, (), [(c1, c2, common, only1, only2)]):
        cert = make_certificate(p, q, points, tag)
        if cert is None:
            raise PreconditionError("constructed pair failed verification")
        return ConstructionReport(steps, "certificate", cert)
    return ConstructionReport(
        (), "unsupported",
        detail="every quadruple member is divisible by one of the cubics")


# ---------------------------------------------------------------------------
# The construction driver. The m-sequence picks an ordered list of routes.
# A route yields candidates; the first candidate that verifies and passes
# the route's acceptance check is the certificate.


class _Unsupported(Exception):
    """A route's setup rules the instance out; the driver reports it."""

    def __init__(self, detail: str, steps: tuple[str, ...] = ()):
        super().__init__(detail)
        self.detail = detail
        self.steps = steps


def _frozen_shape(cert: PotentialCertificate) -> bool:
    return (int(cert.gamma_u), int(cert.total_weight)) in CERT_SHAPES


def _ratio_three(cert: PotentialCertificate) -> bool:
    return cert.total_weight >= 3 * cert.gamma_u


def _weight_13(cert: PotentialCertificate) -> bool:
    return cert.total_weight == 13


def _certify(candidates, accept):
    """The shared step: the first (steps, p, q, points, case tag) candidate
    whose certificate verifies and passes `accept`, as (steps, cert)."""
    for steps, p, q, points, tag in candidates:
        cert = make_certificate(p, q, points, tag)
        if cert is not None and accept(cert):
            return steps, cert
    return None


def _independent_members(p1: HomPoly, degree: int, conditions):
    """Members of the system independent of p1: its kernel basis, then the
    pairwise sums of the basis."""
    basis = build_system(degree, conditions).kernel_basis
    for p2 in itertools.chain(basis, (a + b for a, b in
                                      itertools.combinations(basis, 2))):
        if linearly_independent(p1, p2):
            yield p2


def _two_conic_quartics(s: PointSet, labels7, conic7: HomPoly):
    """The product of the 7-point conic and the conic through the other five
    points, with quartics through all 12 points."""
    conic5 = irreducible_conic_through(
        [s.point(l) for l in range(1, 13) if l not in labels7])
    if conic5 is None:
        return
    p1 = conic7 * conic5
    for p2 in _independent_members(
            p1, 4, [VanishingCondition(x, 1) for x in s.points]):
        yield ("quartic_two_conics",), p1, p2, s.points, "quartic_two_conics"


def _conic_double_point_quartics(s: PointSet, labels7, conic7: HomPoly):
    """Drop one of the five labels off the 7-point conic so that no three of
    the kept four are collinear; pair the 7-point conic with the conic
    through those four and one conic point i, with quartics doubled at i."""
    others = [l for l in range(1, 13) if l not in labels7]
    groups = four_point_lines(s)
    for drop in reversed(others):
        four = [l for l in others if l != drop]
        if any(len(set(g).intersection(four)) >= 3 for g in groups):
            continue
        kept = [s.point(l) for l in range(1, 13) if l != drop]
        for i in labels7:
            conic_i = irreducible_conic_through(
                [s.point(l) for l in four] + [s.point(i)])
            if conic_i is None:
                continue
            p1 = conic7 * conic_i
            conds = ([VanishingCondition(s.point(l), 1)
                      for l in range(1, 13) if l != drop and l != i]
                     + [VanishingCondition(s.point(i), 2)])
            for p2 in _independent_members(p1, 4, conds):
                yield (("quartic_conic_double_point",), p1, p2, kept,
                       "quartic_conic_double_point")


def _hitting_drops(s: PointSet):
    """3-subsets of labels whose removal kills every 4-point line."""
    lines4 = [g for g in four_point_lines(s) if len(g) >= 4]
    return [combo for combo in itertools.combinations(range(1, 13), 3)
            if all(any(l in combo for l in line) for line in lines4)]


def _hitting_drop_pairs(s: PointSet):
    """Cubics through all but t1 and through all but t2, for the first 60
    disjoint pairs of hitting drops; each cubic must be irreducible and
    miss its dropped points, so every pair passes `_cubic_pair_fault`."""
    cubic_cache: dict[tuple, HomPoly | None] = {}

    def cubic_for(drop):
        if drop not in cubic_cache:
            c = curves_through(
                [s.point(l) for l in range(1, 13) if l not in drop], 3)[0]
            ok = (all(evaluate(c, s.point(l)) != 0 for l in drop)
                  and cubic_is_irreducible(c))
            cubic_cache[drop] = c if ok else None
        return cubic_cache[drop]

    disjoint = ((t1, t2) for t1, t2 in
                itertools.combinations(_hitting_drops(s), 2)
                if not set(t1) & set(t2))
    for t1, t2 in itertools.islice(disjoint, 60):
        c1 = cubic_for(t1)
        if c1 is None:
            continue
        c2 = cubic_for(t2)
        if c2 is None:
            continue
        common = tuple(l for l in range(1, 13) if l not in t1 + t2)
        yield c1, c2, common, t2, t1


def _line_split_pairs(s: PointSet):
    """m3 = 10, m2 = 6: cubics that split the unique 4-point line two labels
    each and share six of the remaining eight points; pairs that fail
    `_cubic_pair_fault` are skipped."""
    lines4 = [g for g in four_point_lines(s) if len(g) == 4]
    if len(lines4) != 1:
        raise _Unsupported("expected a unique 4-point line")
    a, b, c, d = lines4[0]
    rest = [l for l in range(1, 13) if l not in lines4[0]]
    for drop1, drop2 in itertools.combinations(rest, 2):
        shared_six = tuple(l for l in rest if l not in (drop1, drop2))
        only1, only2 = (a, b, drop2), (c, d, drop1)
        c1 = curves_through([s.point(l) for l in only1 + shared_six], 3)[0]
        c2 = curves_through([s.point(l) for l in only2 + shared_six], 3)[0]
        if _cubic_pair_fault(s, c1, c2, shared_six, only1, only2) is None:
            yield c1, c2, shared_six, only1, only2


def _line_product(s: PointSet, labels11, extra: ProjPoint | None):
    """m3 = 11: the witness cubic through the labels `labels11` splits as
    an irreducible conic and a line, with one point x12 of S off both. P1
    is conic * line * the join of x12 and the extra point; the branch
    follows where that join meets S."""
    gamma = _witness_curve(s, labels11, 3)
    if cubic_is_irreducible(gamma):
        raise _Unsupported("an irreducible cubic through more than 9 points "
                           "is outside this toolkit's certified range",
                           ("irreducible_cubic_overload",))
    # gamma holds 11 points of S, and the conic left by any of its lines
    # holds at most 8 (m2 <= 7, m1 <= 4): each rational line of gamma holds
    # at least 3 of them, so it is the line of a collinear group of S
    group_lines = (join(s.point(g[0]), s.point(g[1])).monic()
                   for g in four_point_lines(s))
    lines = sorted((l for l in group_lines if divides(l, gamma)),
                   key=lambda l: tuple(l.coeff_vector()))
    if not lines:
        raise _Unsupported("reducible cubic with no rational line factor")
    line = lines[0]
    conic = exact_divide(gamma, line)
    if conic.degree != 2 or conic_rank(conic) != 3:
        raise _Unsupported("cubic does not split as an irreducible conic "
                           "and a line")
    on_line = [l for l in range(1, 13) if evaluate(line, s.point(l)) == 0]
    on_conic = [l for l in range(1, 13) if evaluate(conic, s.point(l)) == 0]
    off = [l for l in range(1, 13) if l not in set(on_line) | set(on_conic)]
    if len(off) != 1:
        raise _Unsupported("expected exactly one point off the witness cubic")
    x12 = s.point(off[0])
    if extra is None:
        raise PreconditionError("m3=11 requires an extra point off the "
                                "witness cubic")
    if evaluate(gamma, extra) == 0 or extra in s.points:
        raise PreconditionError("extra point must avoid the witness cubic "
                                "and the point set")
    through = join(extra, x12)
    p1 = conic * line * through
    hits_line = [l for l in on_line if evaluate(through, s.point(l)) == 0]
    hits_conic = [l for l in on_conic if evaluate(through, s.point(l)) == 0]
    if not hits_line or not hits_conic:
        # the join misses S on the line or on the conic: all 12 points of S
        # plus the extra point carry weight 1
        branch = ("line_product_line_hit" if hits_line
                  else "line_product_conic_hit" if hits_conic
                  else "line_product_disjoint")
        tag, accept = "line_product_weight13", _weight_13
        pts = list(s.points) + [extra]
        conds = [VanishingCondition(x, 1) for x in pts]
    else:
        # the join meets S both on the line and on the conic: drop its line
        # point and one more line point, and double the conic point
        branch = tag = "line_product_excluded_points"
        accept = _ratio_three
        drop = {hits_line[0]}
        rest_of_line = [l for l in on_line if l != hits_line[0]]
        if rest_of_line:
            drop.add(rest_of_line[-1])
        keep = [l for l in range(1, 13) if l not in drop]
        pts = [s.point(l) for l in keep] + [extra]
        conds = ([VanishingCondition(s.point(l), 2 if l == hits_conic[0]
                                     else 1) for l in keep]
                 + [VanishingCondition(extra, 1)])
    return _certify((((branch,), p1, p2, pts, tag)
                     for p2 in _independent_members(p1, 4, conds)), accept)


def _routes(s: PointSet, labels, extra: ProjPoint | None):
    """Each route's result, (steps, certificate) or None, in the order the
    routes are tried for (m3, m2), read off the witness labels; a route
    runs only when the walk reaches it."""
    m2, m3 = len(labels[1]), len(labels[2])
    if m3 == 11:
        yield _line_product(s, labels[2], extra)
        return
    if m2 == 7:
        conic7 = _witness_curve(s, labels[1], 2)
        if conic_rank(conic7) == 3:
            yield _certify(_two_conic_quartics(s, labels[1], conic7),
                           _frozen_shape)
            yield _certify(_conic_double_point_quartics(s, labels[1], conic7),
                           _frozen_shape)
    if m3 == 9 or m2 == 7:
        yield _certify(_sextic_candidates(s, ("pair_route",),
                                          _hitting_drop_pairs(s)),
                       _frozen_shape)
    elif m2 == 6:
        yield _certify(_sextic_candidates(s, ("line_split_pairs",),
                                          _line_split_pairs(s)), _ratio_three)


def _twelve_point_labels(s: PointSet):
    """The m-sequence's witness labels (`config._witness_labels`) of a
    12-point set; the curves are built by the routes that read them."""
    if len(s) != 12:
        raise PreconditionError("needs exactly 12 points")
    return _witness_labels(s)


def _construct(s: PointSet, labels,
               extra: ProjPoint | None) -> ConstructionReport:
    m1, m2, m3 = map(len, labels)
    # m3 = 9 forces m1 <= 4 and m2 <= 7, and m3 >= 9 holds for 12 points
    if m1 > 4 or m2 > 7:
        raise PreconditionError("m1 <= 4 and m2 <= 7 are required")
    if m3 > 11:
        raise PreconditionError(f"m3 must be 10 or 11, got {m3}")
    trace = (f"m2_{m2}",) if m3 == 9 else (f"m3_{m3}", f"m2_{m2}")
    try:
        for found in _routes(s, labels, extra):
            if found is not None:
                steps, cert = found
                return ConstructionReport(trace + steps, "certificate", cert)
    except _Unsupported as exc:
        return ConstructionReport(trace + exc.steps, "unsupported",
                                  detail=exc.detail)
    return ConstructionReport(
        trace, "unsupported",
        detail="no route produced a certificate within the search budget")


def construct_certificate(s: PointSet,
                          extra: ProjPoint | None = None
                          ) -> ConstructionReport:
    """Verified certificate for a 12-point set with m1 <= 4, m2 <= 7 and
    m3 in {9, 10, 11}, routed on its m-sequence, which is computed once;
    a witness curve is built only by a route that reads it.

    With m3 in {9, 10} the certificate has ratio weight/gamma 3: quartics
    on a product of two conics when m2 = 7 and a 7-point conic is
    irreducible, else degree-6 pairs on a product of two irreducible
    cubics. m3 = 11 needs `extra`, a point off the witness cubic and off
    the set, and gives weight 13 with gamma 4 (weight 12 when the join of
    `extra` with the off-cubic point meets S on both the line and the
    conic).
    """
    return _construct(s, _twelve_point_labels(s), extra)


def construct_certificate_m3_9(s: PointSet) -> ConstructionReport:
    """construct_certificate for a 12-point set that must have m3 = 9."""
    labels = _twelve_point_labels(s)
    if len(labels[2]) != 9:
        raise PreconditionError(f"m3 must be 9, got {len(labels[2])}")
    return _construct(s, labels, None)


def construct_certificate_m3_high(s: PointSet,
                                  extra: ProjPoint | None = None
                                  ) -> ConstructionReport:
    """construct_certificate for a 12-point set that must have m3 in
    {10, 11}; m3 = 11 needs `extra`."""
    labels = _twelve_point_labels(s)
    if len(labels[2]) == 9:
        raise PreconditionError("m3 must be 10 or 11, got 9")
    return _construct(s, labels, extra)
