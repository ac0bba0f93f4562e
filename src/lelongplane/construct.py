"""Constructive pipelines producing potential certificates.

A certificate is a pair of coprime forms (P, Q) of equal degree d together
with the list of points where both vanish and the claimed pole weights of
u = (1/2r) log(|P|^2 + |Q|^2). The pipelines mirror a fixed move order:
direct pick of a coprime pair from a linear system, sum moves, division by
a shared factor, and product routes built from conics and lines; every
emitted certificate is re-verified through an independent code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .config import MSequence, PointSet, four_point_lines, m_sequence
from .curves import (_orders_and_mu, bezout_table, conic_rank,
                     cubic_is_irreducible, find_line_components,
                     intersection_multiplicity)
from .errors import PreconditionError, UnsupportedInstanceError
from .exactpoly import (HomPoly, ProjPoint, coprime, divides, evaluate,
                        exact_divide, gcd_homogeneous, vanishing_order)
from .linalg import int_rank
from .linsys import (LinearSystem, VanishingCondition, build_system,
                     linearly_independent, pencil_member)

CERT_SHAPES = {(6, 18), (5, 15), (4, 12), (3, 9)}


@dataclass(frozen=True)
class PotentialCertificate:
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


@dataclass(frozen=True)
class ConstructionReport:
    branch_trace: tuple[str, ...]
    outcome: str  # "certificate" | "contradiction" | "unsupported"
    certificate: PotentialCertificate | None = None
    detail: str = ""


@dataclass(frozen=True)
class PointCheck:
    point: ProjPoint
    claimed: Fraction
    ord_p: object
    ord_q: object
    multiplicity: object
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    discrete: bool
    per_point: tuple[PointCheck, ...]
    total_weight_ok: bool
    verified: bool


def _min_order_weight(p: HomPoly, q: HomPoly, x: ProjPoint, r: int):
    return Fraction(min(vanishing_order(p, x), vanishing_order(q, x)), r)


def make_certificate(p: HomPoly, q: HomPoly, points, case_tag: str,
                     r: int = 1) -> PotentialCertificate | None:
    """Assemble a certificate from a coprime pair; weights are the exact
    minimum vanishing orders divided by r. Returns None when the verifier
    rejects the result, as it does when the pair shares a component."""
    if p.degree != q.degree:
        raise PreconditionError("certificate forms must share a degree")
    listed = []
    for x in points:
        w = _min_order_weight(p, q, x, r)
        if w > 0:
            listed.append((x, w))
    cert = PotentialCertificate(
        p=p, q=q, r=r, points=tuple(listed),
        gamma_u=Fraction(p.degree, r), case_tag=case_tag, verified=False)
    report = verify_certificate(cert)
    if not report.verified:
        return None
    return PotentialCertificate(
        p=p, q=q, r=r, points=cert.points, gamma_u=cert.gamma_u,
        case_tag=case_tag, verified=True)


def verify_certificate(cert: PotentialCertificate) -> VerificationReport:
    """Re-derive every certificate invariant from scratch.

    Checks: the pair is coprime (discrete common zeros, decided by
    exactpoly.coprime: a modular resultant on a line, or sympy's gcd when
    that proof fails), r >= 1, the listed points are pairwise distinct,
    every one is a common zero whose claimed weight equals
    min(ord P, ord Q)/r and whose intersection multiplicity is at least
    ord P * ord Q, P and Q have one degree and gamma equals it over r,
    and the multiplicities at the listed points sum to at most
    deg P * deg Q (Bezout). Both forms are expanded once per listed point;
    the orders and the tangent-cone stage of the multiplicity read the
    same expansions.
    """
    discrete = (not cert.p.is_zero and not cert.q.is_zero
                and coprime(cert.p, cert.q))
    r_ok = cert.r >= 1
    checks = []
    for x, w in cert.points:
        op, oq, mu = _orders_and_mu(cert.p, cert.q, x, discrete)
        ok = (r_ok and op >= 1 and oq >= 1
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
# system with order 2 at six common points, coprime by the move sequence.


def _interpolated_cubic(points) -> HomPoly | None:
    sys3 = build_system(3, [VanishingCondition(x, 1) for x in points])
    if sys3.dim < 1:
        return None
    return sys3.kernel_basis[0]


def _extend_to_four(p1: HomPoly, system: LinearSystem):
    """Three system members completing p1 to an independent quadruple."""
    chosen = [p1]
    for b in system.kernel_basis:
        cand = chosen + [b]
        if int_rank([c.coeff_vector() for c in cand]) == len(cand):
            chosen.append(b)
        if len(chosen) == 4:
            return chosen[1:]
    return None


def construct_sextic_pair(s: PointSet, c1: HomPoly, c2: HomPoly,
                          common, only1, only2) -> ConstructionReport:
    """Degree-6 coprime pair vanishing to order 2 on the six common labels
    and order 1 on the rest, built from the product c1*c2 by the move
    sequence: direct pick, sum move, then the division analysis whose
    success is a contradiction witness against the hypotheses.

    `common`, `only1`, `only2` are label groups: c1 must contain the common
    and only1 points and none of only2; symmetrically for c2.
    """
    trace = []
    common_pts = [s.point(l) for l in common]
    pts1 = [s.point(l) for l in only1]
    pts2 = [s.point(l) for l in only2]
    if len(common) != 6 or len(only1) != 3 or len(only2) != 3:
        raise PreconditionError("label groups must have sizes 6, 3, 3")
    for name, cubic, inside, outside in (
            ("c1", c1, common_pts + pts1, pts2),
            ("c2", c2, common_pts + pts2, pts1)):
        if cubic.degree != 3:
            raise PreconditionError(f"{name} is not a cubic")
        if not cubic_is_irreducible(cubic):
            raise PreconditionError(f"{name} is not irreducible")
        for x in inside:
            if evaluate(cubic, x) != 0:
                raise PreconditionError(f"{name} misses a required point")
        for x in outside:
            if evaluate(cubic, x) == 0:
                raise PreconditionError(f"{name} contains an excluded point")
    conds = ([VanishingCondition(x, 2) for x in common_pts]
             + [VanishingCondition(x, 1) for x in pts1 + pts2])
    system = build_system(6, conds)
    if system.dim < 4:
        raise PreconditionError("sextic system has dimension below 4")
    p1 = c1 * c2
    others = _extend_to_four(p1, system)
    if others is None:
        raise PreconditionError("could not complete an independent quadruple")

    def blocked(p):
        return (divides(c1, p), divides(c2, p))

    flags = [blocked(p) for p in others]
    # move 1: a member divisible by neither factor
    for p, (b1, b2) in zip(others, flags):
        if not b1 and not b2:
            trace.append("direct_pick")
            return ConstructionReport(tuple(trace), "certificate",
                                      _pair_certificate(p1, p, s, trace))
    # a member divisible by both would be a multiple of p1: impossible
    for p, (b1, b2) in zip(others, flags):
        if b1 and b2:
            trace.append("double_divisibility")
            return ConstructionReport(
                tuple(trace), "contradiction",
                detail="a quadruple member is a multiple of the product")
    # move 2: one member divisible by c1, another by c2; their sum is clean
    idx1 = [i for i, (b1, _) in enumerate(flags) if b1]
    idx2 = [i for i, (_, b2) in enumerate(flags) if b2]
    for i in idx1:
        for j in idx2:
            if i == j:
                continue
            q = others[i] + others[j]
            if not divides(c1, q) and not divides(c2, q):
                trace.append("sum_move")
                return ConstructionReport(tuple(trace), "certificate",
                                          _pair_certificate(p1, q, s, trace))
    # move 3: one factor divides all three members; the division analysis
    # always ends in a dependence, so reaching it witnesses a contradiction
    trace.append("division_branch")
    factor = c1 if len(idx1) == 3 else c2
    other_cubic = c2 if factor is c1 else c1
    residues = [exact_divide(p, factor) for p in others]
    detail = _division_contradiction(other_cubic, residues)
    return ConstructionReport(tuple(trace), "contradiction", detail=detail)


def _pair_certificate(p: HomPoly, q: HomPoly, s: PointSet, trace):
    cert = make_certificate(p, q, s.points, "sextic_pair")
    if cert is None:
        raise PreconditionError("constructed pair failed verification")
    return cert


def _division_contradiction(c2: HomPoly, residues) -> str:
    """Analyze the residual cubics after factoring out the dividing cubic;
    names the dependence found (ninth intersection point and pencil
    membership, or the rank drop in the local ring at a double point)."""
    d2, d3, d4 = residues
    if not coprime(c2, d2):
        return "residual cubic shares a component with the second cubic"
    records, residual = bezout_table(c2, d2)
    simple = [rec for rec in records if rec.multiplicity == 1]
    if residual == 0 and len(records) == 9:
        ninth = records[-1].point
        coeffs = pencil_member(c2, d2, d3)
        if coeffs is not None:
            return "ninth_point_pencil: the third member lies on the pencil"
        return ("ninth_point_pencil: ninth intersection rational at "
                f"{ninth.coords} but pencil membership failed")
    doubles = [rec for rec in records if rec.multiplicity >= 2]
    if doubles:
        x = doubles[0].point
        mu3 = intersection_multiplicity(c2, d3, x)
        mu4 = intersection_multiplicity(c2, d4, x)
        return (f"local_ring_dependence: multiplicity 2 at {x.coords}, "
                f"companions have multiplicities {mu3}, {mu4}")
    return "division analysis found a non-rational dependence pattern"


# ---------------------------------------------------------------------------
# Certificates for 12-point sets with m3 = 9, dispatching on m2.


def _hitting_drops(s: PointSet, lines4):
    """3-subsets of labels whose removal kills every 4-point line."""
    n = len(s)
    out = []
    for combo in itertools.combinations(range(1, n + 1), 3):
        if all(any(l in combo for l in line) for line in lines4):
            out.append(combo)
    return out


def _pair_route(s: PointSet, trace) -> ConstructionReport | None:
    """Find two 9-subsets sharing 6 labels whose interpolated cubics are
    irreducible and avoid the dropped points, then run the sextic pair."""
    lines4 = [g for g in four_point_lines(s) if len(g) >= 4]
    drops = _hitting_drops(s, lines4)
    budget = 60
    tried = 0
    cubic_cache: dict[tuple, HomPoly | None] = {}

    def cubic_for(drop):
        if drop not in cubic_cache:
            pts = [s.point(l) for l in range(1, 13) if l not in drop]
            c = _interpolated_cubic(pts)
            if c is not None:
                ok = (all(evaluate(c, s.point(l)) != 0 for l in drop)
                      and cubic_is_irreducible(c))
                c = c if ok else None
            cubic_cache[drop] = c
        return cubic_cache[drop]

    for t1, t2 in itertools.combinations(drops, 2):
        if set(t1) & set(t2):
            continue
        tried += 1
        if tried > budget:
            break
        c1 = cubic_for(t1)
        if c1 is None:
            continue
        c2 = cubic_for(t2)
        if c2 is None:
            continue
        common = tuple(l for l in range(1, 13) if l not in t1 + t2)
        try:
            report = construct_sextic_pair(s, c1, c2, common, t2, t1)
        except PreconditionError:
            continue
        if report.outcome == "certificate":
            cert = report.certificate
            if (int(cert.gamma_u), int(cert.total_weight)) in CERT_SHAPES:
                trace.extend(("pair_route",) + report.branch_trace)
                return ConstructionReport(tuple(trace), "certificate", cert)
    return None


def _division_route(s: PointSet, trace) -> ConstructionReport | None:
    """Product-of-cubics route allowing reducible factors: P1 = c1*c2 in
    the sextic system, P2 an independent member; a shared factor is divided
    out of both, shrinking the certificate shape along the advertised
    ladder (6,18) -> (5,15) -> (4,12) -> (3,9)."""
    lines4 = [g for g in four_point_lines(s) if len(g) >= 4]
    drops = _hitting_drops(s, lines4)
    for t1, t2 in itertools.islice(
            ((a, b) for a, b in itertools.combinations(drops, 2)
             if not set(a) & set(b)), 40):
        ptsA = [s.point(l) for l in range(1, 13) if l not in t1]
        ptsB = [s.point(l) for l in range(1, 13) if l not in t2]
        c1 = _interpolated_cubic(ptsA)
        c2 = _interpolated_cubic(ptsB)
        if c1 is None or c2 is None:
            continue
        if any(evaluate(c1, s.point(l)) == 0 for l in t1):
            continue
        if any(evaluate(c2, s.point(l)) == 0 for l in t2):
            continue
        common = [s.point(l) for l in range(1, 13) if l not in t1 + t2]
        rest = [s.point(l) for l in t1 + t2]
        conds = ([VanishingCondition(x, 2) for x in common]
                 + [VanishingCondition(x, 1) for x in rest])
        system = build_system(6, conds)
        if system.dim < 2:
            continue
        p1 = c1 * c2
        candidates = list(system.kernel_basis)
        candidates += [a + b for a, b in
                       itertools.combinations(system.kernel_basis, 2)]
        for p2 in candidates:
            if not linearly_independent(p1, p2):
                continue
            result = _cascade(p1, p2, s)
            if result is not None:
                cert, steps = result
                trace.extend(["division_route"] + steps)
                return ConstructionReport(tuple(trace), "certificate", cert)
    return None


def _cascade(p1: HomPoly, p2: HomPoly, s: PointSet):
    """Divide out the shared factor of an independent pair and certify the
    quotient pair when it lands on an advertised shape."""
    g = gcd_homogeneous(p1, p2)
    steps = []
    if g.degree >= 1:
        steps.append(f"shared_factor_degree_{g.degree}")
        p1 = exact_divide(p1, g)
        p2 = exact_divide(p2, g)
    if p1.degree < 3:
        return None
    cert = make_certificate(p1, p2, s.points, "division_cascade"
                            if steps else "sextic_pair")
    if cert is None:
        return None
    if (int(cert.gamma_u), int(cert.total_weight)) not in CERT_SHAPES:
        return None
    return cert, steps


def _quartic_route(s: PointSet, ms: MSequence, trace):
    """m2 = 7 with an irreducible conic through 7 points: pair the product
    of the two conics with an independent quartic through all 12 points."""
    labels7, conic7 = ms.witnesses[1]
    if conic7 is None or conic_rank(conic7) != 3:
        return None
    others = [l for l in range(1, 13) if l not in labels7]
    conic5 = None
    sys2 = build_system(2, [VanishingCondition(s.point(l), 1)
                            for l in others])
    for b in sys2.kernel_basis:
        if conic_rank(b) == 3:
            conic5 = b
            break
    if conic5 is None:
        return None
    p1 = conic7 * conic5
    sys4 = build_system(4, [VanishingCondition(x, 1) for x in s.points])
    if sys4.dim < 2:
        return None
    for p2 in list(sys4.kernel_basis) + [
            a + b for a, b in itertools.combinations(sys4.kernel_basis, 2)]:
        if not linearly_independent(p1, p2):
            continue
        cert = make_certificate(p1, p2, s.points, "quartic_two_conics")
        if cert is not None and (int(cert.gamma_u),
                                 int(cert.total_weight)) in CERT_SHAPES:
            trace.append("quartic_two_conics")
            return ConstructionReport(tuple(trace), "certificate", cert)
    return None


def _twelve_point_m_sequence(s: PointSet) -> MSequence:
    if len(s) != 12:
        raise PreconditionError("needs exactly 12 points")
    return m_sequence(s)


def construct_certificate(s: PointSet,
                          extra: ProjPoint | None = None
                          ) -> ConstructionReport:
    """Certificate for a 12-point set, routed on its m-sequence, which is
    computed once: m3 = 9 as in construct_certificate_m3_9, higher m3 as in
    construct_certificate_m3_high (`extra` serves m3 = 11 only)."""
    ms = _twelve_point_m_sequence(s)
    if ms.m3 == 9:
        return _construct_m3_9(s, ms)
    return _construct_m3_high(s, ms, extra)


def construct_certificate_m3_9(s: PointSet) -> ConstructionReport:
    """Verified certificate for a 12-point set with m3 = 9.

    Emits one of the shapes (gamma, weight) in {(6,18), (5,15), (4,12),
    (3,9)}; the route dispatches on m2: pairs of irreducible cubics when
    available, the two-conic quartic product for m2 = 7, and the division
    cascade over products with reducible factors otherwise.
    """
    ms = _twelve_point_m_sequence(s)
    if ms.m3 != 9:
        raise PreconditionError(f"m3 must be 9, got {ms.m3}")
    return _construct_m3_9(s, ms)


def _construct_m3_9(s: PointSet, ms: MSequence) -> ConstructionReport:
    trace = [f"m2_{ms.m2}"]
    if ms.m2 == 7:
        report = _quartic_route(s, ms, trace)
        if report is not None:
            return report
    report = _pair_route(s, trace)
    if report is not None:
        return report
    report = _division_route(s, trace)
    if report is not None:
        return report
    return ConstructionReport(
        tuple(trace), "unsupported",
        detail="no route produced a certificate within the search budget")


# ---------------------------------------------------------------------------
# Certificates for m3 in {10, 11}.


def _line_points(s: PointSet, line: HomPoly):
    return [l for l in range(1, 13) if evaluate(line, s.point(l)) == 0]


def _independent_quartic(p1: HomPoly, conditions):
    sys4 = build_system(4, conditions)
    cands = list(sys4.kernel_basis) + [
        a + b for a, b in itertools.combinations(sys4.kernel_basis, 2)]
    for p2 in cands:
        if linearly_independent(p1, p2) and coprime(p1, p2):
            return p2
    return None


def _case_m3_10(s: PointSet, ms: MSequence, trace):
    if ms.m2 == 6:
        lines4 = [g for g in four_point_lines(s) if len(g) == 4]
        if len(lines4) != 1:
            return ConstructionReport(
                tuple(trace), "unsupported",
                detail="expected a unique 4-point line")
        return _case2_pairs(s, lines4[0], trace)
    if ms.m2 == 7:
        report = _case3_conics(s, ms, list(trace))
        if report.outcome == "certificate":
            return report
        # no irreducible 7-point conic: the 4-point-line configurations
        # fall back to the cubic pair route over hitting-set drops
        fallback = _pair_route(s, trace)
        if fallback is not None:
            return fallback
        return report
    return ConstructionReport(tuple(trace), "unsupported",
                              detail="m3=10 requires m2 in {6, 7}")


def _case2_pairs(s: PointSet, line_labels, trace):
    """m3 = 10, m2 = 6: pair cubics that split the 4-point line two labels
    each and share the remaining points."""
    a, b, c, d = line_labels
    rest = [l for l in range(1, 13) if l not in line_labels]
    for drop1, drop2 in itertools.combinations(rest, 2):
        shared_six = [l for l in rest if l not in (drop1, drop2)]
        labelsA = (a, b, drop2) + tuple(shared_six)
        labelsB = (c, d, drop1) + tuple(shared_six)
        ptsA = [s.point(l) for l in labelsA]
        ptsB = [s.point(l) for l in labelsB]
        c1 = _interpolated_cubic(ptsA)
        c2 = _interpolated_cubic(ptsB)
        if c1 is None or c2 is None:
            continue
        common = tuple(l for l in labelsA if l in labelsB)
        only1 = tuple(l for l in labelsA if l not in labelsB)
        only2 = tuple(l for l in labelsB if l not in labelsA)
        if len(common) != 6:
            continue
        try:
            report = construct_sextic_pair(s, c1, c2, common, only1, only2)
        except PreconditionError:
            continue
        if report.outcome == "certificate":
            cert = report.certificate
            if cert.total_weight / cert.gamma_u >= 3:
                trace.extend(("line_split_pairs",) + report.branch_trace)
                return ConstructionReport(tuple(trace), "certificate", cert)
    return ConstructionReport(tuple(trace), "unsupported",
                              detail="no cubic pair route at m3=10, m2=6")


def _case3_conics(s: PointSet, ms: MSequence, trace):
    """m3 = 10, m2 = 7: quartic routes through an irreducible 7-point
    conic; property-test sub-branches are reported unsupported."""
    labels7, conic7 = ms.witnesses[1]
    if conic7 is None or conic_rank(conic7) != 3:
        return ConstructionReport(
            tuple(trace), "unsupported",
            detail="no irreducible conic through 7 points")
    others = [l for l in range(1, 13) if l not in labels7]
    sys2 = build_system(2, [VanishingCondition(s.point(l), 1)
                            for l in others])
    for b in sys2.kernel_basis:
        if conic_rank(b) == 3:
            p1 = conic7 * b
            p2 = _independent_quartic(
                p1, [VanishingCondition(x, 1) for x in s.points])
            if p2 is not None:
                cert = make_certificate(p1, p2, s.points,
                                        "quartic_two_conics")
                if cert is not None and cert.total_weight == 12:
                    trace.append("quartic_two_conics")
                    return ConstructionReport(tuple(trace), "certificate",
                                              cert)
    # reducible second conic: drop one of the five remaining labels so that
    # no three of the kept four are collinear, then pair the 7-point conic
    # with per-point conics through those four and one conic point, with a
    # doubled vanishing order at that conic point
    for drop in reversed(others):
        four = [l for l in others if l != drop]
        if any(int_rank([list(s.point(l).coords) for l in triple]) < 3
               for triple in itertools.combinations(four, 3)):
            continue
        for i in labels7:
            five = [s.point(l) for l in four] + [s.point(i)]
            sysi = build_system(2, [VanishingCondition(x, 1) for x in five])
            conic_i = next((c for c in sysi.kernel_basis
                            if conic_rank(c) == 3), None)
            if conic_i is None:
                continue
            p1 = conic7 * conic_i
            conds = ([VanishingCondition(s.point(l), 1)
                      for l in range(1, 13) if l != drop and l != i]
                     + [VanishingCondition(s.point(i), 2)])
            p2 = _independent_quartic(p1, conds)
            if p2 is None:
                continue
            pts = [s.point(l) for l in range(1, 13) if l != drop]
            cert = make_certificate(p1, p2, pts, "quartic_conic_double_point")
            if cert is not None and cert.total_weight == 12:
                trace.append("quartic_conic_double_point")
                return ConstructionReport(tuple(trace), "certificate", cert)
    return ConstructionReport(
        tuple(trace), "unsupported",
        detail="line-pair property sub-branches are not decided here")


def _case_m3_11(s: PointSet, ms: MSequence, extra, trace):
    labels11, gamma = ms.witnesses[2]
    if gamma is None:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="missing degree-3 witness")
    if cubic_is_irreducible(gamma):
        trace.append("irreducible_cubic_overload")
        return ConstructionReport(
            tuple(trace), "unsupported",
            detail="an irreducible cubic through more than 9 points is "
                   "outside this toolkit's certified range")
    lines, _ = find_line_components(gamma)
    if not lines:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="reducible cubic with no rational "
                                         "line factor")
    line = lines[0]
    conic = exact_divide(gamma, line)
    if conic.degree != 2 or conic_rank(conic) != 3:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="cubic does not split as an "
                                         "irreducible conic and a line")
    on_line = _line_points(s, line)
    on_conic = [l for l in range(1, 13)
                if evaluate(conic, s.point(l)) == 0]
    off = [l for l in range(1, 13) if l not in set(on_line) | set(on_conic)]
    if len(off) != 1:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="expected exactly one point off "
                                         "the witness cubic")
    x12 = s.point(off[0])
    if extra is None:
        raise PreconditionError("m3=11 requires an extra point off the "
                                "witness cubic")
    if (evaluate(gamma, extra) == 0 or extra.coords == x12.coords
            or any(extra.coords == x.coords for x in s.points)):
        raise PreconditionError("extra point must avoid the witness cubic "
                                "and the point set")
    # line through the extra point and the off-cubic point
    u, v = extra.coords, x12.coords
    l_p12 = HomPoly.line(u[1] * v[2] - u[2] * v[1],
                         u[2] * v[0] - u[0] * v[2],
                         u[0] * v[1] - u[1] * v[0])
    p1 = conic * line * l_p12
    hits_line = [l for l in on_line
                 if evaluate(l_p12, s.point(l)) == 0]
    hits_conic = [l for l in on_conic
                  if evaluate(l_p12, s.point(l)) == 0]
    if not hits_line or not hits_conic:
        # the through-line misses S on the line or on the conic: all 13
        # points of S plus the extra point carry weight 1
        branch = ("line_product_disjoint" if not hits_line
                  else "line_product_line_hit")
        conds = [VanishingCondition(x, 1) for x in s.points]
        conds.append(VanishingCondition(extra, 1))
        p2 = _independent_quartic(p1, conds)
        if p2 is None:
            return ConstructionReport(tuple(trace), "unsupported",
                                      detail="no independent quartic")
        cert = make_certificate(p1, p2, list(s.points) + [extra],
                                "line_product_weight13")
        if cert is None or cert.total_weight != 13:
            return ConstructionReport(tuple(trace), "unsupported",
                                      detail="weight-13 verification failed")
        trace.append(branch)
        return ConstructionReport(tuple(trace), "certificate", cert)
    # the through-line meets S both on the line and on the conic
    xc = s.point(hits_conic[0])
    xl = s.point(hits_line[0])
    drop = {hits_line[0]}
    others_on_line = [l for l in on_line if l not in drop
                      and l != hits_line[0]]
    if others_on_line:
        drop.add(others_on_line[-1])
    keep = [l for l in range(1, 13) if l not in drop]
    conds = [VanishingCondition(s.point(l), 2 if s.point(l).coords ==
             xc.coords else 1) for l in keep]
    conds.append(VanishingCondition(extra, 1))
    p2 = _independent_quartic(p1, conds)
    if p2 is None:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="no independent quartic for the "
                                         "double-hit branch")
    pts = [s.point(l) for l in keep] + [extra]
    cert = make_certificate(p1, p2, pts, "line_product_excluded_points")
    if cert is None or cert.total_weight / cert.gamma_u < 3:
        return ConstructionReport(tuple(trace), "unsupported",
                                  detail="double-hit verification failed")
    trace.append("line_product_excluded_points")
    return ConstructionReport(tuple(trace), "certificate", cert)


def construct_certificate_m3_high(s: PointSet,
                                  extra: ProjPoint | None = None
                                  ) -> ConstructionReport:
    """Certificates for 12-point sets with m3 in {10, 11}.

    For m3 = 11 the pipeline needs an extra point off the witness cubic and
    distinct from the point set; the three sub-branches on the line through
    that point are taken in order and the certificate carries total weight
    13 with gamma 4 (or the excluded-point variant with ratio >= 3).
    """
    return _construct_m3_high(s, _twelve_point_m_sequence(s), extra)


def _construct_m3_high(s: PointSet, ms: MSequence,
                       extra: ProjPoint | None) -> ConstructionReport:
    if ms.m1 > 4 or ms.m2 > 7:
        raise PreconditionError("m1 <= 4 and m2 <= 7 are required")
    if ms.m3 not in (10, 11):
        raise PreconditionError(f"m3 must be 10 or 11, got {ms.m3}")
    trace = [f"m3_{ms.m3}", f"m2_{ms.m2}"]
    if ms.m3 == 10:
        return _case_m3_10(s, ms, trace)
    return _case_m3_11(s, ms, extra, trace)
