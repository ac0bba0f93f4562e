"""Lelong numbers of line-arrangement currents and potential estimators.

Oracles: exact incidence sums on hand-built arrangements, a closed-form
ball-mass value for a single line through the center, numerical slopes
cross-checked against the exact weights they must approximate (and against
weights off by 1/r, which they must miss), the radius scale against a
Fraction evaluation of its bound, sample maxima bit-identical to a plain
term-by-term evaluation, and the exact mass inequality with every term
recomputed independently. The float scaling and the sharpness example are
checked against the `Fraction` division and the 105-subset rank scan kept
in `expr_reference`.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lelongplane import config, construct, currents, linalg, linsys
from lelongplane.config import PointSet, m_sequence
from lelongplane.construct import (construct_certificate,
                                   construct_certificate_m3_9,
                                   make_certificate)
from lelongplane.currents import (ArrangementCurrent, _directions,
                                  _evaluator, _local_forms, _pole_scale,
                                  _scaled_floats, estimate_growth,
                                  estimate_pole_weight, lelong_ball_mass,
                                  lelong_exact, mass_inequality_check,
                                  sharpness_example)
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import HomPoly, ProjPoint, evaluate
from lelongplane.instances import (INSTANCE_KINDS, case2_instance,
                                   conic_instance, generate, generic12)

from expr_reference import (reference_rank_checks,
                            reference_scaled_floats,
                            reference_sharpness_example)

ORIGIN = ProjPoint(Fraction(0), Fraction(0), Fraction(1))


def unit_current(lines):
    n = len(lines)
    return ArrangementCurrent(tuple((l, Fraction(1, n)) for l in lines))


def test_mass_and_validation():
    t = unit_current([HomPoly.line(1, 0, 0), HomPoly.line(0, 1, 0)])
    assert t.mass == 1
    with pytest.raises(PreconditionError):
        ArrangementCurrent(((HomPoly.line(1, 0, 0), Fraction(0)),))
    with pytest.raises(PreconditionError):
        ArrangementCurrent(((HomPoly.monomial((2, 0, 0)), Fraction(1)),))


def test_lelong_exact_incidence_sums():
    lines = [HomPoly.line(1, 0, 0), HomPoly.line(0, 1, 0),
             HomPoly.line(1, 1, -1)]
    t = unit_current(lines)
    # all three lines pass through the origin of the Z chart? X=0 and Y=0
    # do; X+Y-Z misses it
    assert lelong_exact(t, ORIGIN) == Fraction(2, 3)
    # a point on exactly one line
    on_one = ProjPoint(Fraction(2), Fraction(0), Fraction(1))
    assert lelong_exact(t, on_one) == Fraction(1, 3)
    off = ProjPoint(Fraction(5), Fraction(7), Fraction(1))
    assert lelong_exact(t, off) == 0


def test_ball_mass_single_line():
    # one line through the center: the full weight sits inside every ball
    t = ArrangementCurrent(((HomPoly.line(0, 1, 0), Fraction(1)),))
    assert lelong_ball_mass(t, ORIGIN, Fraction(1, 2)) == 1
    # a line at distance 1 contributes nothing to a radius-1/2 ball
    far = ArrangementCurrent(((HomPoly.line(0, 1, -1), Fraction(1)),))
    assert lelong_ball_mass(far, ORIGIN, Fraction(1, 2)) == 0


def test_ball_mass_monotone_and_bounded():
    lines = [HomPoly.line(1, 0, 0), HomPoly.line(0, 1, -1),
             HomPoly.line(1, -1, 3)]
    t = unit_current(lines)
    radii = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)]
    vals = [lelong_ball_mass(t, ORIGIN, r) for r in radii]
    assert all(0 <= v <= t.mass for v in vals)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # ball mass dominates the exact Lelong number at the center
    assert vals[0] >= lelong_exact(t, ORIGIN)


def test_ball_mass_rejects_line_at_infinity():
    t = ArrangementCurrent(((HomPoly.line(0, 0, 1), Fraction(1)),))
    with pytest.raises(PreconditionError):
        lelong_ball_mass(t, ORIGIN, Fraction(1))


def test_pole_weight_estimate_matches_exact():
    inst = conic_instance(1, 7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    radii = [2.0 ** -k for k in range(8, 17)]
    for x, w in cert.points[:3]:
        est = estimate_pole_weight(cert, x, radii)
        assert est.exact == w
        assert abs(est.extrapolated - float(w)) < 0.05


def scaled_radii(cert, x):
    """The radii `lelong` samples around x."""
    rho = _pole_scale(_local_forms(cert.p, cert.q, x))
    return [rho * 2.0 ** -k for k in range(4, 13)]


def reference_pole_scale(p, q, x):
    """rho* in Fraction arithmetic: min over the terms c of degree d > m of
    (A / |c|) ** (1 / (d - m)), A the largest |coefficient| of degree m."""
    terms = [(i + j, abs(c)) for f in (p, q)
             for (i, j), c in f.local_expansion(x)[1].items()]
    m = min(d for d, _ in terms)
    cone = max(c for d, c in terms if d == m)
    return min((float(cone / c) ** (1 / (d - m)) for d, c in terms if d > m),
               default=1.0)


def test_pole_scale_matches_fraction_reference():
    z = ProjPoint(0, 0, 1)
    # x^2 + 4x^3 and y^2 + y^3/9 at the origin: m = 2, A = 1, and the
    # cubic terms give 1/4 and 9
    p = HomPoly(3, {(2, 0, 1): Fraction(1), (3, 0, 0): Fraction(4)})
    q = HomPoly(3, {(0, 2, 1): Fraction(1), (0, 3, 0): Fraction(1, 9)})
    assert math.isclose(_pole_scale(_local_forms(p, q, z)), 0.25,
                        rel_tol=1e-12)
    # only cone terms: no higher term bounds the scale
    assert _pole_scale(_local_forms(HomPoly.line(1, 0, 0),
                                    HomPoly.line(0, 1, 0), z)) == 1.0
    # a cubic and a conic with mixed-degree terms, at points in all three
    # charts and with fractional coordinates
    p = HomPoly(3, {(3, 0, 0): Fraction(5), (1, 2, 0): Fraction(-11, 3),
                    (0, 1, 2): Fraction(2), (1, 1, 1): Fraction(7, 13)})
    q = HomPoly(2, {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(-7, 2),
                    (0, 0, 2): Fraction(3, 5)})
    for x in (z, ProjPoint(3, -2, 7), ProjPoint(9, 1, -2),
              ProjPoint(Fraction(1, 3), 5, Fraction(-2, 9))):
        assert math.isclose(_pole_scale(_local_forms(p, q, x)),
                            reference_pole_scale(p, q, x), rel_tol=1e-12)


def test_pole_scale_takes_logs_of_coefficients_beyond_float_range():
    inst = case2_instance(5)
    cert = construct_certificate(inst.point_set, extra=inst.extra)\
        .certificate
    x = cert.points[0][0]
    local = cert.q.local_expansion(x)[1]
    with pytest.raises(OverflowError):
        [float(c) for c in local.values()]
    for x, _ in cert.points:
        rho = _pole_scale(_local_forms(cert.p, cert.q, x))
        assert 0 < rho < math.inf


def fraction_pole_scale(fp, fq):
    """rho* from Fraction coefficients, in logs of the numerator and
    denominator of each, capped at 2^16."""
    terms = [(i + j, math.log(abs(c.numerator)) - math.log(c.denominator))
             for f in (fp, fq) for (i, j), c in f.items()]
    m = min(d for d, _ in terms)
    cone = max(lc for d, lc in terms if d == m)
    log_rho = min(((cone - lc) / (d - m) for d, lc in terms if d > m),
                  default=0.0)
    return math.exp(min(log_rho, 16 * math.log(2)))


def fractions_of(jet):
    den, f = jet
    return {k: Fraction(n, den) for k, n in f.items()}


def test_pole_scale_takes_logs_of_the_reduced_pairs():
    """Jets whose terms share factors with den give the float of the
    Fraction path bit for bit; logs of the unreduced integers would move
    the last bits here."""
    cone, high = Fraction(326580, 133927), Fraction(777821, 375952)
    den = cone.denominator * high.denominator * 833822
    jets = ((den, {(1, 0): int(cone * den), (2, 1): int(high * den)}),
            (den * 7, {(0, 1): int(-cone * den), (0, 3): int(high * den)}))
    assert _pole_scale(jets) == fraction_pole_scale(*map(fractions_of, jets))
    for kind in ("generic12", "case2", "conic7"):
        for cert in kind_certificates(kind):
            for x, _ in cert.points:
                jets = currents._local_forms(cert.p, cert.q, x)
                assert _pole_scale(jets) == fraction_pole_scale(
                    cert.p.local_expansion(x)[1],
                    cert.q.local_expansion(x)[1])


def test_pole_estimate_misses_a_weight_off_by_one_over_r():
    cert = sample_certificate("conic7")
    for n, (x, w) in enumerate(cert.points):
        radii = scaled_radii(cert, x)
        assert abs(estimate_pole_weight(cert, x, radii).extrapolated
                   - float(w)) < 0.05
        for shift in (Fraction(1, cert.r), -Fraction(1, cert.r)):
            points = list(cert.points)
            points[n] = (x, w + shift)
            edited = cert.replace(points=tuple(points), verified=True)
            est = estimate_pole_weight(edited, x, radii)
            assert est.exact == w + shift
            assert abs(est.extrapolated - float(est.exact)) > 0.05


def reference_maxima(cert, fp, fq, radii, seed):
    """The estimators' sample maxima, evaluating every term as
    c * du ** i * dv ** j in sorted order at every sample."""
    scale = max(abs(c) for c in itertools.chain(fp.values(), fq.values()))
    fp = {k: float(c / scale) for k, c in fp.items()}
    fq = {k: float(c / scale) for k, c in fq.items()}

    def value(f, du, dv):
        return sum(c * du ** i * dv ** j for (i, j), c in sorted(f.items()))

    values = []
    for r in radii:
        best = -math.inf
        for v0, v1 in _directions(seed):
            du, dv = r * v0, r * v1
            m2 = abs(value(fp, du, dv)) ** 2 + abs(value(fq, du, dv)) ** 2
            if m2 > 0:
                best = max(best, math.log(m2) / (2 * cert.r))
        values.append(best)
    return tuple(values)


def at_z_one(f):
    """The form at Z = 1 as Fractions, keyed by the exponents of X and Y."""
    return {(i, j): c for (i, j, _), c in f.terms.items()}


def engineered_certificate():
    """X^2 and YZ: each local form at the two listed points has one term."""
    return make_certificate(HomPoly.monomial((2, 0, 0)),
                            HomPoly.monomial((0, 1, 1)),
                            [ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)],
                            "engineered")


def sample_certificate(build):
    if build == "conic7":
        return construct_certificate_m3_9(conic_instance(1, 7).point_set)\
            .certificate
    return engineered_certificate()


@pytest.mark.parametrize("build", ["conic7", "engineered"])
def test_estimators_match_reference_evaluation(build):
    cert = sample_certificate(build)
    pole_radii = [2.0 ** -k for k in range(16, 7, -1)]
    for x, _ in cert.points:
        if build == "engineered":
            assert len(cert.p.local_expansion(x)[1]) == 1
            assert len(cert.q.local_expansion(x)[1]) == 1
        for seed in (0, 3):
            for radii in (pole_radii, scaled_radii(cert, x)):
                est = estimate_pole_weight(cert, x, radii, seed=seed)
                assert est.values == reference_maxima(
                    cert, cert.p.local_expansion(x)[1],
                    cert.q.local_expansion(x)[1], est.radii, seed)
    growth_radii = [2.0 ** k for k in range(8, 17)]
    for seed in (0, 3):
        est = estimate_growth(cert, growth_radii, seed=seed)
        assert est.max_values == reference_maxima(
            cert, at_z_one(cert.p), at_z_one(cert.q), est.radii, seed)


@pytest.mark.parametrize("build", ["conic7", "engineered"])
def test_form_values_match_term_by_term_sum(build):
    # the sample maxima pass through a log, which hides a last-bit change
    # of a sum; compare the sums themselves
    cert = sample_certificate(build)
    for x, _ in cert.points:
        forms = _scaled_floats(*currents._local_forms(cert.p, cert.q, x))
        for f in forms:
            value = _evaluator(f)
            for r in (2.0 ** -8, 2.0 ** -13):
                for v0, v1 in _directions(0):
                    du, dv = r * v0, r * v1
                    pu = [du ** i for i in range(7)]
                    pv = [dv ** j for j in range(7)]
                    assert value(pu, pv) == sum(
                        c * du ** i * dv ** j
                        for (i, j), c in sorted(f.items()))


def test_pole_weight_input_validation():
    inst = conic_instance(1, 7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    stranger = ProjPoint(Fraction(1000003), Fraction(17), Fraction(1))
    with pytest.raises(PreconditionError):
        estimate_pole_weight(cert, stranger, [0.1, 0.01, 0.001])
    x = cert.points[0][0]
    with pytest.raises(PreconditionError):
        estimate_pole_weight(cert, x, [0.1, 0.01])


def test_growth_estimate():
    inst = conic_instance(1, 7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    radii = [2.0 ** k for k in range(6, 13)]
    est = estimate_growth(cert, radii)
    assert est.claimed == cert.gamma_u
    assert abs(est.slope - float(cert.gamma_u)) < 0.1


def test_mass_inequality_exact():
    inst = generic12(7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    pts = [x for x, _ in cert.points[:3]]
    lines = [HomPoly.line(1, 0, -pts[0].coords[0]),
             HomPoly.line(0, 1, -pts[1].coords[1]),
             HomPoly.line(1, 1, -(pts[2].coords[0] + pts[2].coords[1]))]
    t = unit_current(lines)
    for line, p in zip(lines, pts):
        assert evaluate(line, p) == 0
    report = mass_inequality_check(t, cert)
    assert report.holds
    assert report.rhs == cert.gamma_u
    # the left side is the exact weighted sum of Lelong numbers
    assert report.lhs == sum(w * lelong_exact(t, x) for x, w in cert.points)
    assert report.lhs <= report.rhs


def test_mass_inequality_requires_unit_mass():
    inst = generic12(7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    heavy = ArrangementCurrent(((HomPoly.line(1, 0, 0), Fraction(2)),))
    with pytest.raises(PreconditionError):
        mass_inequality_check(heavy, cert)


def test_sharpness_example():
    report = sharpness_example(0)
    assert len(report.lines) == 6
    assert len(report.points) == 15
    assert report.all_values_one_third
    assert set(report.lelong_values) == {Fraction(1, 3)}
    assert report.rank_checks == 105
    assert report.all_ranks_full
    assert report.m_seq[2] == 12


def kind_certificates(kind):
    """The certificates `construct` gives for the kind at seeds 0-3."""
    certs = []
    for seed in range(4):
        inst = generate(kind, seed)
        try:
            report = construct_certificate(inst.point_set, extra=inst.extra)
        except PreconditionError:
            continue
        if report.outcome == "certificate":
            certs.append(report.certificate)
    return certs


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_scaled_floats_match_fraction_division(kind):
    certs = kind_certificates(kind)
    # the 15 points of example6lines carry no certificate
    assert certs or kind == "example6lines"
    for cert in certs:
        jets = [(as_jet(at_z_one(cert.p)), as_jet(at_z_one(cert.q)))]
        jets += [currents._local_forms(cert.p, cert.q, x)
                 for x, _ in cert.points]
        for jp, jq in jets:
            assert _scaled_floats(jp, jq) == reference_scaled_floats(
                fractions_of(jp), fractions_of(jq))


def as_jet(f, extra=1):
    """The Fraction dict f as a jet (den, integer terms), den the lcm of
    its denominators times extra."""
    den = math.lcm(*(c.denominator for c in f.values())) * extra
    return den, {k: int(c * den) for k, c in f.items()}


def test_scaled_floats_match_fraction_division_beyond_float_range():
    # a 2000-bit scale, quotients that round to subnormals and to zero, and
    # negative coefficients
    big = Fraction(3 ** 1300, 7)
    fp = {(0, 0): big, (1, 0): Fraction(-1, 3), (0, 1): Fraction(5, 2 ** 40)}
    fq = {(2, 0): -big / 11, (1, 1): big / (2 ** 1050 + 1),
          (0, 2): Fraction(-1, 2 ** 100)}
    want = reference_scaled_floats(fp, fq)
    for extra_p, extra_q in ((1, 1), (6, 35)):
        got = _scaled_floats(as_jet(fp, extra_p), as_jet(fq, extra_q))
        assert got == want
        assert got[0][(0, 0)] == 1.0
        assert 0 < got[1][(1, 1)] < 2.0 ** -1022  # subnormal
        assert got[0][(1, 0)] == 0.0
        assert math.copysign(1, got[0][(1, 0)]) == -1
    for sign in (1, -1):
        tiny = {(0, 0): Fraction(sign, 2 ** 1070 * 3)}
        one = {(0, 0): Fraction(1)}
        assert _scaled_floats(as_jet(one), as_jet(tiny)) == \
            reference_scaled_floats(one, tiny)


@pytest.mark.parametrize("seed", range(8))
def test_sharpness_example_matches_rank_scan(seed):
    assert sharpness_example(seed) == reference_sharpness_example(seed)


def lines_and_off_points(on_lines):
    """15 points: `on_lines` of them on X = 0, Y = 0 and X + Y = Z in
    turn, away from the lines' meets, and seeded points off the lines."""
    on = (lambda t: (0, t), lambda t: (t, 0), lambda t: (t, 1 - t))
    pts = [ProjPoint(*on[i % 3](Fraction(2 + i // 3)), 1)
           for i in range(on_lines)]
    rng = random.Random(on_lines)
    while len(pts) < 15:
        x, y = (Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                for _ in range(2))
        if x != 0 and y != 0 and x + y != 1 and \
                all(p.coords != (x, y, 1) for p in pts):
            pts.append(ProjPoint(x, y, 1))
    return pts


def test_m3_below_13_is_the_105_subset_verdict(monkeypatch):
    """13 or more points on a cubic (the three lines) give m3 >= 13 and a
    rank-deficient 13-subset; 12 or fewer give neither. `sharpness_example`
    given the witness labels of such a set reads the same verdict off
    them."""
    seen = []
    for on_lines in range(11, 16):
        pts = lines_and_off_points(on_lines)
        ms = m_sequence(PointSet(tuple(pts)))
        checks, full = reference_rank_checks(pts)
        assert checks == 105
        assert (ms.m3 < 13) == full
        labels = tuple(w[0] for w in ms.witnesses)
        monkeypatch.setattr(currents, "_witness_labels", lambda s: labels)
        assert sharpness_example(0).all_ranks_full == full
        seen.append((ms.m3, full))
    assert seen == [(11, True), (12, True), (13, False), (14, False),
                    (15, False)]


def test_sharpness_example_makes_no_rank_call(monkeypatch):
    calls = []
    real = linalg.int_rank

    def spy(rows):
        calls.append(len(rows))
        return real(rows)
    # every module that binds int_rank, and currents in case it does again
    for module in (linalg, config, construct, linsys, currents):
        monkeypatch.setattr(module, "int_rank", spy, raising=False)
    report = sharpness_example(0)
    assert calls == []
    assert (report.rank_checks, report.all_ranks_full) == (105, True)
