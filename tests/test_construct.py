"""Certificate construction pipelines and independent verification.

Oracles: every emitted certificate is re-verified from scratch through the
vanishing-order and coprimality path, the (gamma, weight) shapes are frozen,
and tampered certificates must be rejected.
"""

import itertools
from fractions import Fraction

import pytest
import sympy

from lelongplane import construct, curves, exactpoly
from lelongplane.config import PointSet, curves_through, m_sequence
from lelongplane.construct import (CERT_SHAPES, PotentialCertificate,
                                   construct_certificate,
                                   construct_certificate_m3_9,
                                   construct_certificate_m3_high,
                                   construct_sextic_pair, make_certificate,
                                   verify_certificate)
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import (HomPoly, ProjPoint, divides, evaluate,
                                   gcd_homogeneous, join, meet,
                                   vanishing_order)
from lelongplane.instances import (INSTANCE_KINDS, case2_instance,
                                   case3_instance, case4_instance,
                                   conic_instance, figure_instance,
                                   generate, generic12)


def check_shape(cert, expect_ratio=Fraction(3)):
    assert cert.verified
    shape = (int(cert.gamma_u), int(cert.total_weight))
    assert shape in CERT_SHAPES
    assert cert.total_weight / cert.gamma_u == expect_ratio
    assert gcd_homogeneous(cert.p, cert.q).degree == 0


def test_generic12_sextic_pair_certificate():
    inst = generic12(7)
    report = construct_certificate_m3_9(inst.point_set)
    assert report.outcome == "certificate"
    cert = report.certificate
    check_shape(cert)
    assert (int(cert.gamma_u), int(cert.total_weight)) == (6, 18)
    # all 12 points carry weight 2 (double points scaled by r)
    assert len(cert.points) == 12
    assert {w for _, w in cert.points} <= {Fraction(1, 1), Fraction(2, 1),
                                           Fraction(3, 1)}
    assert sum(w for _, w in cert.points) == 18
    # the independent verifier agrees
    assert verify_certificate(cert).verified


def test_conic6_certificate():
    inst = conic_instance(3, 6)
    assert inst.m_seq == (2, 6, 9)
    report = construct_certificate_m3_9(inst.point_set)
    assert report.outcome == "certificate"
    check_shape(report.certificate)


def test_conic7_quartic_certificate():
    inst = conic_instance(1, 7)
    assert inst.m_seq == (2, 7, 9)
    report = construct_certificate_m3_9(inst.point_set)
    assert report.outcome == "certificate"
    cert = report.certificate
    check_shape(cert)
    assert (int(cert.gamma_u), int(cert.total_weight)) == (4, 12)
    assert any("quartic" in step for step in report.branch_trace)


def test_figure_shape_certificate():
    inst = figure_instance("figure1", 2)
    assert inst.m_seq == (4, 7, 9)
    report = construct_certificate_m3_9(inst.point_set)
    assert report.outcome == "certificate"
    check_shape(report.certificate)


def test_m3_9_rejects_higher_m3():
    inst = case2_instance(5)
    with pytest.raises(PreconditionError):
        construct_certificate_m3_9(inst.point_set)


def test_case2_certificate():
    inst = case2_instance(5)
    assert inst.m_seq[2] == 10 and inst.m_seq[0] == 4
    report = construct_certificate_m3_high(inst.point_set)
    assert report.outcome == "certificate"
    check_shape(report.certificate)
    assert report.branch_trace[0] == "m3_10"


def test_case3_certificate():
    inst = case3_instance(4)
    assert inst.m_seq == (3, 7, 10)
    report = construct_certificate_m3_high(inst.point_set)
    assert report.outcome == "certificate"
    cert = report.certificate
    check_shape(cert)
    assert (int(cert.gamma_u), int(cert.total_weight)) == (4, 12)


def test_case4_certificate_weight13():
    inst = case4_instance(6)
    assert inst.m_seq == (4, 7, 11)
    report = construct_certificate_m3_high(inst.point_set, extra=inst.extra)
    assert report.outcome == "certificate"
    cert = report.certificate
    assert cert.verified
    assert cert.gamma_u == 4 and cert.total_weight == 13
    assert cert.total_weight / cert.gamma_u > 3
    assert verify_certificate(cert).verified


def test_m3_high_input_validation():
    inst = generic12(7)
    with pytest.raises(PreconditionError):
        construct_certificate_m3_high(inst.point_set)


def test_tampered_certificate_rejected():
    inst = conic_instance(1, 7)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    # inflate one claimed weight
    pts = list(cert.points)
    x, w = pts[0]
    pts[0] = (x, w + 1)
    bad = PotentialCertificate(p=cert.p, q=cert.q, r=cert.r,
                               points=tuple(pts), gamma_u=cert.gamma_u,
                               case_tag=cert.case_tag, verified=True)
    assert not verify_certificate(bad).verified
    # break coprimality: q := p
    shared = PotentialCertificate(p=cert.p, q=cert.p, r=cert.r,
                                  points=cert.points, gamma_u=cert.gamma_u,
                                  case_tag=cert.case_tag, verified=True)
    rep = verify_certificate(shared)
    assert not rep.discrete and not rep.verified
    # wrong gamma
    off = PotentialCertificate(p=cert.p, q=cert.q, r=cert.r,
                               points=cert.points,
                               gamma_u=cert.gamma_u + 1,
                               case_tag=cert.case_tag, verified=True)
    assert not verify_certificate(off).verified


def test_make_certificate_rejects_shared_component():
    l = HomPoly.line(1, 2, 3)
    p = l * HomPoly.line(1, 0, 0)
    q = l * HomPoly.line(0, 1, 0)
    assert make_certificate(p, q, [], "engineered") is None
    with pytest.raises(PreconditionError):
        make_certificate(HomPoly.line(1, 0, 0), p, [], "engineered")


def test_make_certificate_engineered_pair():
    # X^2 and YZ meet exactly at (0:1:0) and (0:0:1), each with min order 1
    p = HomPoly.monomial((2, 0, 0))
    q = HomPoly.monomial((0, 1, 1))
    pts = [ProjPoint(Fraction(0), Fraction(1), Fraction(0)),
           ProjPoint(Fraction(0), Fraction(0), Fraction(1))]
    cert = make_certificate(p, q, pts, "engineered")
    assert cert is not None and cert.verified
    assert cert.total_weight == 2
    assert all(w == 1 for _, w in cert.points)


def test_make_certificate_lists_no_point_of_a_zero_pair():
    # both orders are infinite at every point: nothing is listed, and the
    # verifier rejects the pair as not coprime
    x = ProjPoint(0, 0, 1)
    assert make_certificate(HomPoly.zero(3), HomPoly.zero(3), [x], "z") is None
    assert make_certificate(HomPoly.zero(0), HomPoly.zero(0), [x], "z") is None
    assert make_certificate(HomPoly.zero(2), HomPoly.monomial((2, 0, 0)),
                            [x], "z") is None


def test_sextic_pair_weights_match_orders():
    inst = generic12(19)
    report = construct_certificate_m3_9(inst.point_set)
    cert = report.certificate
    for x, w in cert.points:
        assert w == Fraction(min(vanishing_order(cert.p, x),
                                 vanishing_order(cert.q, x)), cert.r)
        assert evaluate(cert.p, x) == 0 and evaluate(cert.q, x) == 0


def test_determinism():
    a = construct_certificate_m3_9(generic12(7).point_set)
    b = construct_certificate_m3_9(generic12(7).point_set)
    assert a.certificate.p == b.certificate.p
    assert a.certificate.q == b.certificate.q
    assert a.branch_trace == b.branch_trace


def test_verifier_runs_without_sympy_gcd_or_div(monkeypatch):
    certs = []
    for kind in ("generic12", "figure3", "conic7", "case3", "case4"):
        inst = generate(kind, 0)
        report = construct_certificate(inst.point_set, extra=inst.extra)
        assert report.outcome == "certificate", kind
        certs.append(report.certificate)

    def forbidden(*args, **kwargs):
        raise AssertionError("sympy gcd or division on the verifier path")

    for module in (curves, exactpoly):
        monkeypatch.setattr(module, "gcd_homogeneous", forbidden)
    monkeypatch.setattr(sympy, "gcd", forbidden)
    monkeypatch.setattr(sympy, "div", forbidden)
    for cert in certs:
        report = verify_certificate(cert)
        assert report.discrete and report.verified


# The m3 = 11 branches split on where the join of the extra point and the
# off-cubic point meets S. case4 instances label the conic points 1-7, the
# line points 8-11 and the off-cubic point 12; their own extra point misses
# S, so the other branches are reached by moving the extra point (and x12).


def _vector_sum(u: ProjPoint, v: ProjPoint, t: Fraction) -> ProjPoint:
    return ProjPoint(*(a + t * b for a, b in zip(u.coords, v.coords)))


def _line_product_shape(report, branch):
    assert report.outcome == "certificate"
    assert report.branch_trace == ("m3_11", "m2_7", branch)
    cert = report.certificate
    assert cert.verified and verify_certificate(cert).verified
    return int(cert.gamma_u), int(cert.total_weight)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("label, branch", [(8, "line_product_line_hit"),
                                           (1, "line_product_conic_hit")])
def test_m3_11_join_through_one_point_of_s(seed, label, branch):
    s = case4_instance(seed).point_set
    extra = _vector_sum(s.point(12), s.point(label), Fraction(1, 3))
    report = construct_certificate(s, extra=extra)
    assert _line_product_shape(report, branch) == (4, 13)


@pytest.mark.parametrize("seed", range(4))
def test_m3_11_join_through_a_line_and_a_conic_point(seed):
    s = case4_instance(seed).point_set
    y = _vector_sum(s.point(8), s.point(1), Fraction(1, 3))
    moved = PointSet(s.points[:11] + (y,))
    assert m_sequence(moved).as_tuple() == (4, 7, 11)
    extra = _vector_sum(y, s.point(8), Fraction(5, 3))
    report = construct_certificate(moved, extra=extra)
    shape = _line_product_shape(report, "line_product_excluded_points")
    assert shape == (4, 12)


@pytest.mark.parametrize("seed", range(4))
def test_m3_11_line_found_past_a_collinear_triple(seed):
    """Line point 8 moved to where a chord of two conic points meets the
    line: the chord holds three points of S and sorts before the line,
    but it is no component of the witness cubic, so the route must still
    split off the line."""
    inst = case4_instance(seed)
    s = inst.point_set
    line = join(s.point(8), s.point(9)).monic()
    for i, j in itertools.combinations(range(1, 8), 2):
        chord = join(s.point(i), s.point(j)).monic()
        y = meet(chord, line)
        moved = PointSet(s.points[:7] + (y,) + s.points[8:])
        if chord.coeff_vector() < line.coeff_vector() and \
                y not in s.points and \
                m_sequence(moved).as_tuple() == (4, 7, 11):
            break
    else:
        pytest.fail("no chord sorts before the line")
    assert not divides(chord, m_sequence(moved).witnesses[2][1])
    report = construct_certificate(moved, extra=inst.extra)
    assert _line_product_shape(report, "line_product_disjoint") == (4, 13)


SEED0_TRACES = {
    "generic12": "m2_5>pair_route>direct_pick",
    "figure1": "m2_7>pair_route>direct_pick",
    "figure2": "m2_7>pair_route>direct_pick",
    "figure3": "m3_10>m2_7>pair_route>direct_pick",
    "figure4": "m3_10>m2_7>pair_route>direct_pick",
    "figure5": "m3_10>m2_7>pair_route>direct_pick",
    "case2": "m3_10>m2_6>line_split_pairs>direct_pick",
    "case3": "m3_10>m2_7>quartic_conic_double_point",
    "case4": "m3_11>m2_7>line_product_disjoint",
    "example6lines": None,
    "conic6": "m2_6>pair_route>direct_pick",
    "conic7": "m2_7>quartic_two_conics",
}


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_route_taken_by_each_kind(kind):
    inst = generate(kind, 0)
    expected = SEED0_TRACES[kind]
    if expected is None:
        with pytest.raises(PreconditionError):
            construct_certificate(inst.point_set, extra=inst.extra)
        return
    report = construct_certificate(inst.point_set, extra=inst.extra)
    assert report.outcome == "certificate"
    assert ">".join(report.branch_trace) == expected


@pytest.mark.parametrize("kind", [k for k in INSTANCE_KINDS
                                  if SEED0_TRACES[k] is not None])
def test_make_certificate_report_is_the_verifiers(kind, monkeypatch):
    """make_certificate checks its candidate from the orders it read for
    the weights; for the accepted candidate that report is the one
    verify_certificate derives from scratch."""
    built = []
    real = construct._report

    def spy(cert, discrete, per_point):
        report = real(cert, discrete, per_point)
        built.append((cert, report))
        return report

    monkeypatch.setattr(construct, "_report", spy)
    inst = generate(kind, 0)
    cert = construct_certificate(inst.point_set,
                                 extra=inst.extra).certificate
    made, report = built[-1]
    assert made == cert.replace(verified=False)
    assert report.verified
    assert report == verify_certificate(cert)


def test_pair_route_proves_each_cubic_irreducible_once(monkeypatch):
    """`_hitting_drop_pairs` proves its cubics irreducible, so the pair
    construction does not run the Hessian test on them again."""
    seen = []
    real = construct.cubic_is_irreducible

    def spy(p):
        seen.append(tuple(sorted(p.terms.items())))
        return real(p)

    monkeypatch.setattr(construct, "cubic_is_irreducible", spy)
    for kind in ("generic12", "figure3"):
        for seed in range(4):
            seen.clear()
            report = construct_certificate(generate(kind, seed).point_set)
            assert "pair_route" in report.branch_trace
            assert seen and len(seen) == len(set(seen))


def _sextic_pair_args():
    """generic12(0) split as labels 1-6, 7-9, 10-12, with the cubics
    through 1-9 and through 1-6 and 10-12."""
    s = generic12(0).point_set
    common, only1, only2 = (1, 2, 3, 4, 5, 6), (7, 8, 9), (10, 11, 12)
    c1 = curves_through([s.point(l) for l in common + only1], 3)[0]
    c2 = curves_through([s.point(l) for l in common + only2], 3)[0]
    return s, c1, c2, common, only1, only2


def test_construct_sextic_pair_on_valid_cubics():
    report = construct_sextic_pair(*_sextic_pair_args())
    assert report.outcome == "certificate"
    assert report.branch_trace == ("direct_pick",)
    check_shape(report.certificate)


SEXTIC_PAIR_FAULTS = {
    "label groups must have sizes 6, 3, 3":
        lambda s, c1, c2, a, b, c: (s, c1, c2, a[:5], b, c),
    "c1 is not a cubic": lambda s, c1, c2, a, b, c:
        (s, HomPoly.monomial((1, 1, 0)), c2, a, b, c),
    "c2 is not a cubic": lambda s, c1, c2, a, b, c:
        (s, c1, HomPoly.monomial((1, 1, 0)), a, b, c),
    "c2 is not irreducible": lambda s, c1, c2, a, b, c:
        (s, c1, HomPoly.monomial((1, 1, 1)), a, b, c),
    # the cubic through 1-6 and 10-12 misses 7-9, and vice versa
    "c1 misses a required point":
        lambda s, c1, c2, a, b, c: (s, c2, c2, a, b, c),
    "c2 misses a required point":
        lambda s, c1, c2, a, b, c: (s, c1, c1, a, b, c),
    # a common label listed as excluded for the other cubic
    "c1 contains an excluded point":
        lambda s, c1, c2, a, b, c: (s, c1, c2, a, b, (1, 10, 11)),
    "c2 contains an excluded point":
        lambda s, c1, c2, a, b, c: (s, c1, c2, a, (1, 7, 8), c),
}


@pytest.mark.parametrize("message", SEXTIC_PAIR_FAULTS)
def test_construct_sextic_pair_validation_messages(message):
    args = SEXTIC_PAIR_FAULTS[message](*_sextic_pair_args())
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        construct_sextic_pair(*args)


def test_construct_sextic_pair_still_rejects_reducible_cubics():
    s = generic12(0).point_set
    xyz = HomPoly.monomial((1, 1, 1))
    with pytest.raises(PreconditionError, match="c1 is not irreducible"):
        construct_sextic_pair(s, xyz, xyz, (1, 2, 3, 4, 5, 6), (7, 8, 9),
                              (10, 11, 12))
