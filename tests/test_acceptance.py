"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion re-derives its claim from scratch at the stated tolerance
(exact arithmetic unless noted) and enforces the stated runtime budget.
"""

import random
import time
from fractions import Fraction

from lelongplane.config import (SHAPE_3CONCURRENT_PLUS2,
                                SHAPE_3CONCURRENT_PLUS2_SPLIT,
                                SHAPE_DOUBLE_STAR, canonical_form,
                                enumerate_4lines, m_sequence)
from lelongplane.construct import (CERT_SHAPES, construct_certificate_m3_9,
                                   construct_certificate_m3_high,
                                   verify_certificate)
from lelongplane.currents import (ArrangementCurrent, estimate_growth,
                                  estimate_pole_weight, lelong_exact,
                                  mass_inequality_check, sharpness_example)
from lelongplane.curves import (bezout_table, intersection_multiplicity,
                                resultant_multiplicity)
from lelongplane.exactpoly import (HomPoly, evaluate, gcd_homogeneous,
                                   monomials)
from lelongplane.instances import (case4_instance, conic_instance,
                                   figure_instance, generate, generic12)
from lelongplane.linsys import VanishingCondition, build_system
from lelongplane.serialize import dumps, encode

GENERIC_SEEDS = tuple(range(1, 21))
_CACHE = {}


def _report(num, desc, ok):
    print(f"\ncriterion {num:2d} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def _generic_instances():
    if "generic" not in _CACHE:
        _CACHE["generic"] = [generic12(s) for s in GENERIC_SEEDS]
    return _CACHE["generic"]


def _case1_certificate():
    if "case1_cert" not in _CACHE:
        inst = _generic_instances()[0]
        _CACHE["case1_cert"] = \
            construct_certificate_m3_9(inst.point_set).certificate
    return _CACHE["case1_cert"]


def test_criterion_1_dimension_count():
    ok = True
    for inst in _generic_instances():
        t0 = time.monotonic()
        conds = [VanishingCondition(inst.point_set.point(l), 2)
                 for l in range(1, 7)]
        conds += [VanishingCondition(inst.point_set.point(l), 1)
                  for l in range(7, 13)]
        system = build_system(6, conds)
        elapsed = time.monotonic() - t0
        ok = ok and system.dim == 4 and elapsed < 5.0
    _report(1, "degree-6 system dimension exactly 4 on 20 instances", ok)


def test_criterion_2_generic_m_sequence():
    ok = True
    for inst in _generic_instances():
        t0 = time.monotonic()
        ms = m_sequence(inst.point_set)
        elapsed = time.monotonic() - t0
        ok = ok and ms.as_tuple() == (2, 5, 9) and elapsed < 30.0
        # witness soundness
        for j, (labels, curve) in enumerate(ms.witnesses, start=1):
            ok = ok and curve is not None \
                and len(labels) == ms.as_tuple()[j - 1] \
                and all(evaluate(curve, inst.point_set.point(l)) == 0
                        for l in labels)
    _report(2, "m-sequence (2,5,9) with sound witnesses on 20 instances", ok)


def test_criterion_3_certificates_m3_9():
    ok = True
    cases = [("m2=5", _generic_instances()[6]),
             ("m2=6", conic_instance(3, 6)),
             ("m2=7", conic_instance(1, 7)),
             ("figure1", figure_instance("figure1", 2))]
    for tag, inst in cases:
        t0 = time.monotonic()
        rep = construct_certificate_m3_9(inst.point_set)
        cert = rep.certificate
        ver = verify_certificate(cert) if cert is not None else None
        elapsed = time.monotonic() - t0
        ok = ok and rep.outcome == "certificate" and elapsed < 60.0
        if cert is not None:
            shape = (int(cert.gamma_u), int(cert.total_weight))
            ok = ok and shape in CERT_SHAPES \
                and cert.total_weight / cert.gamma_u == 3 \
                and ver.verified
    _report(3, "verified certificates, (gamma,weight) shapes, ratio 3", ok)


def test_criterion_4_case_m3_11():
    inst = case4_instance(6)
    t0 = time.monotonic()
    rep = construct_certificate_m3_high(inst.point_set, extra=inst.extra)
    cert = rep.certificate
    elapsed = time.monotonic() - t0
    ok = (rep.outcome == "certificate" and elapsed < 60.0
          and cert.gamma_u == 4 and cert.total_weight == 13
          and Fraction(13, 4) > 3 and verify_certificate(cert).verified)
    _report(4, "m3=11 certificate gamma 4, total weight 13", ok)


def test_criterion_5_sharpness_example():
    t0 = time.monotonic()
    rep = sharpness_example(0)
    elapsed = time.monotonic() - t0
    ok = (elapsed < 10.0 and len(rep.points) == 15
          and rep.all_values_one_third
          and set(rep.lelong_values) == {Fraction(1, 3)}
          and rep.rank_checks == 105 and rep.all_ranks_full)
    _report(5, "all 15 Lelong values 1/3, all 105 rank checks full", ok)


def test_criterion_6_incidence_enumeration():
    t0 = time.monotonic()
    cap2 = enumerate_4lines(12, 2)
    cap3 = enumerate_4lines(12, 3)
    elapsed = time.monotonic() - t0
    seen = set()
    for _, fams in cap3.families_by_size:
        seen.update(fams)
    wanted = {canonical_form(shape.lines) for shape in
              (SHAPE_3CONCURRENT_PLUS2, SHAPE_3CONCURRENT_PLUS2_SPLIT,
               SHAPE_DOUBLE_STAR)}
    ok = cap2.maximum == 5 and wanted <= seen and elapsed < 300.0
    _report(6, "cap-2 maximum 5 lines; cap-3 contains the three shapes", ok)


def test_criterion_7_multiplicity_oracle_equivalence():
    rng = random.Random(20260823)
    t0 = time.monotonic()
    pairs = 0
    ok = True
    while pairs < 100:
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        p = HomPoly(d1, {m: Fraction(rng.randint(-5, 5))
                         for m in monomials(d1)})
        q = HomPoly(d2, {m: Fraction(rng.randint(-5, 5))
                         for m in monomials(d2)})
        if p.is_zero or q.is_zero or gcd_homogeneous(p, q).degree != 0:
            continue
        pairs += 1
        records, residual = bezout_table(p, q)
        total = sum(r.multiplicity for r in records)
        ok = ok and residual >= 0 and total + residual == d1 * d2
        for rec in records:
            mu = rec.multiplicity
            ok = ok and intersection_multiplicity(p, q, rec.point) == mu
            ok = ok and resultant_multiplicity(p, q, rec.point) == mu
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(7, "two multiplicity oracles agree on 100 pairs, Bezout "
               "balances", ok)


def test_criterion_8_numerical_estimators():
    cert = _case1_certificate()
    t0 = time.monotonic()
    pole_radii = [2.0 ** -k for k in range(8, 17)]
    ok = len(cert.points) == 12
    for x, w in cert.points:
        est = estimate_pole_weight(cert, x, pole_radii)
        ok = ok and abs(est.extrapolated - float(w)) < 0.05
    growth = estimate_growth(cert, [2.0 ** k for k in range(8, 17)])
    ok = ok and abs(growth.slope - 6.0) < 0.1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(8, "pole slopes within 0.05, growth slope within 0.1 of 6", ok)


def test_criterion_9_mass_inequality():
    certs = [_case1_certificate(),
             construct_certificate_m3_9(conic_instance(1, 7).point_set)
             .certificate]
    rng = random.Random(99)
    t0 = time.monotonic()
    ok = True
    checked = 0
    while checked < 50:
        n = rng.randint(2, 5)
        lines, seen = [], set()
        while len(lines) < n:
            coeffs = (rng.randint(-9, 9), rng.randint(-9, 9),
                      rng.randint(-9, 9))
            if coeffs == (0, 0, 0):
                continue
            line = HomPoly.line(*coeffs).monic()
            key = tuple(line.coeff_vector())
            if key not in seen:
                seen.add(key)
                lines.append(line)
        t = ArrangementCurrent(tuple((l, Fraction(1, n)) for l in lines))
        cert = certs[checked % 2]
        rep = mass_inequality_check(t, cert)
        lhs = sum(w * lelong_exact(t, x) for x, w in cert.points)
        ok = ok and rep.holds and rep.lhs == lhs and rep.lhs <= rep.rhs \
            and rep.rhs == cert.gamma_u
        checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(9, "weighted Lelong sum <= growth on 50 exact pairs", ok)


def test_criterion_10_determinism():
    inst_a = dumps(encode(generate("case3", 4)))
    inst_b = dumps(encode(generate("case3", 4)))
    cert_a = dumps(encode(construct_certificate_m3_9(
        conic_instance(1, 7).point_set).certificate))
    cert_b = dumps(encode(construct_certificate_m3_9(
        conic_instance(1, 7).point_set).certificate))
    enum_a = dumps(encode(enumerate_4lines(12, 2)))
    enum_b = dumps(encode(enumerate_4lines(12, 2)))
    sharp_a = dumps(encode(sharpness_example(0)))
    sharp_b = dumps(encode(sharpness_example(0)))
    ok = (inst_a == inst_b and cert_a == cert_b and enum_a == enum_b
          and sharp_a == sharp_b)
    _report(10, "byte-identical reports on repeated seeded runs", ok)
