"""Workload schedules, generated inputs and the expected-answer tables.

Nothing here imports lelongplane: the expected values come from the
definitions of the instance kinds and from elementary geometry, and the
checks re-evaluate polynomials read from the JSON reports with Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

# m-sequences fixed by the definition of each kind (README, instances.py)
M_SEQ = {
    "generic12": (2, 5, 9), "conic7": (2, 7, 9), "figure3": (4, 7, 10),
    "case3": (3, 7, 10), "case4": (4, 7, 11),
    # six general lines: 5 points per line, 5+5-1 on two, 5+5+5-3 on three
    "example6lines": (5, 9, 12),
}

# (gamma, total weight) each kind's construction route emits: cubic pairs
# give (6, 18), two-conic quartics (4, 12), the m3 = 11 line product (4, 13)
CERT_SHAPE = {
    "generic12": (6, 18), "figure3": (6, 18),
    "conic7": (4, 12), "case3": (4, 12), "case4": (4, 13),
}

# 12 points, each on at most two 4-point lines, two lines sharing at most
# one point: at most 5 lines
ENUMERATE_CAP2_MAX = 5

LELONG_TOLERANCE = 0.05  # the CLI default; growth is allowed twice this

# Every workload runs whole passes over a fixed pool of instances, so each
# run measures the same work: the first instance seed of each kind. A pass
# takes 15-25 s on 2 cores.
WORKLOADS = {
    # degree-6 certificates from cubic pairs with six double points, where
    # verify_certificate spends its time on mu; figure3 adds 4-point lines,
    # the m3 = 10 route and 28-column kernels with LLL on a special
    # configuration
    "sextic_pairs": {"pipelines": [("generic12", 0), ("figure3", 0)],
                     "linsys": ((3, 0), (6, 6))},
    # degree-4 certificates from conic products; mu is a small share. The
    # systems are the quartics through all twelve points that the route
    # uses (doubling labels 1-6 of these kinds crashes in LLL)
    "quartic_routes": {"pipelines": [("conic7", 0), ("case3", 0),
                                     ("case4", 0)],
                       "linsys": ((3, 0), (4, 0))},
}

# Every pass of every workload ends with the same tail, so that each
# end-to-end metric is measured on each workload: the sharpness example,
# the cap-2 enumeration and one tangent pair of each type below. The tail's
# inputs are fixed too: their cost varies by 10-20 % from one generator seed
# to the next, more than the bounds allow.
SUITE_SEED = 0
# (deg P, deg Q) and (P singular at x, Q singular at x) of the four pairs
TANGENT_DEGREES = ((3, 4), (4, 3), (4, 4), (3, 3))
TANGENT_TYPES = ((False, False), (True, False), (False, True), (True, True))


def schedule(workload: str, seed: int):
    """The items of one pass. The inputs are the same for every seed; the
    seed rotates the order in which they run."""
    spec = WORKLOADS[workload]
    systems = spec["linsys"]
    items = [("pipeline", kind, s, systems) for kind, s in spec["pipelines"]]
    # sharpness, the longest single operation, runs twice a pass, apart
    sharpness = ("sharpness", SUITE_SEED)
    items += [sharpness, ("enumerate",)]
    items += [("tangent", pair) for pair in tangent_pairs(SUITE_SEED)]
    items += [sharpness]
    shift = seed % len(items)
    return items[shift:] + items[:shift]


# --------------------------------------------------------------------------
# Polynomials as {(i, j, k): Fraction}, homogeneous in X, Y, Z.


def _monomials(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)]


def _mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def evaluate(poly, point) -> Fraction:
    a, b, c = point
    return sum((coef * a ** i * b ** j * c ** k
                for (i, j, k), coef in poly.items()), Fraction(0))


def _univariate_restriction(poly, u, v):
    """Coefficients (low to high) of t -> poly(u + t v)."""
    out = [Fraction(0)]
    for (i, j, k), c in poly.items():
        term = [c]
        for e, a, b in ((i, u[0], v[0]), (j, u[1], v[1]), (k, u[2], v[2])):
            for _ in range(e):
                nxt = [Fraction(0)] * (len(term) + 1)
                for n, x in enumerate(term):
                    nxt[n] += x * a
                    nxt[n + 1] += x * b
                term = nxt
        out += [Fraction(0)] * (len(term) - len(out))
        for n, x in enumerate(term):
            out[n] += x
    while out and out[-1] == 0:
        out.pop()
    return out


def _udeg_gcd(f, g) -> int:
    """Degree of gcd of two univariate polynomials (Euclid over Q)."""
    while g:
        r = list(f)
        while len(r) >= len(g) and r:
            q = r[-1] / g[-1]
            shift = len(r) - len(g)
            for n, x in enumerate(g):
                r[n + shift] -= q * x
            while r and r[-1] == 0:
                r.pop()
        f, g = g, r
    return len(f) - 1


def _coprime(p, q, rng) -> bool:
    """True only if p and q share no component: a common component meets
    every line, so coprime restrictions to one line prove coprimality."""
    u = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
    v = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
    fp, fq = _univariate_restriction(p, u, v), _univariate_restriction(q, u, v)
    if len(fp) != max(sum(m) for m in p) + 1 or \
            len(fq) != max(sum(m) for m in q) + 1:
        return False  # the line direction is a zero: inconclusive
    return _udeg_gcd(fp, fq) == 0


def _line_through(rng, x):
    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
    if a == b == 0:
        a = 1
    return {(1, 0, 0): Fraction(a), (0, 1, 0): Fraction(b),
            (0, 0, 1): -(a * x[0] + b * x[1])}


def _random_form(rng, d):
    return {m: Fraction(rng.randint(-3, 3)) for m in _monomials(d)}


def _curve_at(rng, d, singular, tangent, other):
    """A degree-d form through x: singular there (order 2), or smooth with
    tangent line `tangent`; `other` is a second line through x."""
    sq = _mul(other, other)
    if singular:
        return _add(_mul(sq, _random_form(rng, d - 2)),
                    _mul(_mul(tangent, other), _random_form(rng, d - 2)),
                    _mul(_mul(tangent, tangent), _random_form(rng, d - 2)))
    return _add(_mul(tangent, _random_form(rng, d - 1)),
                _mul(sq, _random_form(rng, d - 2)))


def tangent_pairs(seed: int):
    """Coprime pairs of the degrees and singularity types above, each
    meeting at a rational point x with a shared tangent or a singular
    point.

    Returns dicts with the two forms (as term lists), x, and the lower bound
    ord_x P * ord_x Q (+1 for two smooth branches with one tangent) that
    any correct intersection multiplicity at x must reach."""
    rng = random.Random(seed)
    pairs = []
    for (d1, d2), (s1, s2) in zip(TANGENT_DEGREES, TANGENT_TYPES):
        while True:
            x = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(1))
            tangent, other = _line_through(rng, x), _line_through(rng, x)
            p = _curve_at(rng, d1, s1, tangent, other)
            q = _curve_at(rng, d2, s2, tangent, other)
            if p and q and _coprime(p, q, rng):
                break
        bound = (2 if s1 else 1) * (2 if s2 else 1) + (not s1 and not s2)
        pairs.append({"p": (d1, _terms(p)), "q": (d2, _terms(q)),
                      "x": [str(c) for c in x], "mu_min": bound})
    return pairs


def _terms(poly):
    return [[i, j, k, str(c)] for (i, j, k), c in sorted(poly.items())]


# --------------------------------------------------------------------------
# Output checks. Each returns None when the output is right, else a reason.


def _poly(doc):
    return {(i, j, k): Fraction(c) for i, j, k, c in doc["terms"]}


def _point(doc):
    return tuple(Fraction(c) for c in doc)


def check_instance(doc, kind):
    if tuple(doc["m_seq"]) != M_SEQ[kind]:
        return f"m-sequence {doc['m_seq']}, expected {M_SEQ[kind]}"
    if len({tuple(p) for p in doc["points"]}) != 12 or \
            len(doc["points"]) != 12:
        return "expected 12 distinct points"
    return None


def check_msequence(doc, inst):
    got = (doc["m1"], doc["m2"], doc["m3"])
    if got != M_SEQ[inst["kind"]]:
        return f"m-sequence {got}, expected {M_SEQ[inst['kind']]}"
    points = [_point(p) for p in inst["points"]]
    for size, wit in zip(got, doc["witnesses"]):
        curve = _poly(wit["curve"])
        if len(wit["labels"]) != size or any(
                evaluate(curve, points[l - 1]) != 0 for l in wit["labels"]):
            return "witness curve misses its labelled points"
    return None


def check_linsys(doc, inst, degree, doubles):
    points = [_point(p) for p in inst["points"]]
    ncols = (degree + 1) * (degree + 2) // 2
    nconds = sum(3 if l <= doubles else 1 for l in range(1, len(points) + 1))
    if doc["dim"] != ncols - doc["matrix_rank"] or \
            len(doc["kernel_basis"]) != doc["dim"]:
        return "dimension does not match rank and basis"
    if degree == 3 and doc["dim"] != 0:
        return "a cubic through all points contradicts m3 < #points"
    if doc["dim"] < ncols - nconds:
        return f"dimension {doc['dim']} below the expected {ncols - nconds}"
    for b in doc["kernel_basis"]:
        curve = _poly(b)
        if any(evaluate(curve, x) != 0 for x in points):
            return "a kernel curve misses a point"
    return None


def check_certificate(doc, inst):
    kind = inst["kind"]
    p, q = _poly(doc["p"]), _poly(doc["q"])
    degree, r = doc["p"]["degree"], doc["r"]
    gamma, total = Fraction(doc["gamma_u"]), Fraction(doc["total_weight"])
    weights = [Fraction(e["weight"]) for e in doc["points"]]
    points = [_point(e["point"]) for e in doc["points"]]
    allowed = {_point(x) for x in inst["points"]}
    if inst.get("extra") is not None:
        allowed.add(_point(inst["extra"]))
    if (gamma, total) != CERT_SHAPE[kind]:
        return f"shape ({gamma}, {total}), expected {CERT_SHAPE[kind]}"
    if gamma != Fraction(degree, r) or sum(weights) != total or \
            total / gamma < 3 or min(weights) <= 0:
        return "growth or weights inconsistent"
    if len(set(points)) != len(points) or not set(points) <= allowed:
        return "listed points are not distinct instance points"
    if any(evaluate(p, x) != 0 or evaluate(q, x) != 0 for x in points):
        return "a listed point is not a common zero"
    return None


def check_verification(doc):
    if not (doc["verified"] and doc["discrete"]
            and all(c["ok"] for c in doc["per_point"])):
        return "certificate not verified"
    return None


def check_lelong(doc):
    for pole in doc["poles"]:
        if abs(float(pole["extrapolated"]) - float(Fraction(pole["exact"]))) \
                > LELONG_TOLERANCE:
            return "pole estimate outside tolerance"
    growth = doc["growth"]
    if abs(float(growth["slope"]) - float(Fraction(growth["claimed"]))) \
            > 2 * LELONG_TOLERANCE:
        return "growth estimate outside tolerance"
    return None


def check_sharpness(doc):
    if len(doc["lelong_values"]) != 15 or \
            set(doc["lelong_values"]) != {"1/3"}:
        return "Lelong values are not fifteen times 1/3"
    if doc["rank_checks"] != 105 or not doc["all_ranks_full"]:
        return "not 105 full-rank checks"
    if tuple(doc["m_seq"]) != M_SEQ["example6lines"]:
        return f"m-sequence {doc['m_seq']}"
    return None


def check_enumerate(doc):
    if doc["maximum"] != ENUMERATE_CAP2_MAX:
        return f"maximum {doc['maximum']}, expected {ENUMERATE_CAP2_MAX}"
    return None


def check_bezout(result, pair):
    """The constructed point is listed with at least its forced
    multiplicity. (Bezout balance is not checked: bezout_table computes the
    residual as d1 d2 minus the multiplicities and raises if it is
    negative, so the balance holds by construction.)"""
    return _check_at_x(result["records"], pair)


def check_multiplicities(mus, points, records, pair):
    """One multiplicity algorithm, run at the points bezout_table listed.
    bezout_table takes its values from intersection_multiplicity, so for
    `mu` the comparison only shows that a direct call agrees; for `oracle`
    (resultant_multiplicity, a separate algorithm) it is the independent
    check of mu. Both must reach the forced multiplicity at x."""
    if mus != [mu for _, mu in records]:
        return "multiplicity algorithms disagree"
    return _check_at_x(list(zip(points, mus)), pair)


def _check_at_x(records, pair):
    x = [Fraction(c) for c in pair["x"]]
    at_x = [mu for pt, mu in records if [Fraction(c) for c in pt] == x]
    if not at_x or at_x[0] < pair["mu_min"]:
        return "constructed point missing or multiplicity too small"
    return None
