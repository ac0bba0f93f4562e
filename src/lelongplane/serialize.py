"""Versioned JSON schemas for every report and instance file.

All rationals are serialized as "num/den" strings, polynomials as grlex
term lists. Every document carries a schema_version, and all but the
m-sequence report (keys m1, m2, m3, schema_version, witnesses) a type tag.
Serialization is byte-stable: keys are sorted and term order is canonical,
so identical objects always produce identical files.
"""

from __future__ import annotations

import json

from .config import EnumerationReport, MSequence, PointSet
from .construct import (ConstructionReport, PointCheck, PotentialCertificate,
                        VerificationReport)
from .currents import GrowthEstimate, LelongEstimate, SharpnessReport
from .errors import ParseError
from .exactpoly import HomPoly, ProjPoint, fraction_from_str, fraction_to_str
from .instances import Instance
from .linsys import LinearSystem

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# encoding


def encode_poly(p: HomPoly) -> dict:
    terms = [[i, j, k, fraction_to_str(c)]
             for (i, j, k), c in sorted(p.terms.items(), reverse=True)]
    return {"degree": p.degree, "terms": terms}


def encode_point(x: ProjPoint) -> list:
    return [fraction_to_str(c) for c in x.coords]


def encode(obj):
    """JSON-ready encoding of each object the CLI writes."""
    if isinstance(obj, HomPoly):
        return encode_poly(obj)
    if isinstance(obj, MSequence):
        return {"m1": obj.m1, "m2": obj.m2, "m3": obj.m3,
                "witnesses": [{"labels": list(labels),
                               "curve": encode_poly(curve)}
                              for labels, curve in obj.witnesses]}
    if isinstance(obj, EnumerationReport):
        return {"type": "enumeration_report", "n_points": obj.n_points,
                "per_point_cap": obj.per_point_cap, "maximum": obj.maximum,
                "families_by_size": [
                    {"size": k, "families": [[list(l) for l in fam]
                                             for fam in fams]}
                    for k, fams in obj.families_by_size],
                "maximal_families": [[list(l) for l in fam]
                                     for fam in obj.maximal_families]}
    if isinstance(obj, LinearSystem):
        return {"type": "linear_system", "degree": obj.degree,
                "conditions": [{"point": encode_point(c.point),
                                "order": c.order}
                               for c in obj.conditions],
                "matrix_rank": obj.matrix_rank, "dim": obj.dim,
                "kernel_basis": [encode_poly(b) for b in obj.kernel_basis]}
    if isinstance(obj, PotentialCertificate):
        return {"type": "certificate", "p": encode_poly(obj.p),
                "q": encode_poly(obj.q), "r": obj.r,
                "points": [{"point": encode_point(x),
                            "weight": fraction_to_str(w)}
                           for x, w in obj.points],
                "gamma_u": fraction_to_str(obj.gamma_u),
                "total_weight": fraction_to_str(obj.total_weight),
                "case_tag": obj.case_tag, "verified": obj.verified}
    if isinstance(obj, ConstructionReport):
        return {"type": "construction_report",
                "branch_trace": list(obj.branch_trace),
                "outcome": obj.outcome, "detail": obj.detail,
                "certificate": encode(obj.certificate)
                if obj.certificate else None}
    if isinstance(obj, PointCheck):
        return {"point": encode_point(obj.point),
                "claimed": fraction_to_str(obj.claimed),
                "ord_p": _encode_order(obj.ord_p),
                "ord_q": _encode_order(obj.ord_q),
                "multiplicity": _encode_order(obj.multiplicity),
                "ok": obj.ok}
    if isinstance(obj, VerificationReport):
        return {"type": "verification_report", "discrete": obj.discrete,
                "per_point": [encode(c) for c in obj.per_point],
                "total_weight_ok": obj.total_weight_ok,
                "verified": obj.verified}
    if isinstance(obj, LelongEstimate):
        return {"type": "lelong_estimate", "point": encode_point(obj.point),
                "radii": [repr(r) for r in obj.radii],
                "values": [repr(v) for v in obj.values],
                "extrapolated": repr(obj.extrapolated),
                "exact": fraction_to_str(obj.exact)}
    if isinstance(obj, GrowthEstimate):
        return {"type": "growth_estimate",
                "radii": [repr(r) for r in obj.radii],
                "max_values": [repr(v) for v in obj.max_values],
                "slope": repr(obj.slope),
                "claimed": fraction_to_str(obj.claimed)}
    if isinstance(obj, SharpnessReport):
        return {"type": "sharpness_report",
                "lines": [encode_poly(l) for l in obj.lines],
                "points": [encode_point(p) for p in obj.points],
                "lelong_values": [fraction_to_str(v)
                                  for v in obj.lelong_values],
                "all_values_one_third": obj.all_values_one_third,
                "rank_checks": obj.rank_checks,
                "all_ranks_full": obj.all_ranks_full,
                "m_seq": list(obj.m_seq)}
    if isinstance(obj, Instance):
        return {"type": "instance", "kind": obj.kind, "seed": obj.seed,
                "points": [encode_point(p) for p in obj.point_set.points],
                "m_seq": list(obj.m_seq),
                "lines": [encode_poly(l) for l in obj.lines],
                "extra": encode_point(obj.extra)
                if obj.extra is not None else None}
    raise ParseError(f"cannot encode object of type {type(obj).__name__}")


def _encode_order(v):
    if v is None:
        return None
    if v == float("inf"):
        return "inf"
    return int(v)


def dumps(obj) -> str:
    doc = obj if isinstance(obj, dict) else encode(obj)
    if isinstance(doc, dict):
        doc = {"schema_version": SCHEMA_VERSION, **doc}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dump(obj, path) -> None:
    """Write `dumps(obj)` to `path`; a path that cannot be written, such
    as a directory or a file in a missing directory, is a ParseError."""
    text = dumps(obj)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}") from exc


# --------------------------------------------------------------------------
# decoding


def _expect(doc, key, kinds=None):
    """doc[key], of type `kinds`; a bool does not pass as an int."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    val = doc[key]
    if kinds is not None and (not isinstance(val, kinds) or (
            kinds is int and isinstance(val, bool))):
        raise ParseError(f"field {key!r} has the wrong type")
    return val


def _is_count(v) -> bool:
    """A non-negative int; JSON true/false decode to bools, which are ints
    to isinstance and must not pass."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def decode_poly(doc) -> HomPoly:
    degree = _expect(doc, "degree", int)
    if not _is_count(degree):
        raise ParseError(f"the degree must be a non-negative integer, got "
                         f"{degree!r}")
    terms = {}
    for entry in _expect(doc, "terms", list):
        try:
            i, j, k, coeff = entry
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed term entry: {entry!r}") from exc
        if not all(_is_count(e) for e in (i, j, k)):
            raise ParseError(f"term {entry!r} needs non-negative integer "
                             "exponents")
        if i + j + k != degree:
            raise ParseError(f"term {entry!r} is not homogeneous of "
                             f"degree {degree}")
        if (i, j, k) in terms:
            raise ParseError(f"exponents {[i, j, k]!r} appear twice")
        terms[(i, j, k)] = fraction_from_str(coeff)
    return HomPoly(degree, terms)


def decode_point(doc) -> ProjPoint:
    if not isinstance(doc, list) or len(doc) != 3:
        raise ParseError(f"a point needs 3 coordinates: {doc!r}")
    return ProjPoint(*[fraction_from_str(c) for c in doc])


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    version = _expect(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {version}")
    return doc


def load(path) -> dict:
    """The document in the file at `path`, which must be UTF-8 JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {path}") from exc
    return loads(text)


def load_instance(path):
    doc = load(path)
    if _expect(doc, "type", str) != "instance":
        raise ParseError("not an instance file")
    points = tuple(decode_point(p) for p in _expect(doc, "points", list))
    lines = _expect(doc, "lines", list) if "lines" in doc else []
    extra = doc.get("extra")
    return Instance(
        kind=_expect(doc, "kind", str), seed=_expect(doc, "seed", int),
        point_set=PointSet(points),
        m_seq=tuple(_expect(doc, "m_seq", list)),
        lines=tuple(decode_poly(l) for l in lines),
        extra=decode_point(extra) if extra is not None else None)


def load_certificate(path) -> PotentialCertificate:
    doc = load(path)
    if _expect(doc, "type", str) != "certificate":
        raise ParseError("not a certificate file")
    r = _expect(doc, "r", int)
    if not _is_count(r) or r < 1:
        raise ParseError(f"the scale r must be a positive integer, got {r!r}")
    p, q = decode_poly(_expect(doc, "p")), decode_poly(_expect(doc, "q"))
    if p.degree != q.degree:
        raise ParseError(f"p and q must have one degree, got {p.degree} and "
                         f"{q.degree}")
    points = tuple(
        (decode_point(_expect(e, "point")),
         fraction_from_str(_expect(e, "weight", str)))
        for e in _expect(doc, "points", list))
    return PotentialCertificate(
        p=p, q=q, r=r, points=points,
        gamma_u=fraction_from_str(_expect(doc, "gamma_u", str)),
        case_tag=_expect(doc, "case_tag", str),
        verified=bool(_expect(doc, "verified", bool)))
