"""JSON serialization: byte-stable dumps and validated loads.

Oracles: round trips through disk for instances and certificates, byte
identity of repeated dumps, and targeted malformed inputs mapping to
ParseError.
"""

import json
from fractions import Fraction

import pytest

from lelongplane import exactpoly, serialize
from lelongplane.config import m_sequence
from lelongplane.construct import construct_certificate_m3_9
from lelongplane.errors import ParseError
from lelongplane.exactpoly import HomPoly, ProjPoint
from lelongplane.instances import generate
from lelongplane.serialize import (SCHEMA_VERSION, decode_point, decode_poly,
                                   dump, dumps, encode, encode_point,
                                   encode_poly, load_certificate,
                                   load_instance, loads)


def test_poly_round_trip():
    p = (HomPoly.line(1, -2, 3) * HomPoly.line(0, 1, 1)
         + HomPoly.monomial((0, 0, 2), Fraction(5, 7)))
    assert decode_poly(encode_poly(p)) == p


def test_sparse_high_degree_form_needs_no_monomial_walk(monkeypatch):
    """Encoding, `repr` and `leading_coeff` order the terms a form has:
    with `monomials` refusing degrees above 100 (in `serialize` too, if
    it binds the name), a 3-term form of degree 4000 still encodes in
    grlex order, round-trips and prints."""
    real = exactpoly.monomials

    def guard(degree):
        if degree > 100:
            raise AssertionError(f"monomials({degree}) walked")
        return real(degree)
    for module in (exactpoly, serialize):
        monkeypatch.setattr(module, "monomials", guard, raising=False)
    p = HomPoly(4000, {(0, 0, 4000): 1, (4000, 0, 0): 1,
                       (1, 2000, 1999): 3})
    doc = encode_poly(p)
    assert doc["terms"] == [[4000, 0, 0, "1"], [1, 2000, 1999, "3"],
                            [0, 0, 4000, "1"]]
    assert decode_poly(doc) == p
    assert repr(p) == ("HomPoly(1*" + "X" * 4000 + " + 3*X" + "Y" * 2000
                       + "Z" * 1999 + " + 1*" + "Z" * 4000 + ")")
    assert p.leading_coeff() == 1
    assert (3 * p - HomPoly.monomial((4000, 0, 0), 3)).leading_coeff() == 9


def test_point_round_trip():
    x = ProjPoint(Fraction(-3, 4), Fraction(7), Fraction(1))
    assert decode_point(encode_point(x)) == x


def test_dumps_is_byte_stable():
    inst = generate("generic12", 11)
    a = dumps(encode(inst))
    b = dumps(encode(generate("generic12", 11)))
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["type"] == "instance"


def test_msequence_report_has_no_type_tag():
    """The `msequence --out` report's keys are pinned, so that giving it a
    type tag is a deliberate schema change."""
    ms = m_sequence(generate("generic12", 0).point_set)
    doc = json.loads(dumps(encode(ms)))
    assert sorted(doc) == ["m1", "m2", "m3", "schema_version", "witnesses"]


def test_instance_disk_round_trip(tmp_path):
    inst = generate("case4", 6)
    path = tmp_path / "inst.json"
    dump(encode(inst), path)
    back = load_instance(path)
    assert back.kind == inst.kind and back.seed == inst.seed
    assert back.m_seq == inst.m_seq
    assert [p.coords for p in back.point_set.points] == \
        [p.coords for p in inst.point_set.points]
    assert back.extra == inst.extra


def test_certificate_disk_round_trip(tmp_path):
    inst = generate("conic7", 1)
    cert = construct_certificate_m3_9(inst.point_set).certificate
    path = tmp_path / "cert.json"
    dump(encode(cert), path)
    back = load_certificate(path)
    assert back == cert


def test_loads_rejects_malformed_inputs():
    with pytest.raises(ParseError):
        loads("{not json")
    with pytest.raises(ParseError):
        loads("[1, 2]")
    with pytest.raises(ParseError):
        loads('{"no_version": true}')
    with pytest.raises(ParseError):
        loads('{"schema_version": 99}')


def test_decode_poly_rejects_inhomogeneous():
    with pytest.raises(ParseError):
        decode_poly({"degree": 2, "terms": [[1, 0, 0, "1"]]})
    with pytest.raises(ParseError):
        decode_poly({"degree": 2, "terms": [[1, 1]]})


def test_decode_point_rejects_bad_shape():
    with pytest.raises(ParseError):
        decode_point(["1", "2"])
