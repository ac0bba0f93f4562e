"""Command-line interface: exit codes, report files, determinism.

main() is exercised in-process. Oracles: documented exit codes for each
failure class, byte-identical report files on repeated seeded runs, and a
full generate -> construct -> certify round trip through the filesystem.
"""

import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import golden
from lelongplane import (cli, config, construct, currents, curves,
                         exactpoly, serialize)
from lelongplane.cli import (COMMANDS, EXIT_OK, EXIT_PARSE,
                             EXIT_PRECONDITION, EXIT_UNSUPPORTED,
                             EXIT_VERIFICATION, build_parser, main,
                             parse_table)
from lelongplane.construct import (PotentialCertificate,
                                   construct_certificate, make_certificate,
                                   verify_certificate)
from lelongplane.exactpoly import HomPoly, ProjPoint, vanishing_order
from lelongplane.instances import INSTANCE_KINDS, generate

DOCUMENTED_CODES = {EXIT_OK, EXIT_PRECONDITION, EXIT_VERIFICATION,
                    EXIT_UNSUPPORTED, EXIT_PARSE}


def run(*argv):
    return main(list(argv))


def test_generate_writes_versioned_report(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run("generate", "--kind", "generic12", "--seed", "3",
               "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "generic12"
    assert len(doc["points"]) == 12
    assert "m_seq=(2, 5, 9)" in capsys.readouterr().out


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("generate", "--kind", "figure1", "--seed", "2", "--out", str(a))
    run("generate", "--kind", "figure1", "--seed", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_msequence_and_linsys(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run("generate", "--kind", "generic12", "--seed", "3", "--out", str(inst))
    assert run("msequence", "--input", str(inst)) == EXIT_OK
    assert "m_sequence (2, 5, 9)" in capsys.readouterr().out
    assert run("linsys", "--input", str(inst), "--degree", "6",
               "--double", "1,2,3,4,5,6") == EXIT_OK
    assert "rank=24 dim=4" in capsys.readouterr().out


def test_construct_then_certify(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run("generate", "--kind", "conic7", "--seed", "1", "--out", str(inst))
    assert run("construct", "--input", str(inst),
               "--cert", str(cert)) == EXIT_OK
    assert "certificate gamma=4" in capsys.readouterr().out
    assert run("certify", "--input", str(cert)) == EXIT_OK
    assert "verified=True" in capsys.readouterr().out


def test_certify_rejects_tampered_certificate(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run("generate", "--kind", "conic7", "--seed", "1", "--out", str(inst))
    run("construct", "--input", str(inst), "--cert", str(cert))
    doc = json.loads(cert.read_text())
    doc["points"][0]["weight"] = "9"
    cert.write_text(json.dumps(doc))
    assert run("certify", "--input", str(cert)) == EXIT_VERIFICATION
    capsys.readouterr()


def test_parse_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("msequence", "--input", str(bad)) == EXIT_PARSE
    missing = tmp_path / "nope.json"
    assert run("msequence", "--input", str(missing)) == EXIT_PARSE
    capsys.readouterr()


def test_precondition_exit_code(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run("generate", "--kind", "generic12", "--seed", "3", "--out", str(inst))
    assert run("linsys", "--input", str(inst), "--degree", "13") \
        == EXIT_PRECONDITION
    assert run("linsys", "--input", str(inst), "--degree", "2",
               "--double", "44") == EXIT_PRECONDITION
    capsys.readouterr()


def test_enumerate_and_sharpness(tmp_path, capsys):
    assert run("enumerate", "--n", "12", "--cap", "2") == EXIT_OK
    assert "maximum=5" in capsys.readouterr().out
    out = tmp_path / "sharp.json"
    assert run("sharpness", "--seed", "0", "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["all_values_one_third"] is True
    capsys.readouterr()


GOLDEN = golden.load()


def golden_digest(entry, file):
    """The SHA-256 that the golden manifest pins for one file of an entry."""
    return GOLDEN[entry]["files"][file]


# `enumerate --n 12 --out` files, recorded with the canonical form that
# branches over every order of a line's fresh labels
# (`expr_reference.reference_canonical_form`); cap 2 is in the golden sweep
ENUMERATE_SHA256 = {
    "2": golden_digest("enumerate-2", "enum.json"),
    "3": "5472f65ad7d70ab2fe02003cd9dbd94862663f6af89f8329c8a7b09cd75935ae",
}


@pytest.mark.parametrize("cap", sorted(ENUMERATE_SHA256))
def test_enumerate_matches_golden_digests(tmp_path, capsys, cap):
    out = tmp_path / "enum.json"
    assert run("enumerate", "--n", "12", "--cap", cap,
               "--out", str(out)) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        ENUMERATE_SHA256[cap]
    maximum, maximal = {"2": (5, 1), "3": (9, 2)}[cap]
    assert capsys.readouterr().out.strip() == (
        f"n=12 cap={cap} maximum={maximum} maximal_families={maximal}")


# `sharpness --seed s --out` files for s = 0-3, first recorded when the
# 105 verdicts came from one `int_rank` per 13-point subset; read from the
# golden manifest
SHARPNESS_SHA256 = [
    golden_digest(f"sharpness-{seed}", f"sharpness-{seed}.json")
    for seed in golden.SEEDS]


@pytest.mark.parametrize("seed", range(len(SHARPNESS_SHA256)))
def test_sharpness_matches_golden_digests(tmp_path, capsys, seed):
    out = tmp_path / "sharp.json"
    assert run("sharpness", "--seed", str(seed), "--out", str(out)) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SHARPNESS_SHA256[seed]
    assert capsys.readouterr().out.strip() == (
        "lelong_one_third=True rank_checks=105 full=True m_seq=(5, 9, 12)")


# `lelong --out` files on the seed-0 certificates, first recorded when
# each form was expanded three times per listed point; read from the
# golden manifest
LELONG_SHA256 = {
    kind: golden_digest(f"{kind}-0/lelong", f"{kind}-0.lelong.json")
    for kind in ("generic12", "figure3", "conic7", "case3", "case4")}


def seed0_certificate(tmp_path, kind):
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    assert run("generate", "--kind", kind, "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    assert run("construct", "--input", str(inst),
               "--cert", str(cert)) == EXIT_OK
    return cert


@pytest.mark.parametrize("kind", sorted(LELONG_SHA256))
def test_lelong_matches_golden_digests(tmp_path, capsys, kind):
    cert = seed0_certificate(tmp_path, kind)
    out = tmp_path / "lelong.json"
    assert run("lelong", "--input", str(cert), "--out", str(out)) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LELONG_SHA256[kind]
    capsys.readouterr()


def spy_expansions(monkeypatch):
    """Counts of the full expansions, integer and Fraction, and of the
    order-and-cone reads, from every module that calls them."""
    calls = {"int_expansion": 0, "local_expansion": 0, "order_and_cone": 0}
    real_int = exactpoly.int_expansion
    real_expansion = HomPoly.local_expansion
    real_cone = exactpoly.order_and_cone

    def int_expansion(*args):
        calls["int_expansion"] += 1
        return real_int(*args)

    def expansion(self, *args, **kwargs):
        calls["local_expansion"] += 1
        return real_expansion(self, *args, **kwargs)

    def cone(*args):
        calls["order_and_cone"] += 1
        return real_cone(*args)
    monkeypatch.setattr(HomPoly, "local_expansion", expansion)
    for module in (exactpoly, curves, currents):
        monkeypatch.setattr(module, "int_expansion", int_expansion)
    for module in (exactpoly, curves):
        monkeypatch.setattr(module, "order_and_cone", cone)
    return calls


def spy_calls(monkeypatch, modules, name):
    """The argument tuples of every call of the function `name`, bound in
    each of `modules` (the first defines it)."""
    calls = []
    real = getattr(modules[0], name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


def test_lelong_expands_once_per_form_and_point_and_draws_directions_once(
        tmp_path, capsys, monkeypatch):
    """One integer expansion of each form per point feeds the verifier,
    the scale and the estimate: for the 12 points of the generic12
    certificate, 24 jets multiplied out on 24 shift tables, and no
    int_expansion, order-and-cone read or Fraction expansion of its own;
    a verifier reading the orders and cones off tables of its own would
    make 48. The sampling directions are drawn once, for every point and
    the growth. On the degree-60 sparse file no form vanishes at a listed
    point, so the same 24 tables give the 24 orders and cones, read before
    the t rows, and no jet is multiplied out."""
    cert = seed0_certificate(tmp_path, "generic12")
    sparse = tmp_path / "sparse.json"
    golden.write_sparse_certificate(cert, sparse, golden.SPARSE_DEGREE)
    assert len(serialize.load_certificate(str(cert)).points) == 12
    calls = spy_expansions(monkeypatch)
    tables = spy_calls(monkeypatch, [exactpoly], "_shift_tables")
    jets = spy_calls(monkeypatch, [exactpoly, currents], "_multiply_out")
    draws = spy_calls(monkeypatch, [currents, cli], "_directions")
    none = {"int_expansion": 0, "local_expansion": 0, "order_and_cone": 0}
    assert run("lelong", "--input", str(cert)) == EXIT_OK
    assert (calls, len(tables), len(jets)) == (none, 24, 24)
    assert draws == [(0,)]
    tables.clear()
    jets.clear()
    assert run("lelong", "--input", str(sparse)) == EXIT_VERIFICATION
    assert (calls, len(tables), len(jets)) == (none, 24, 0)
    capsys.readouterr()


def test_certify_makes_no_full_expansion(tmp_path, capsys, monkeypatch):
    cert = seed0_certificate(tmp_path, "generic12")
    calls = spy_expansions(monkeypatch)
    assert run("certify", "--input", str(cert)) == EXIT_OK
    assert calls == {"int_expansion": 0, "local_expansion": 0,
                     "order_and_cone": 24}
    capsys.readouterr()


def test_construct_reads_each_order_once(tmp_path, capsys, monkeypatch):
    """make_certificate reads both orders at each point in one pass and
    builds its report from that pass: 24 order-and-cone reads for the 12
    points of the generic12 certificate, where a second pass by the
    verifier would make 48."""
    inst = tmp_path / "inst.json"
    assert run("generate", "--kind", "generic12", "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    calls = spy_expansions(monkeypatch)
    assert run("construct", "--input", str(inst)) == EXIT_OK
    assert calls == {"int_expansion": 0, "local_expansion": 0,
                     "order_and_cone": 24}
    capsys.readouterr()


def spy_witness_curves(monkeypatch):
    """The degrees of the curves built through `config.curves_through`,
    the binding the m-sequence's witness curves are built by."""
    degrees = []
    real = config.curves_through

    def spy(points, degree):
        degrees.append(degree)
        return real(points, degree)
    monkeypatch.setattr(config, "curves_through", spy)
    return degrees


@pytest.mark.parametrize("argv, expected", [
    (("generate", "--kind", "generic12", "--seed", "0"), []),
    (("sharpness", "--seed", "0"), []),
    (("construct", "--input", "{inst}"), []),
    (("msequence", "--input", "{inst}"), [1, 2, 3]),
])
def test_witness_curves_only_where_read(tmp_path, capsys, monkeypatch,
                                        argv, expected):
    """generate and sharpness read only m1, m2 and m3, and construct on
    generic12 (m2 = 5, m3 = 9) reads no witness curve, so none is built;
    msequence reports all three."""
    inst = tmp_path / "inst.json"
    assert run("generate", "--kind", "generic12", "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    degrees = spy_witness_curves(monkeypatch)
    assert run(*(a.format(inst=inst) for a in argv)) == EXIT_OK
    assert degrees == expected
    capsys.readouterr()


def test_construct_builds_the_witness_conic_once(tmp_path, capsys,
                                                 monkeypatch):
    """At m2 = 7 both conic routes share the one witness conic."""
    inst = tmp_path / "inst.json"
    assert run("generate", "--kind", "conic7", "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    degrees = spy_witness_curves(monkeypatch)
    assert run("construct", "--input", str(inst)) == EXIT_OK
    assert degrees == [2]
    capsys.readouterr()


# where stdout goes: a pipe whose reading end is closed, and a full device
STDOUT_SINKS = ["closed pipe"] + ["/dev/full"] * os.path.exists("/dev/full")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("sink", STDOUT_SINKS)
def test_a_stdout_that_cannot_be_written_ends_in_a_documented_code(
        tmp_path, capsys, sink, buffered):
    """Each command, run as a process with its stdout at the sink, block
    buffered or not, exits with a documented code and prints no
    traceback."""
    inst = tmp_path / "inst.json"
    assert run("generate", "--kind", "generic12", "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    cert = seed0_certificate(tmp_path, "generic12")
    capsys.readouterr()
    argvs = [["generate", "--kind", "case4"], ["msequence", "--input", inst],
             ["linsys", "--input", inst, "--degree", "3"],
             ["construct", "--input", inst], ["certify", "--input", cert],
             ["lelong", "--input", cert], ["sharpness"],
             ["enumerate", "--n", "8"]]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in argvs:
        if sink == "closed pipe":
            read_end, out = os.pipe()
            os.close(read_end)
        else:
            out = os.open(sink, os.O_WRONLY)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lelongplane.cli", *map(str, argv)],
                env=env, stdout=out, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(out)
        assert done.returncode in DOCUMENTED_CODES, (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv
        assert done.stderr.startswith("cannot write stdout: "), argv


def test_unsupported_enum_bounds(capsys):
    assert run("enumerate", "--n", "13", "--cap", "2") == EXIT_PRECONDITION
    capsys.readouterr()


def test_lelong_estimates_within_tolerance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run("generate", "--kind", "conic7", "--seed", "1", "--out", str(inst))
    run("construct", "--input", str(inst), "--cert", str(cert))
    assert run("lelong", "--input", str(cert), "--seed", "0") == EXIT_OK
    assert "growth slope=" in capsys.readouterr().out


# certificates whose points have large coordinates: radii 2^-8 .. 2^-16 are
# not yet where the tangent cone dominates, and give pole errors 0.054-0.381
LARGE_COORDINATE_CERTIFICATES = [
    ("conic6", 0), ("conic7", 5), ("figure1", 1), ("case2", 0),
    ("figure2", 1), ("figure2", 3), ("figure3", 6)]


@pytest.mark.parametrize("kind,seed", LARGE_COORDINATE_CERTIFICATES)
def test_lelong_accepts_certificates_with_large_coordinates(tmp_path, capsys,
                                                             kind, seed):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run("generate", "--kind", kind, "--seed", str(seed),
               "--out", str(inst)) == EXIT_OK
    assert run("construct", "--input", str(inst),
               "--cert", str(cert)) == EXIT_OK
    assert run("certify", "--input", str(cert)) == EXIT_OK
    assert run("lelong", "--input", str(cert)) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_sweep_ends_in_a_documented_outcome(tmp_path, capsys, kind):
    """generate -> construct -> certify -> lelong at seeds 0-3: every step
    exits 0, or the run stops at a documented 2 (precondition) or 4
    (unsupported); never 1, never an uncaught exception. Today every kind
    ends in a certificate except example6lines, whose 15 points make
    `construct` exit 2."""
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    steps = [("generate", "--kind", kind, "--out", str(inst)),
             ("construct", "--input", str(inst), "--cert", str(cert)),
             ("certify", "--input", str(cert)),
             ("lelong", "--input", str(cert))]
    for seed in range(4):
        ends = []
        for step in steps:
            argv = list(step)
            if step[0] == "generate":
                argv += ["--seed", str(seed)]
            code = run(*argv)
            assert code in (EXIT_OK, EXIT_PRECONDITION, EXIT_UNSUPPORTED), \
                (step[0], seed, code)
            if code != EXIT_OK:
                ends.append((step[0], code))
                break
        if kind == "example6lines":
            assert ends == [("construct", EXIT_PRECONDITION)], seed
        else:
            assert ends == [], seed
    capsys.readouterr()


# SHA-256 of the `generate --out`, `msequence --out` and `construct --cert`
# files at seed 0, first recorded before the m-sequence search was
# rewritten; read from the golden manifest. example6lines has no
# certificate, since `construct` exits 2 on it
GOLDEN_SHA256 = {
    kind: (golden_digest(f"{kind}-0/generate", f"{kind}-0.inst.json"),
           golden_digest(f"{kind}-0/msequence", f"{kind}-0.msequence.json"),
           None if kind == "example6lines" else
           golden_digest(f"{kind}-0/construct", f"{kind}-0.cert.json"))
    for kind in INSTANCE_KINDS}


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_reports_match_golden_digests(tmp_path, capsys, kind):
    inst, ms, cert = (tmp_path / f"{name}.json"
                      for name in ("inst", "ms", "cert"))
    assert run("generate", "--kind", kind, "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    assert run("msequence", "--input", str(inst), "--out", str(ms)) == EXIT_OK
    code = run("construct", "--input", str(inst), "--cert", str(cert))
    want_inst, want_ms, want_cert = GOLDEN_SHA256[kind]
    assert hashlib.sha256(inst.read_bytes()).hexdigest() == want_inst
    assert hashlib.sha256(ms.read_bytes()).hexdigest() == want_ms
    if want_cert is None:
        assert code == EXIT_PRECONDITION and not cert.exists()
    else:
        assert code == EXIT_OK
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == want_cert
    capsys.readouterr()


# instances on which sympy's LLL used to leave mu unreduced and fail its own
# final check, so that `construct` ended in an uncaught AssertionError
FORMER_LLL_FAILURES = [("figure3", 2), ("figure4", 2), ("figure4", 3),
                       ("figure5", 2), ("figure5", 3)]


@pytest.mark.parametrize("kind,seed", FORMER_LLL_FAILURES)
def test_pipeline_on_former_lll_failures(tmp_path, capsys, kind, seed):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run("generate", "--kind", kind, "--seed", str(seed),
               "--out", str(inst)) == EXIT_OK
    assert run("construct", "--input", str(inst),
               "--cert", str(cert)) == EXIT_OK
    assert "certificate gamma=6" in capsys.readouterr().out
    assert run("certify", "--input", str(cert)) == EXIT_OK
    assert run("lelong", "--input", str(cert)) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["conic7", "case3", "case4"])
def test_sextic_linsys_with_six_double_points(tmp_path, capsys, kind):
    inst = tmp_path / "inst.json"
    out = tmp_path / "linsys.json"
    assert run("generate", "--kind", kind, "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    assert run("linsys", "--input", str(inst), "--degree", "6",
               "--double", "1,2,3,4,5,6", "--out", str(out)) == EXIT_OK
    assert "degree=6" in capsys.readouterr().out
    points = serialize.load_instance(inst).point_set.points
    doc = json.loads(out.read_text())
    basis = [serialize.decode_poly(p) for p in doc["kernel_basis"]]
    assert len(basis) == 28 - doc["matrix_rank"] >= 1
    for member in basis:
        assert all(vanishing_order(member, x) >= 2 for x in points[:6])
        assert all(vanishing_order(member, x) >= 1 for x in points[6:])


# `linsys --out` files on the seed-0 instances for the systems of the
# benchmark, recorded when the condition rows, the RREF and the LLL ran in
# Fractions: (kind, degree, doubled labels) -> (SHA-256, stdout). The
# degree-6 systems are in the golden sweep, and read from its manifest
LINSYS_SHA256 = {
    ("generic12", 3, ""): (
        "96736fad67a567a67739e959ab5c41fe977dd7c7d59015a4a2ff06951ba181af",
        "degree=3 rank=10 dim=0"),
    ("generic12", 6, "1,2,3,4,5,6"): (
        golden_digest("generic12-0/linsys", "generic12-0.linsys.json"),
        "degree=6 rank=24 dim=4"),
    ("figure3", 3, ""): (
        "c0bff454454150758d68a6bbf15e89a3d2ae498beb4772e2eb918528d06aa785",
        "degree=3 rank=10 dim=0"),
    ("figure3", 6, "1,2,3,4,5,6"): (
        golden_digest("figure3-0/linsys", "figure3-0.linsys.json"),
        "degree=6 rank=23 dim=5"),
    ("conic7", 3, ""): (
        "797f9a589f64854898b65332ed778342bc167161709f3d23a7aa6f163df1531e",
        "degree=3 rank=10 dim=0"),
    ("conic7", 4, ""): (
        "dca72ae6657cff3efa494c5bebf95c0d3cb039dbc987d3f7be229a8210b6c127",
        "degree=4 rank=12 dim=3"),
    ("case3", 3, ""): (
        "7ed56fc19444bb920ff83c4afb52df24271f311a4ac4a6074954088987845fdb",
        "degree=3 rank=10 dim=0"),
    ("case3", 4, ""): (
        "66d7001a30203e2e6116e95dabff9a1a4c4d2f57d3b68f0cbfc10cf0695b86e7",
        "degree=4 rank=12 dim=3"),
    ("case4", 3, ""): (
        "4684372431699b8d9144e940a5f7f667cd2f84fc85593190bdc2ea612db8b810",
        "degree=3 rank=10 dim=0"),
    ("case4", 4, ""): (
        "c880be2f76c555bbcc2c7929bc072cc1f6ab0a549b328b8fb0100fac0b6def69",
        "degree=4 rank=12 dim=3"),
}


@pytest.mark.parametrize("kind,degree,double", sorted(LINSYS_SHA256))
def test_linsys_matches_golden_digests(tmp_path, capsys, kind, degree,
                                       double):
    inst = tmp_path / "inst.json"
    out = tmp_path / "linsys.json"
    assert run("generate", "--kind", kind, "--seed", "0",
               "--out", str(inst)) == EXIT_OK
    capsys.readouterr()
    assert run("linsys", "--input", str(inst), "--degree", str(degree),
               "--double", double, "--out", str(out)) == EXIT_OK
    digest, stdout = LINSYS_SHA256[(kind, degree, double)]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.strip() == stdout


def extreme_scale_certificate(tmp_path, p_coeff, q_coeff):
    """P = a X^2 Z + X^3 and Q = b Y Z^2 listed at (0:0:1), where the
    tangent cone Q dominates below radius about 1 / a and up to radius
    about b: a verified certificate whose scale is beyond floats when a or
    b has 2000 bits."""
    p = HomPoly(3, {(2, 0, 1): p_coeff, (3, 0, 0): 1})
    q = HomPoly(3, {(0, 1, 2): q_coeff})
    cert = make_certificate(p, q, [ProjPoint(0, 0, 1)], "extreme_scale")
    assert cert is not None and cert.points[0][1] == 1
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    return path


def test_lelong_refuses_samples_that_overflow_floats(tmp_path, capsys):
    """X^60 (Z + X / 2^100) and Y^60 (Z + Y / 2^100) at (0:0:1): rho* is
    capped at 2^16, and the 60th powers of the samples at radius 2^12
    overflow, so `lelong` exits 2 (it raised OverflowError before)."""
    c = Fraction(1, 2 ** 100)
    cert = make_certificate(HomPoly(61, {(60, 0, 1): 1, (61, 0, 0): c}),
                            HomPoly(61, {(0, 60, 1): 1, (0, 61, 0): c}),
                            [ProjPoint(0, 0, 1)], "extreme_scale")
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("lelong", "--input", str(path)) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert "leave the range of floats" in captured.err
    assert captured.out == ""


def test_lelong_refuses_a_scale_too_small_for_floats(tmp_path, capsys):
    """rho* = 2^-2000: the samples would underflow, so `lelong` exits 2
    with the scale named, not in a traceback on log 0."""
    path = extreme_scale_certificate(tmp_path, 2 ** 2000, 1)
    assert run("certify", "--input", str(path)) == EXIT_OK
    capsys.readouterr()
    assert run("lelong", "--input", str(path)) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert "below radius 2^-2000" in captured.err
    assert captured.out == ""


def test_lelong_caps_a_scale_too_large_for_floats(tmp_path, capsys):
    """rho* = 2^2000 is capped at 2^16, where the cone still dominates: the
    pole estimate is right. Growth at radii up to 2^16 still sees only Q,
    so `lelong` exits 3 on the growth slope, not in an OverflowError."""
    path = extreme_scale_certificate(tmp_path, 1, 2 ** 2000)
    assert run("certify", "--input", str(path)) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "lelong.json"
    assert run("lelong", "--input", str(path),
               "--out", str(out)) == EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert "estimates off" in captured.err
    assert captured.out == ("point ('0', '0', '1') claimed=1 slope=1.0000\n"
                            "growth slope=1.0000 claimed=3\n")
    (pole,) = json.loads(out.read_text())["poles"]
    assert max(float(r) for r in pole["radii"]) < 2 ** 12
    assert abs(float(pole["extrapolated"]) - 1) < 0.05


def test_lelong_prints_the_points_before_a_failing_point(tmp_path, capsys):
    """X (2^2000 Z^2 + Y^2) and YZ (Y + Z): at (0:0:1) the cone 2^2000 x
    dominates and the pole line is printed; at (0:1:0) the cone x dominates
    only below radius 2^-1000, and `lelong` exits 2 after that line."""
    cert = make_certificate(HomPoly(3, {(1, 0, 2): 2 ** 2000, (1, 2, 0): 1}),
                            HomPoly(3, {(0, 2, 1): 1, (0, 1, 2): 1}),
                            [ProjPoint(0, 0, 1), ProjPoint(0, 1, 0)],
                            "extreme_scale")
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("lelong", "--input", str(path)) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "point ('0', '0', '1') claimed=1 slope=1.0000\n"
    assert "below radius 2^-1000" in captured.err


def test_lelong_prints_the_points_before_a_failing_growth(tmp_path, capsys):
    """XZ^69 + Y^70 and YZ^69 + X^70: the pole at (0:0:1) is estimated and
    printed, then |P|^2 overflows floats at growth radius 2^8, and `lelong`
    exits 2 after the pole line."""
    cert = make_certificate(HomPoly(70, {(1, 0, 69): 1, (0, 70, 0): 1}),
                            HomPoly(70, {(0, 1, 69): 1, (70, 0, 0): 1}),
                            [ProjPoint(0, 0, 1)], "extreme_scale")
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("lelong", "--input", str(path)) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "point ('0', '0', '1') claimed=1 slope=1.0000\n"
    assert "samples at radius 256 leave the range" in captured.err


def engineered_certificate(tmp_path):
    """X^2 and YZ meet at (0:1:0) and (0:0:1), each of weight 1 and
    multiplicity 2; returns the file and its JSON document."""
    cert = make_certificate(HomPoly.monomial((2, 0, 0)),
                            HomPoly.monomial((0, 1, 1)),
                            [ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)],
                            "engineered")
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    return path, json.loads(path.read_text())


def test_certify_rejects_repeated_points(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    assert run("certify", "--input", str(path)) == EXIT_OK
    # each point five times: weight 10 against gamma 2, and the listed
    # multiplicities sum to 20 > 2 * 2
    doc["points"] = doc["points"] * 5
    path.write_text(json.dumps(doc))
    assert run("certify", "--input", str(path)) == EXIT_VERIFICATION
    capsys.readouterr()


def test_certify_rejects_negative_scale(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    doc["r"] = -1
    doc["gamma_u"] = "-2"
    for entry in doc["points"]:
        entry["weight"] = "-1"
    path.write_text(json.dumps(doc))
    assert run("certify", "--input", str(path)) == EXIT_PARSE
    capsys.readouterr()


def test_certify_rejects_zero_or_boolean_scale(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    for r in (0, True):
        doc["r"] = r
        path.write_text(json.dumps(doc))
        assert run("certify", "--input", str(path)) == EXIT_PARSE
    capsys.readouterr()


def test_certify_rejects_non_integer_exponents(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    for bad in ("2", True, 1.5, -1):
        edited = json.loads(json.dumps(doc))
        edited["p"]["terms"][0][0] = bad
        path.write_text(json.dumps(edited))
        assert run("certify", "--input", str(path)) == EXIT_PARSE
    edited = json.loads(json.dumps(doc))
    edited["q"]["terms"][0][3] = None
    path.write_text(json.dumps(edited))
    assert run("certify", "--input", str(path)) == EXIT_PARSE
    capsys.readouterr()


def test_lelong_rejects_certificate_that_fails_verification(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    doc["points"] = doc["points"] * 5
    path.write_text(json.dumps(doc))
    assert run("lelong", "--input", str(path)) == EXIT_VERIFICATION
    assert "failed independent verification" in capsys.readouterr().err


def test_lelong_verifies_instead_of_reading_the_flag(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    doc["verified"] = False
    path.write_text(json.dumps(doc))
    assert run("lelong", "--input", str(path)) == EXIT_OK
    assert "growth slope=" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_lelong_refuses_a_tolerance_no_estimate_can_meet(tmp_path, capsys,
                                                         tolerance):
    # nan passed every estimate and -1 failed a valid certificate
    path, _ = engineered_certificate(tmp_path)
    assert run("lelong", "--input", str(path),
               "--tolerance", tolerance) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("precondition failure: tolerance must be finite and "
                   f">= 0, got {float(tolerance)}\n")


def test_certify_rejects_multiplicity_below_order_product(tmp_path, capsys,
                                                          monkeypatch):
    path, _ = engineered_certificate(tmp_path)
    assert run("certify", "--input", str(path)) == EXIT_OK
    real = construct._orders_and_mu

    def short(p, q, x, with_mu=True):
        op, oq, mu = real(p, q, x, with_mu)
        return op, oq, op * oq - 1

    # every claimed weight still matches and the sum stays within Bezout;
    # only mu >= ord P * ord Q fails
    monkeypatch.setattr(construct, "_orders_and_mu", short)
    assert run("certify", "--input", str(path)) == EXIT_VERIFICATION
    assert "points_ok=0/2" in capsys.readouterr().out


def test_jobs_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run("enumerate", "--n", "12", "--cap", "2", "--jobs", "2")
    assert exc.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_a_well_formed_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    """`command (--flag value)*` is parsed from the COMMANDS table; a usage
    error and help build the whole parser, which writes their text."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run("certify", "--input", str(tmp_path / "none.json")) == EXIT_PARSE
    assert built == []
    for argv, code in ((["certify", "--input"], 2), (["--help"], 0)):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == code
        assert len(built) == 9  # the program and its eight commands
    capsys.readouterr()


@functools.cache
def full_parser():
    return build_parser()


def argparse_namespace(argv):
    """What the whole parser makes of argv: a namespace, or None where it
    exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return full_parser().parse_args(argv)
        except SystemExit:
            return None


_ALL_FLAGS = sorted({flag for _, _, arguments in COMMANDS.values()
                     for flag, _ in arguments} | {"--out"})
_VALUES = ["", "-1", "nan", "1e400", "\u0663", " 5 ", "5", "0", "x", "1,2",
           "--", "-h", "-"]
_TOKENS = _ALL_FLAGS + ["-h", "--help", "--", "--inp", "--out=x"] + _VALUES


def _pair(flag, keywords):
    """`flag` with a value that its type and choices take, or with a value
    that may break them."""
    typical = keywords.get("choices") or [{int: "3", float: "0.5"}.get(
        keywords.get("type"), "f.json")]
    return st.tuples(st.just(flag), st.one_of(st.sampled_from(typical),
                                              st.sampled_from(_VALUES)))


def _argvs(command):
    """`command` with its required flags (or all but the first), some of
    its other flags and maybe one flag again, each with a value, in any
    order, and maybe one token of any kind put anywhere."""
    arguments = COMMANDS[command][2] + [("--out", {})]
    required = [a for a in arguments if a[1].get("required")]
    optional = [a for a in arguments if not a[1].get("required")]
    pairs = st.tuples(
        st.sampled_from([required, required[1:]]),
        st.lists(st.sampled_from(optional), unique_by=lambda a: a[0]),
        st.lists(st.sampled_from(arguments), max_size=1)).flatmap(
        lambda drawn: st.tuples(*[_pair(*a) for part in drawn for a in part]))
    noise = st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_TOKENS)),
                     max_size=1)
    return st.tuples(pairs.flatmap(st.permutations), noise).map(
        lambda drawn: _argv(command, *drawn))


def _argv(command, pairs, noise):
    argv = [command] + [token for pair in pairs for token in pair]
    for at, token in noise:
        argv.insert(at, token)
    return argv


# argvs of one command come up twice as often as loose tokens
@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(argv=st.one_of(st.sampled_from(sorted(COMMANDS)).flatmap(_argvs),
                      st.lists(st.sampled_from(sorted(COMMANDS) + _TOKENS
                                               + ["bogus"]), max_size=3),
                      st.sampled_from(sorted(COMMANDS)).flatmap(_argvs)))
def test_the_table_parse_agrees_with_argparse(argv):
    """parse_table never takes an argv that argparse refuses, and where it
    takes one, both give the same command, handler and values (compared
    by repr, since NaN != NaN)."""
    got = parse_table(argv)
    if got is None:
        return
    want = argparse_namespace(argv)
    assert want is not None
    assert ({k: repr(v) for k, v in vars(got).items()}
            == {k: repr(v) for k, v in vars(want).items()})


@pytest.mark.parametrize("argv", [["enumerate", "--n", "3"], ["bogus"],
                                  ["certify", "--input", "none.json", "x"]])
def test_console_script_reads_sys_argv(capsys, monkeypatch, argv):
    def outcome(*args):
        try:
            code = main(*args)
        except SystemExit as exc:  # argparse: help and usage
            code = exc.code
        return code, capsys.readouterr()

    monkeypatch.setattr(sys, "argv", ["lelongplane"] + argv)
    assert outcome() == outcome(argv)


def test_certify_rejects_unequal_degrees(tmp_path, capsys):
    # Y^2 and X^3 meet only at (0:0:1), with weight min(2, 3) = 2 there and
    # mu = 6 <= 2 * 3; gamma = deg P = 2, but u grows like 3 log|z|
    cert = PotentialCertificate(
        p=HomPoly.monomial((0, 2, 0)), q=HomPoly.monomial((3, 0, 0)), r=1,
        points=((ProjPoint(0, 0, 1), Fraction(2)),), gamma_u=Fraction(2),
        case_tag="unequal", verified=True)
    assert not verify_certificate(cert).verified
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("certify", "--input", str(path)) in (EXIT_VERIFICATION,
                                                    EXIT_PARSE)
    assert run("lelong", "--input", str(path)) in (EXIT_VERIFICATION,
                                                   EXIT_PARSE)
    capsys.readouterr()


@pytest.mark.parametrize("p,q,orders", [
    (HomPoly.zero(3), HomPoly.zero(3), ("inf", "inf", False)),
    (HomPoly.zero(0), HomPoly.zero(0), ("inf", "inf", False)),
    (HomPoly.zero(1), HomPoly.monomial((1, 0, 0)), ("inf", 1, True))])
def test_zero_forms_fail_verification(tmp_path, capsys, p, q, orders):
    """A zero form shares every component, so the pair is not discrete. Two
    zero forms vanish to infinite order everywhere: no listed point has a
    finite weight, and both commands exit 3 where they once crashed."""
    cert = PotentialCertificate(
        p=p, q=q, r=1, points=((ProjPoint(0, 0, 1), Fraction(1)),),
        gamma_u=Fraction(p.degree), case_tag="zero", verified=True)
    path, out = tmp_path / "cert.json", tmp_path / "report.json"
    serialize.dump(cert, path)
    assert run("certify", "--input", str(path),
               "--out", str(out)) == EXIT_VERIFICATION
    report = json.loads(out.read_text())
    assert not report["verified"] and not report["discrete"]
    assert [(c["ord_p"], c["ord_q"], c["ok"]) for c in report["per_point"]] \
        == [orders]
    capsys.readouterr()
    assert run("lelong", "--input", str(path)) == EXIT_VERIFICATION
    assert "failed independent verification" in capsys.readouterr().err


def test_verifier_rejects_zero_forms_of_unequal_degrees():
    cert = PotentialCertificate(
        p=HomPoly.zero(2), q=HomPoly.zero(4), r=1,
        points=((ProjPoint(1, 2, 3), Fraction(1)),), gamma_u=Fraction(2),
        case_tag="zero", verified=True)
    report = verify_certificate(cert)
    assert not report.verified and not report.per_point[0].ok


def test_certify_rejects_a_sparse_degree_400_certificate_in_seconds(
        tmp_path, capsys):
    """P = X^400 + Z^400 and Q = Y^400 - Z^400 with generic12's seed-0
    points, weights and gamma = 400. Neither form vanishes at a listed
    point, so every point fails at level 0 of the shift. Shift rows for
    every exponent up to 400, at each form and point, take about ten
    seconds; rows for the exponents present take well under one, so the
    bound tells the two apart."""
    cert = seed0_certificate(tmp_path, "generic12")
    sparse = tmp_path / "sparse.json"
    golden.write_sparse_certificate(cert, sparse, 400)
    capsys.readouterr()
    start = time.perf_counter()
    assert run("certify", "--input", str(sparse)) == EXIT_VERIFICATION
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.strip() == (
        "discrete=True points_ok=0/12 verified=False")


def test_certify_rejects_boolean_degree(tmp_path, capsys):
    # JSON true is an int to isinstance, and would load as degree 1
    cert = make_certificate(HomPoly.monomial((1, 0, 0)),
                            HomPoly.monomial((0, 1, 0)),
                            [ProjPoint(0, 0, 1)], "lines")
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("certify", "--input", str(path)) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["p"]["degree"] = True
    path.write_text(json.dumps(doc))
    assert run("certify", "--input", str(path)) == EXIT_PARSE
    capsys.readouterr()


def test_certify_rejects_duplicate_exponents(tmp_path, capsys):
    path, doc = engineered_certificate(tmp_path)
    # a second X^2 term would otherwise replace the first without a word
    doc["p"]["terms"].append([2, 0, 0, "5"])
    path.write_text(json.dumps(doc))
    assert run("certify", "--input", str(path)) == EXIT_PARSE
    capsys.readouterr()


def tangent_chain_certificate(k):
    """P = Z (Y^k Z - X^(k+1)) and Q = P - X^(k+2) at (0:0:1), of weight k
    and gamma k + 2. Both tangent cones are Y^k, so the reduction decides
    mu = I(P, X^(k+2)) = k (k + 2), at most (k + 2)^2."""
    p = HomPoly(k + 2, {(0, k, 2): 1, (k + 1, 0, 1): -1})
    q = HomPoly(k + 2, {(0, k, 2): 1, (k + 1, 0, 1): -1, (k + 2, 0, 0): -1})
    return PotentialCertificate(
        p=p, q=q, r=1, points=((ProjPoint(0, 0, 1), Fraction(k)),),
        gamma_u=Fraction(k + 2), case_tag="tangent_chain", verified=True)


def jet_report_certificates():
    """(name, certificate) for the verifier cases of `lelong`: the seed-0
    certificate of every constructible kind; the order-100 tangent chain,
    whose cones share a line, so the reduction decides mu; and generic12's
    with its first weight set to 2, and with P the zero form."""
    certs = {}
    # the 15 points of example6lines carry no certificate
    for kind in (k for k in INSTANCE_KINDS if k != "example6lines"):
        inst = generate(kind, 0)
        certs[kind] = construct_certificate(
            inst.point_set, extra=inst.extra).certificate
        yield kind, certs[kind]
    generic = certs["generic12"]
    yield "tangent_chain", tangent_chain_certificate(100)
    (x, _), *rest = generic.points
    yield "weight_2", generic.replace(points=((x, Fraction(2)), *rest))
    yield "zero_p", generic.replace(p=HomPoly.zero(generic.p.degree))


def test_lelong_verifies_from_its_jets_as_certify_does():
    """The report `lelong` reads off its jets is `verify_certificate`'s, to
    the byte, on every case of `jet_report_certificates`."""
    names = []
    for name, cert in jet_report_certificates():
        names.append(name)
        want = verify_certificate(cert)
        jets, got = currents.jet_verification(cert)
        assert got == want and serialize.dumps(got) == serialize.dumps(want)
        assert len(jets) == len(cert.points)
        if name == "tangent_chain":
            assert got.verified
            assert got.per_point[0].multiplicity == 100 * 102
        if name == "weight_2":
            assert got.discrete and not got.verified
            assert [c.ok for c in got.per_point].count(False) == 1
        if name == "zero_p":
            assert not got.discrete
            assert {c.ord_p for c in got.per_point} == {math.inf}
    assert len(names) == 14


def test_a_long_tangent_chain_is_certified(tmp_path, capsys):
    """The reduction divides by Y 2k times here; as a recursion it passed
    Python's limit at k = 500, and both commands ended in a
    RecursionError."""
    for k in (100, 500):
        cert = tangent_chain_certificate(k)
        assert curves.intersection_multiplicity(
            cert.p, cert.q, ProjPoint(0, 0, 1)) == k * (k + 2)
    path = tmp_path / "cert.json"
    serialize.dump(cert, path)
    assert run("certify", "--input", str(path)) == EXIT_OK
    assert "points_ok=1/1" in capsys.readouterr().out
    assert run("lelong", "--input", str(path)) == EXIT_PRECONDITION
    assert "leave the range of floats" in capsys.readouterr().err


# --------------------------------------------------------------------------
# crafted certificate files: mutations of the generic12 seed-0 certificate


@functools.cache
def generic12_document():
    inst = generate("generic12", 0)
    cert = construct_certificate(inst.point_set, extra=inst.extra).certificate
    return serialize.dumps(cert)


def _node(doc, path):
    """The list or dict that holds path[-1] in doc, or None where an
    earlier mutation took the path away."""
    node = doc
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return None
    last = path[-1]
    if isinstance(node, dict) and last in node or (
            isinstance(node, list) and isinstance(last, int)
            and last < len(node)):
        return node
    return None


def _mutate(doc, mutation):
    op, path, value = mutation
    if op == "rescale":  # r = value, with weights and gamma over value
        doc["r"] = value
        doc["gamma_u"] = str(Fraction(doc["gamma_u"]) / value)
        for entry in doc["points"]:
            entry["weight"] = str(Fraction(entry["weight"]) / value)
        return
    node = _node(doc, path)
    if node is None:
        return
    old = node[path[-1]]
    if op == "set":
        node[path[-1]] = value
    elif op == "drop":
        del node[path[-1]]
    elif op == "repeat" and isinstance(node, list):
        node.append(old)
    elif op == "wrap":  # a scalar, or anything, becomes a list
        node[path[-1]] = [old]
    elif op == "unwrap" and isinstance(old, list):
        node[path[-1]] = old[0] if old else 0
    elif op == "exponent" and isinstance(old, list) and len(old) == 4:
        # move X^value into the Z exponent: one term of another monomial
        node[path[-1]] = [old[0] + value, old[1], old[2] - value, old[3]]


def mutated(mutations):
    doc = json.loads(generic12_document())
    # rescaling reads r, gamma and the weights, so it runs before the rest
    for mutation in sorted(mutations, key=lambda m: m[0] != "rescale"):
        _mutate(doc, mutation)
    return doc


_PATHS = ([("r",), ("gamma_u",), ("type",), ("verified",), ("points",),
           ("p",), ("q",), ("schema_version",)]
          + [("points", i) for i in (0, 5, 11)]
          + [("points", i, "weight") for i in (0, 7)]
          + [("points", i, "point") for i in (1, 11)]
          + [("points", 2, "point", c) for c in range(3)]
          + [(f, key) for f in "pq" for key in ("degree", "terms")]
          + [(f, "terms", i) for f in "pq" for i in (0, 9)]
          + [(f, "terms", 3, c) for f in "pq" for c in (0, 3)])
_NUMBERS = ["0", "1", "2", "1/2", "-1", "3", "6", "12"]
MUTATIONS = st.one_of(
    # types, and lists <-> scalars
    st.tuples(st.just("set"), st.sampled_from(_PATHS), st.sampled_from(
        [None, True, 0, 1, 5, "x", "1/0", [], {}, [1], ["1", "2", "3"]])),
    st.tuples(st.sampled_from(["wrap", "unwrap"]), st.sampled_from(_PATHS),
              st.none()),
    # weights, gamma and r
    st.tuples(st.just("set"), st.sampled_from(
        [("gamma_u",)] + [("points", i, "weight") for i in (0, 3, 11)]),
        st.sampled_from(_NUMBERS)),
    st.tuples(st.just("set"), st.just(("r",)), st.integers(1, 3)),
    st.tuples(st.just("rescale"), st.none(), st.integers(2, 4)),
    # dropped or repeated points and terms
    st.tuples(st.sampled_from(["drop", "repeat"]), st.sampled_from(
        [("points", i) for i in (0, 6, 11)]
        + [(f, "terms", i) for f in "pq" for i in (0, 12)]), st.none()),
    # degrees: another monomial in one term, or another degree
    st.tuples(st.just("exponent"), st.sampled_from(
        [(f, "terms", i) for f in "pq" for i in (0, 4, 17)]),
        st.integers(-2, 2)),
    st.tuples(st.just("set"), st.sampled_from([("p", "degree"),
                                               ("q", "degree")]),
              st.integers(0, 8)))


# many accepted mutations leave P and Q as they are
oracle_multiplicity = functools.cache(curves.resultant_multiplicity)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.lists(MUTATIONS, min_size=1, max_size=2).map(mutated))
@example(doc=json.loads(serialize.dumps(tangent_chain_certificate(500))))
def test_crafted_certificates_end_in_a_documented_code(doc):
    """certify and lelong on a mutated certificate file exit 0, 2, 3, 4 or
    5, never in a traceback; where certify accepts the file, every weight
    is min(ord P, ord Q) / r and gamma is deg P / r, and up to degree 8
    the verifier's multiplicity at each point is the resultant oracle's,
    whose sum obeys Bezout (the order-500 tangent chain is past the
    oracle's reach). The first draw builds the generic12 certificate,
    which the health check would count as slow data generation."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            certified = run("certify", "--input", str(path))
            assert run("lelong", "--input", str(path)) in DOCUMENTED_CODES
        assert certified in DOCUMENTED_CODES
        if certified == EXIT_OK:
            cert = serialize.load_certificate(path)
            for x, weight in cert.points:
                assert weight == Fraction(min(vanishing_order(cert.p, x),
                                              vanishing_order(cert.q, x)),
                                          cert.r)
            assert cert.gamma_u == Fraction(cert.p.degree, cert.r)
            if cert.p.degree <= 8:
                oracle = [oracle_multiplicity(cert.p, cert.q, x)
                          for x, _ in cert.points]
                assert [c.multiplicity for c in verify_certificate(
                    cert).per_point] == oracle
                assert sum(oracle) <= cert.p.degree * cert.q.degree

# --------------------------------------------------------------------------
# refusals an instance file can reach


def write_instance(path, points, extra=None):
    serialize.dump({"type": "instance", "kind": "custom", "seed": 0,
                    "points": [serialize.encode_point(x) for x in points],
                    "m_seq": [],
                    "extra": serialize.encode_point(extra)
                    if extra is not None else None}, path)


@pytest.mark.parametrize("field,value,message", [
    ("lines", 5, "field 'lines' has the wrong type"),
    ("seed", True, "field 'seed' has the wrong type")], ids=["lines", "seed"])
def test_instance_fields_are_checked(tmp_path, capsys, field, value,
                                     message):
    """`"lines": 5` made `msequence` and `construct` end in an uncaught
    TypeError (exit 1), and `"seed": true` loaded as seed 1."""
    inst = tmp_path / "inst.json"
    assert run("generate", "--kind", "case3", "--out", str(inst)) == EXIT_OK
    doc = json.loads(inst.read_text())
    assert field in doc
    doc[field] = value
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("msequence", "construct"):
        assert run(command, "--input", str(inst)) == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {message}\n"


def with_raw_value(doc, path, raw):
    """The JSON text of doc with the value at path written as the raw JSON
    text `raw`, such as 1e400, which json.dumps cannot write."""
    node = _node(doc, path)
    node[path[-1]] = "@raw@"
    return json.dumps(doc).replace('"@raw@"', raw)


@pytest.mark.parametrize("raw", ["1e400", "-Infinity", "true"])
def test_msequence_refuses_a_coordinate_that_is_not_rational(tmp_path,
                                                            capsys, raw):
    """JSON reads 1e400 and Infinity as float infinities, whose Fraction
    raised OverflowError (exit 1, with a traceback), and `true` loaded as
    the coordinate 1."""
    inst = tmp_path / "inst.json"
    doc = json.loads(serialize.dumps(generate("generic12", 0)))
    inst.write_text(with_raw_value(doc, ("points", 3, 0), raw))
    capsys.readouterr()
    assert run("msequence", "--input", str(inst)) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: not a rational number: {json.loads(raw)!r}\n")


@pytest.mark.parametrize("path", [("points", 2, "point", 0),
                                  ("p", "terms", 3, 3)],
                         ids=["coordinate", "coefficient"])
def test_certify_refuses_a_number_past_the_float_range(tmp_path, capsys,
                                                       path):
    cert = tmp_path / "cert.json"
    cert.write_text(with_raw_value(json.loads(generic12_document()), path,
                                   "1e400"))
    capsys.readouterr()
    assert run("certify", "--input", str(cert)) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "parse error: not a rational number: inf\n")


def test_certify_refuses_exponent_notation_at_once(tmp_path, capsys):
    """Reading the coefficient "1e10000000" took about 9 s, and a longer
    exponent held the loader for minutes."""
    doc = json.loads(generic12_document())
    doc["p"]["terms"][3][3] = "1e10000000"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.perf_counter()
    assert run("certify", "--input", str(cert)) == EXIT_PARSE
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "parse error: exponent notation is not accepted: '1e10000000'\n")


def test_a_path_that_cannot_be_read_or_written_exits_5(tmp_path, capsys):
    """A directory as --input or --out, and an --input file that is not
    UTF-8, ended in a traceback (exit 1); an --out in a directory that
    does not exist was reported as a missing file."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"type": "caf\u00e9"}'.encode("latin-1"))
    eisdir = os.strerror(errno.EISDIR)
    directory = f"cannot open {tmp_path}: {eisdir}"
    nodir = tmp_path / "nodir" / "x.json"
    for argv, message in (
            (["certify", "--input", str(tmp_path)], directory),
            (["msequence", "--input", str(tmp_path)], directory),
            (["certify", "--input", str(latin1)], f"not UTF-8 text: {latin1}"),
            (["generate", "--kind", "generic12", "--out", str(tmp_path)],
             f"cannot write {tmp_path}: {eisdir}"),
            (["generate", "--kind", "generic12", "--out", str(nodir)],
             f"cannot write {nodir}: {os.strerror(errno.ENOENT)}")):
        assert run(*argv) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"parse error: {message}\n")
    assert run("certify", "--input", str(tmp_path / "none.json")) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: missing file {tmp_path / 'none.json'}\n")


def test_a_certificate_that_cannot_be_written_leaves_no_report(tmp_path,
                                                               capsys):
    """construct writes the certificate before the report: a --cert that
    is a directory exits 5, and no report claims the certificate."""
    inst = tmp_path / "conic7.json"
    assert run("generate", "--kind", "conic7", "--seed", "1",
               "--out", str(inst)) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert run("construct", "--input", str(inst), "--cert", str(tmp_path),
               "--out", str(report)) == EXIT_PARSE
    assert not report.exists()
    assert capsys.readouterr() == ("", f"parse error: cannot write "
                                   f"{tmp_path}: {os.strerror(errno.EISDIR)}\n")


# --------------------------------------------------------------------------
# crafted instance files: mutations of the generic12 seed-0 instance


@functools.cache
def generic12_instance():
    return serialize.dumps(generate("generic12", 0))


def mutated_instance(mutations):
    doc = json.loads(generic12_instance())
    for mutation in mutations:
        _mutate(doc, mutation)
    return doc


_INSTANCE_PATHS = ([("points",), ("seed",), ("kind",), ("type",), ("lines",),
                    ("m_seq",), ("extra",), ("schema_version",)]
                   + [("points", i) for i in (0, 5, 11)]
                   + [("points", 2, c) for c in range(3)])
_LINE = {"degree": 1, "terms": [[1, 0, 0, "1"], [0, 0, 1, "-2"]]}
INSTANCE_MUTATIONS = st.one_of(
    # types, lists <-> scalars, and forms of other degrees in `lines`
    st.tuples(st.just("set"), st.sampled_from(_INSTANCE_PATHS),
              st.sampled_from([None, True, 0, 1, 5, 1e400, "x", "1/0", [],
                               {}, [1], ["1", "2", "3"], ["0", "0", "0"],
                               [_LINE], [dict(_LINE, degree=2)]])),
    st.tuples(st.sampled_from(["wrap", "unwrap"]),
              st.sampled_from(_INSTANCE_PATHS), st.none()),
    # other coordinates, which may repeat a point or put five on a line
    st.tuples(st.just("set"), st.sampled_from(
        [("points", i, c) for i in (1, 2, 11) for c in range(3)]),
        st.sampled_from(_NUMBERS + ["24/7", "18/7", "-1/2"])),
    st.tuples(st.just("set"), st.sampled_from([("extra",), ("points", 4)]),
              st.sampled_from([["1", "0", "0"], ["-1", "0", "1"],
                               ["24/7", "18/7", "1"]])),
    # dropped or repeated points
    st.tuples(st.sampled_from(["drop", "repeat"]), st.sampled_from(
        [("points", i) for i in (0, 6, 11)]), st.none()))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.lists(INSTANCE_MUTATIONS, min_size=1, max_size=2).map(
    mutated_instance))
@example(doc=mutated_instance([("set", ("lines",), 5)]))
@example(doc=mutated_instance([("set", ("seed",), True)]))
@example(doc=mutated_instance([("set", ("points", 2, 0), 1e400)]))
@example(doc=mutated_instance([("set", ("points", 2, 1), True)]))
def test_crafted_instances_end_in_a_documented_code(doc):
    """msequence, construct and linsys on a mutated instance file exit 0,
    2, 3, 4 or 5, never in a traceback. json.dumps writes the float
    1e400 as Infinity, which JSON reads back as the same float."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in (["msequence"], ["construct"],
                         ["linsys", "--degree", "3"],
                         ["linsys", "--degree", "6", "--double", "1,2,3"]):
                assert run(*argv, "--input", str(path)) in DOCUMENTED_CODES


def nodal(t):
    """The point (t^2 - 1 : t(t^2 - 1) : 1) of the nodal cubic
    Y^2 Z = X^3 + X^2 Z; three such points are collinear iff
    t1 t2 + t1 t3 + t2 t3 = -1."""
    t = Fraction(t)
    return ProjPoint(t * t - 1, t * (t * t - 1), 1)


def construct_run(tmp_path, points, extra=None):
    inst, out = tmp_path / "inst.json", tmp_path / "report.json"
    write_instance(inst, points, extra)
    code = run("construct", "--input", str(inst), "--out", str(out))
    return code, out


def test_construct_refuses_five_collinear_points(tmp_path, capsys):
    points = [ProjPoint(i, 0, 1) for i in range(5)]
    points += [nodal(t) for t in range(2, 9)]
    code, out = construct_run(tmp_path, points)
    assert code == EXIT_PRECONDITION
    assert not out.exists()
    assert capsys.readouterr().err == ("precondition failure: m1 <= 4 and "
                                       "m2 <= 7 are required\n")


def test_construct_refuses_twelve_points_on_a_cubic(tmp_path, capsys):
    code, _ = construct_run(tmp_path, [nodal(t) for t in range(2, 14)])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("precondition failure: m3 must be 10 "
                                       "or 11, got 12\n")


def test_construct_reports_an_irreducible_cubic_through_eleven(tmp_path,
                                                               capsys):
    points = [nodal(t) for t in range(2, 13)] + [ProjPoint(1, 1, 1)]
    code, out = construct_run(tmp_path, points, extra=ProjPoint(2, 3, 1))
    assert code == EXIT_UNSUPPORTED
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "unsupported"
    assert doc["branch_trace"] == ["m3_11", "m2_5",
                                   "irreducible_cubic_overload"]
    assert doc["certificate"] is None
    assert capsys.readouterr().out == (
        "unsupported: an irreducible cubic through more than 9 points is "
        "outside this toolkit's certified range\n")


def test_construct_reports_m2_6_without_a_four_point_line(tmp_path, capsys):
    """Ten nodal-cubic points, the first six on one conic, and two more:
    -11/10 is the residual parameter of the conic through t = 2, ..., 6
    (Vieta on the sextic in t), and t = 2, 3, -7/5 are collinear."""
    ts = [2, 3, 4, 5, 6, Fraction(-11, 10), Fraction(-7, 5), 8, 9, 10]
    points = [nodal(t) for t in ts] + [ProjPoint(1, 1, 1),
                                       ProjPoint(3, -2, 1)]
    inst = tmp_path / "inst.json"
    write_instance(inst, points)
    assert run("msequence", "--input", str(inst)) == EXIT_OK
    assert capsys.readouterr().out.startswith("m_sequence (3, 6, 10) ")
    code, out = construct_run(tmp_path, points)
    assert code == EXIT_UNSUPPORTED
    doc = json.loads(out.read_text())
    assert (doc["outcome"], doc["branch_trace"]) == ("unsupported",
                                                     ["m3_10", "m2_6"])
    assert capsys.readouterr().out == ("unsupported: expected a unique "
                                       "4-point line\n")


def test_linsys_rejects_a_bad_label_list(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run("generate", "--kind", "generic12", "--out", str(inst))
    assert run("linsys", "--input", str(inst), "--degree", "6",
               "--double", "1,x") == EXIT_PARSE
    assert capsys.readouterr().err == ("parse error: bad label list: "
                                       "'1,x'\n")


def test_msequence_refuses_more_than_sixteen_points(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    write_instance(inst, [nodal(t) for t in range(2, 19)])
    assert run("msequence", "--input", str(inst)) == EXIT_PRECONDITION
    assert capsys.readouterr().err == ("precondition failure: point sets "
                                       "capped at 16 points\n")


def test_enumerate_below_four_points_finds_no_line(tmp_path, capsys):
    out = tmp_path / "enum.json"
    assert run("enumerate", "--n", "3", "--out", str(out)) == EXIT_OK
    assert capsys.readouterr().out == ("n=3 cap=2 maximum=0 "
                                       "maximal_families=1\n")
    doc = json.loads(out.read_text())
    assert (doc["maximum"], doc["maximal_families"]) == (0, [[]])


def test_enumerate_refuses_a_negative_point_count(capsys):
    assert run("enumerate", "--n", "-3") == EXIT_PRECONDITION
    assert capsys.readouterr() == ("", "precondition failure: point count "
                                       "must be >= 0\n")
