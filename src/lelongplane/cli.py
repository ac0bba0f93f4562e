"""Command-line entry point.

Subcommands cover instance generation, configuration analysis, certificate
construction and verification, the numerical estimators, the sharpness
example, and incidence enumeration. Every run is deterministic in its
flags; reports are versioned JSON written with --out, with a short human
summary on stdout.

Exit codes: 0 success, 2 precondition failure, 3 verification failure,
4 unsupported instance, 5 parse error or a file or stdout that cannot be
written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import serialize
from .config import enumerate_4lines, m_sequence
from .construct import construct_certificate, verify_certificate
from .currents import (GROWTH_RADII, _directions, estimate_growth,
                       jet_verification, pole_estimates, sharpness_example)
from .errors import (ParseError, PreconditionError, UnsupportedInstanceError,
                     VerificationError)
from .instances import INSTANCE_KINDS, generate
from .linsys import VanishingCondition, build_system

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_UNSUPPORTED = 4
EXIT_PARSE = 5


def _write_report(args, obj) -> None:
    if args.out:
        serialize.dump(obj, args.out)


def _parse_labels(raw: str):
    try:
        return [int(x) for x in raw.split(",") if x]
    except ValueError as exc:
        raise ParseError(f"bad label list: {raw!r}") from exc


def cmd_generate(args) -> int:
    inst = generate(args.kind, args.seed)
    _write_report(args, inst)
    print(f"generated {inst.kind} seed={inst.seed} "
          f"m_seq={inst.m_seq} points={len(inst.point_set)}")
    return EXIT_OK


def cmd_msequence(args) -> int:
    inst = serialize.load_instance(args.input)
    ms = m_sequence(inst.point_set)
    _write_report(args, ms)
    print(f"m_sequence {ms.as_tuple()} "
          f"witness_sizes={[len(w[0]) for w in ms.witnesses]}")
    return EXIT_OK


def cmd_linsys(args) -> int:
    inst = serialize.load_instance(args.input)
    doubles = set(_parse_labels(args.double)) if args.double else set()
    n = len(inst.point_set)
    if any(not 1 <= l <= n for l in doubles):
        raise PreconditionError("double label out of range")
    conds = [VanishingCondition(inst.point_set.point(l),
                                2 if l in doubles else 1)
             for l in range(1, n + 1)]
    system = build_system(args.degree, conds)
    _write_report(args, system)
    print(f"degree={system.degree} rank={system.matrix_rank} "
          f"dim={system.dim}")
    return EXIT_OK


def cmd_construct(args) -> int:
    inst = serialize.load_instance(args.input)
    report = construct_certificate(inst.point_set, extra=inst.extra)
    # the certificate first: a report naming it must not outlive a failed write
    if report.outcome == "certificate" and args.cert:
        serialize.dump(report.certificate, args.cert)
    _write_report(args, report)
    if report.outcome == "certificate":
        cert = report.certificate
        print(f"certificate gamma={cert.gamma_u} "
              f"total_weight={cert.total_weight} "
              f"trace={'>'.join(report.branch_trace)}")
        return EXIT_OK
    print(f"unsupported: {report.detail}")
    return EXIT_UNSUPPORTED


def cmd_certify(args) -> int:
    cert = serialize.load_certificate(args.input)
    report = verify_certificate(cert)
    _write_report(args, report)
    print(f"discrete={report.discrete} "
          f"points_ok={sum(c.ok for c in report.per_point)}"
          f"/{len(report.per_point)} verified={report.verified}")
    if not report.verified:
        raise VerificationError("certificate failed independent verification")
    return EXIT_OK


def cmd_lelong(args) -> int:
    # NaN would pass both comparisons below, and a negative bound fail them
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise PreconditionError(
            f"tolerance must be finite and >= 0, got {args.tolerance}")
    cert = serialize.load_certificate(args.input)
    # the file's verified flag is not evidence: verify again, on the jets
    jets, report = jet_verification(cert)
    if not report.verified:
        raise VerificationError("certificate failed independent verification")
    cert = cert.replace(verified=True)
    dirs = _directions(args.seed)
    estimates = []
    worst = 0.0
    for est in pole_estimates(cert, jets, dirs):
        estimates.append(est)
        worst = max(worst, abs(est.extrapolated - float(est.exact)))
        print(f"point {tuple(map(str, est.point.coords))} "
              f"claimed={est.exact} slope={est.extrapolated:.4f}")
    growth = estimate_growth(cert, GROWTH_RADII, dirs=dirs)
    print(f"growth slope={growth.slope:.4f} claimed={growth.claimed}")
    _write_report(args, {"schema_version": serialize.SCHEMA_VERSION,
                         "type": "lelong_report",
                         "poles": [serialize.encode(e) for e in estimates],
                         "growth": serialize.encode(growth)})
    growth_err = abs(growth.slope - float(growth.claimed))
    if worst > args.tolerance or growth_err > 2 * args.tolerance:
        raise VerificationError(
            f"estimates off by {max(worst, growth_err):.4f}, "
            f"tolerance {args.tolerance}")
    return EXIT_OK


def cmd_sharpness(args) -> int:
    rep = sharpness_example(args.seed)
    _write_report(args, rep)
    print(f"lelong_one_third={rep.all_values_one_third} "
          f"rank_checks={rep.rank_checks} full={rep.all_ranks_full} "
          f"m_seq={rep.m_seq}")
    if not (rep.all_values_one_third and rep.all_ranks_full):
        raise VerificationError("sharpness example checks failed")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    rep = enumerate_4lines(args.n, args.cap)
    _write_report(args, rep)
    print(f"n={rep.n_points} cap={rep.per_point_cap} maximum={rep.maximum} "
          f"maximal_families={len(rep.maximal_families)}")
    return EXIT_OK


_INPUT = ("--input", {"required": True})
_SEED = ("--seed", {"type": int, "default": 0})
_OUT = ("--out", {})

# name -> (help, handler, arguments as (flag, add_argument keywords));
# every command takes _OUT after its arguments
COMMANDS = {
    "generate": ("emit a named instance", cmd_generate,
                 [("--kind", {"required": True, "choices": INSTANCE_KINDS}),
                  _SEED]),
    "msequence": ("exact m-sequence of an instance", cmd_msequence,
                  [_INPUT]),
    "linsys": ("linear system through the instance points", cmd_linsys,
               [_INPUT, ("--degree", {"type": int, "required": True}),
                ("--double", {"default": "", "help": "comma-separated labels "
                              "with order-2 conditions"})]),
    "construct": ("build a potential certificate", cmd_construct,
                  [_INPUT, ("--cert", {"help": "write the certificate here"})]),
    "certify": ("independently verify a certificate", cmd_certify, [_INPUT]),
    "lelong": ("numerical pole and growth estimates", cmd_lelong,
               [("--input", {"required": True, "help": "certificate file"}),
                ("--tolerance", {"type": float, "default": 0.05}), _SEED]),
    "sharpness": ("six-line sharpness example", cmd_sharpness, [_SEED]),
    "enumerate": ("enumerate 4-point-line families", cmd_enumerate,
                  [("--n", {"type": int, "default": 12}),
                   ("--cap", {"type": int, "default": 2})]),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; `main` runs it on each argv that
    `parse_table` does not take."""
    parser = argparse.ArgumentParser(
        prog="lelongplane",
        description="exact certificates for Lelong-number level sets of "
                    "plane point configurations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag, keywords in arguments + [_OUT]:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func)
    return parser


def parse_table(argv):
    """The namespace that `build_parser()` gives for an argv of the form
    `command (--flag value)*`, read from COMMANDS alone; None for any other
    argv, and for one that names a flag twice, gives a value starting with
    "-", a value its type or choices refuse, or lacks a required flag.
    Argparse parses those, so it alone writes help, usage and errors."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None  # no command, or not flag-value pairs after it
    _, func, arguments = COMMANDS[argv[0]]
    options = dict(arguments + [_OUT])
    given = {}
    for flag, raw in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or flag in given or raw.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(raw)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, flag.lstrip("-").replace("-", "_"),
                given.get(flag, keywords.get("default")))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_table(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedInstanceError as exc:
        print(f"unsupported instance: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FileNotFoundError as exc:
        print(f"parse error: missing file {exc.filename}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        if exc.filename is None:
            # stdout, as every file a command opens is named; devnull
            # takes it so nothing more fails at exit (Python docs, SIGPIPE)
            print(f"cannot write stdout: {exc.strerror}", file=sys.stderr)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_PARSE
        print(f"parse error: cannot open {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
