"""The golden sweep: every CLI command on every instance kind, pinned by
SHA-256 in `golden_manifest.json`.

The sweep runs `generate`, `msequence`, `linsys --degree 6 --double
1,...,6`, `construct`, `certify` and `lelong` over each instance kind at
seeds 0-3, then `sharpness` at seeds 0-3 and `enumerate --cap 2`, then
`certify` and `lelong` on a crafted sparse certificate of degree 60 (see
`write_sparse_certificate`) and on a crafted cubic certificate whose
forms pass through (0:1:0) and (1:1:0) but not (0:1:1) (`CUBIC_P` and
`CUBIC_Q`), which both reject, then `--help` of the
program and of each command and the usage errors of the top-level parser
and of a command (no command, an unknown command, `-h` before a command,
a missing or extra value, an unknown option), then argvs that only
argparse parses (`--seed=1`, the abbreviation `--inp`, a negative seed, a
repeated `--seed`, a flag as a value), all in-process through `cli.main`.
For each command the manifest holds its argv, exit code (argparse's
`SystemExit` code for help and usage), the SHA-256 of its stdout and
stderr, and that of each file it wrote (and of the crafted certificate
it reads). Files are named relative to the working directory, and the
sweep runs with COLUMNS=80, so the bytes do not depend on where it runs
or on the terminal.

    python tests/golden.py            compare with the manifest
    python tests/golden.py --write    re-record the manifest

A change that alters output on purpose re-records the manifest and lists
the changed entries in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEEDS = range(4)
COMMANDS = ("generate", "msequence", "linsys", "construct", "certify",
            "lelong", "sharpness", "enumerate")
SPARSE_DEGREE = 60


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# X(X - Y)A + ZB: both cubics pass through (0:1:0) and (1:1:0), the
# first two projection centers, and miss (0:1:1)
CUBIC_P = [[3, 0, 0, "1"], [2, 1, 0, "1"], [2, 0, 1, "3"], [1, 2, 0, "-2"],
           [1, 1, 1, "-3"], [0, 2, 1, "1"], [1, 0, 2, "-4"], [0, 0, 3, "7"]]
CUBIC_Q = [[3, 0, 0, "2"], [2, 1, 0, "-3"], [2, 0, 1, "1"], [1, 2, 0, "1"],
           [0, 2, 1, "3"], [0, 0, 3, "-1"]]


def write_crafted_certificate(cert, out, degree: int, p, q) -> None:
    """Write to `out` the certificate file `cert` with the forms P and Q
    of degree `degree`, each a list of [i, j, k, coefficient] terms, and
    gamma = degree, keeping its points and claimed weights."""
    doc = json.loads(Path(cert).read_text())
    doc["p"] = {"degree": degree, "terms": p}
    doc["q"] = {"degree": degree, "terms": q}
    doc["gamma_u"] = str(degree)
    Path(out).write_text(json.dumps(doc))


def write_sparse_certificate(cert, out, degree: int) -> None:
    """Write to `out` the certificate file `cert` with P = X^d + Z^d,
    Q = Y^d - Z^d and gamma = d, for d = `degree`, keeping its points and
    claimed weights. Neither form vanishes at a listed point, so every
    point fails; the cost of saying so is what the file exercises."""
    write_crafted_certificate(
        cert, out, degree, [[degree, 0, 0, "1"], [0, 0, degree, "1"]],
        [[0, degree, 0, "1"], [0, 0, degree, "-1"]])


def _commands():
    """(name, argv, files) for each command of the sweep, in run order;
    later commands read the files of earlier ones. The generator runs in
    the sweep's working directory and is drawn one command at a time, so
    it writes the crafted sparse certificate from generic12-0's once that
    one exists."""
    from lelongplane.instances import INSTANCE_KINDS
    for kind in INSTANCE_KINDS:
        for seed in SEEDS:
            tag = f"{kind}-{seed}"
            inst, cert = f"{tag}.inst.json", f"{tag}.cert.json"
            yield (f"{tag}/generate",
                   ["generate", "--kind", kind, "--seed", str(seed),
                    "--out", inst], [inst])
            for name, argv in (
                    ("msequence", ["msequence", "--input", inst]),
                    ("linsys", ["linsys", "--input", inst, "--degree", "6",
                                "--double", "1,2,3,4,5,6"]),
                    ("construct", ["construct", "--input", inst,
                                   "--cert", cert]),
                    ("certify", ["certify", "--input", cert]),
                    ("lelong", ["lelong", "--input", cert])):
                out = f"{tag}.{name}.json"
                files = [out, cert] if name == "construct" else [out]
                yield f"{tag}/{name}", argv + ["--out", out], files
    for seed in SEEDS:
        out = f"sharpness-{seed}.json"
        yield (f"sharpness-{seed}",
               ["sharpness", "--seed", str(seed), "--out", out], [out])
    yield ("enumerate-2", ["enumerate", "--cap", "2", "--out", "enum.json"],
           ["enum.json"])
    sparse = f"sparse{SPARSE_DEGREE}"
    write_sparse_certificate("generic12-0.cert.json", f"{sparse}.cert.json",
                             SPARSE_DEGREE)
    write_crafted_certificate("generic12-0.cert.json", "cubic.cert.json", 3,
                              CUBIC_P, CUBIC_Q)
    for crafted in (sparse, "cubic"):
        yield (f"{crafted}/certify",
               ["certify", "--input", f"{crafted}.cert.json",
                "--out", f"{crafted}.certify.json"],
               [f"{crafted}.cert.json", f"{crafted}.certify.json"])
        yield (f"{crafted}/lelong",
               ["lelong", "--input", f"{crafted}.cert.json",
                "--out", f"{crafted}.lelong.json"],
               [f"{crafted}.lelong.json"])
    yield "help", ["--help"], []
    for command in COMMANDS:
        yield f"help/{command}", [command, "--help"], []
    yield "usage-error/generate", ["generate"], []
    for name, argv in (("usage-error/no-command", []),
                       ("usage-error/bogus", ["bogus"]),
                       ("help/-h-certify", ["-h", "certify"]),
                       ("usage-error/certify-input", ["certify", "--input"]),
                       ("usage-error/certify-extra",
                        ["certify", "--input", "x", "extra"]),
                       ("usage-error/enumerate-jobs",
                        ["enumerate", "--cap", "2", "--jobs", "2"])):
        yield name, argv, []
    # argvs outside the form `command (--flag value)*`, which only
    # argparse parses
    for name, argv in (
            ("seed-equals", ["generate", "--kind", "generic12", "--seed=1"]),
            ("certify-inp", ["certify", "--inp", "generic12-0.cert.json"]),
            ("negative-seed", ["generate", "--kind", "generic12",
                               "--seed", "-1"]),
            ("repeated-seed", ["generate", "--kind", "generic12",
                               "--seed", "1", "--seed", "2"])):
        out = f"fallback-{name}.json"
        yield f"fallback/{name}", argv + ["--out", out], [out]
    yield ("fallback/certify-input-flag",
           ["certify", "--input", "--out", "x"], [])


def sweep(workdir) -> dict:
    """Run the sweep in `workdir` (which should be empty) and return the
    manifest it gives."""
    from lelongplane.cli import main
    manifest = {}
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    try:
        for name, argv, files in _commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: help and usage
                    code = exc.code
            manifest[name] = {
                "argv": argv, "exit": code,
                "stdout": _digest(out.getvalue().encode()),
                "stderr": _digest(err.getvalue().encode()),
                "files": {f: _digest(Path(f).read_bytes())
                          for f in files if Path(f).exists()}}
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return manifest


def write(manifest: dict) -> None:
    """One line per command, sorted, so a changed entry is one changed
    line."""
    lines = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in sorted(manifest.items())]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def differences(got: dict, want: dict) -> list[str]:
    """The names of the entries that are missing, extra or changed."""
    return sorted(name for name in got.keys() | want.keys()
                  if got.get(name) != want.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-record the manifest instead of comparing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        got = sweep(workdir)
    if args.write:
        write(got)
        print(f"wrote {len(got)} entries to {MANIFEST.name}")
        return 0
    changed = differences(got, load())
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(got)} entries, {len(changed)} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
