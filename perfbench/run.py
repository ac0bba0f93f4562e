"""lelongplane benchmark: certificate throughput per instance kind, measured
end to end through the CLI and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quartic_routes --seed 1 \
        --seconds 40 --trace 0

One client runs one operation at a time in a closed loop, so no work ever
waits in a queue. Every CLI command runs in a child forked from a process
that has only imported lelongplane: like a separate `lelongplane` call, it
starts with empty module caches, but it does not pay the import, which is
measured apart as `setup_s`. Library calls on the tangent pairs run the same
way. Each output is checked against answers known without the program
(workloads.py). Times are rescaled to a reference speed of the machine
(see Speedometer). With `--trace 0` the run reports the end-to-end metrics;
with `--trace 1` it runs each operation once untraced and once with span
wrappers installed in the child, and reports per-layer calls and self time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The run exits 1 if any
operation fails (non-zero exit code, uncaught exception or wrong output)
and 2 if the program cannot be imported or run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
MIN_PASSES = 2
# an operation faster than REPEAT_S runs again right away, up to REPEAT_MAX
# attempts in all, so that cheap operations give more samples
REPEAT_S = 0.5
REPEAT_MAX = 3
# The shared machine's speed changes by up to 1.5x within milliseconds to
# seconds, and differs from one core to the other. The whole run is
# therefore pinned to one core, and each operation's wall time is divided
# by the mean time of a fixed pure-Python probe timed before it, after it
# and every PROBE_EVERY_S seconds while it runs, and multiplied by the
# probe's median time on the baseline machine (2 cores, Python 3.11): time
# metrics are seconds at that machine's typical speed.
PROBE_LOOPS = 5_000
PROBE_EVERY_S = 0.02
PROBE_REF_S = 0.00036
SETUP_CODE = "import lelongplane.cli as c; c.build_parser()"

END_TO_END = {  # name -> unit
    "setup_s": "s", "certs_per_min": "1/min",
    "generate_s_per_instance": "s", "msequence_s_per_instance": "s",
    "linsys_s_per_system": "s", "construct_s_per_cert": "s",
    "certify_s_per_cert": "s", "lelong_s_per_cert": "s",
    "sharpness_s": "s", "enumerate_s": "s", "bezout_s_per_pair": "s",
    "mu_ms_per_point": "ms", "oracle_ms_per_point": "ms",
    "peak_rss_mb": "MB",
}

# extra per-layer statistics beyond calls and self_s: (span, stat, unit)
LAYER_EXTRAS = (
    ("curves.intersection_multiplicity", "max_s", "s"),
    ("curves.intersection_multiplicity", "input_bits_max", "bits"),
    ("linsys.build_system", "basis_bits_max", "bits"),
    ("construct.make_certificate", "accept_ratio", "ratio"),
    ("construct.construct_sextic_pair", "certificate_ratio", "ratio"),
)


def per_layer_units():
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, stat, unit in LAYER_EXTRAS:
        units[f"{name}.{stat}"] = unit
    units["trace.overhead_ratio"] = "ratio"
    return units


class ProgramUnavailable(RuntimeError):
    """The program under test cannot be imported or started."""


# --------------------------------------------------------------------------
# Running one operation in a forked child


def probe() -> float:
    """Wall time of a fixed loop of small-integer arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """Times the block it wraps and probes the machine's speed meanwhile:
    before, after, and from a timer signal every PROBE_EVERY_S seconds.
    `seconds` is the block's wall time without the probes that ran inside
    it, rescaled to the probe's reference speed."""

    seconds = 0.0

    def __enter__(self):
        self.probes = [probe()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        self.probes.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.t0 - sum(self.probes[1:])
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append(probe())
        self.seconds = wall * PROBE_REF_S / statistics.fmean(self.probes)
        return False


def _library_call(call, pair, points):
    """One library API call on a tangent pair: `bezout` tabulates the
    rational common points; `mu` and `oracle` run one multiplicity
    algorithm at each of the given points."""
    from lelongplane import curves
    from lelongplane.exactpoly import HomPoly, ProjPoint

    def form(spec):
        degree, terms = spec
        return HomPoly(degree, {(i, j, k): Fraction(c)
                                for i, j, k, c in terms})

    p, q = form(pair["p"]), form(pair["q"])
    if call == "bezout":
        records, residual = curves.bezout_table(p, q)
        return {"records": [[[str(c) for c in r.point.coords],
                             r.multiplicity] for r in records],
                "residual": residual}
    fn = (curves.intersection_multiplicity if call == "mu"
          else curves.resultant_multiplicity)
    return {"mu": [int(fn(p, q, ProjPoint(*map(Fraction, x))))
                   for x in points]}


def _child(task, trace: bool):
    """Body of the forked child; returns the dict sent to the parent."""
    recorder = tracing.Recorder() if trace else None
    out = {}
    from lelongplane import cli
    speed = Speedometer()
    try:
        with speed:
            if trace:
                with tracing.traced(recorder):
                    result = _dispatch(cli, task)
            else:
                result = _dispatch(cli, task)
        if isinstance(result, int):
            out["code"] = result
        else:
            out["code"], out["result"] = 0, result
    except SystemExit as exc:  # argparse rejects its arguments this way
        out["code"] = exc.code if isinstance(exc.code, int) else 1
    except BaseException as exc:  # an uncaught error is what we measure
        out["code"] = 1
        out["error"] = "".join(traceback.format_exception_only(exc)).strip()
    out["seconds"] = speed.seconds
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        out["spans"] = recorder.spans
    return out


def _dispatch(cli, task):
    if task[0] == "cli":
        return cli.main(task[1])
    return _library_call(*task[1:])


def run_forked(task, trace=False):
    """Run one task in a child forked from this process and wait for it.

    Forking (not spawning) is the point: the child starts from the state
    right after `import lelongplane`, with the module caches still empty.
    The harness has no threads, so forking it is safe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            sys.stdout = sys.stderr = open(os.devnull, "w")
            payload = json.dumps(_child(task, trace)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:  # drain before waiting
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not payload:
        return {"seconds": 0.0, "code": 1, "maxrss_kb": 0,
                "error": f"child died with status {status}", "spans": []}
    return json.loads(payload)


# --------------------------------------------------------------------------
# One run


class Run:
    """Accumulates operation outcomes, times and spans for one run."""

    def __init__(self, workdir: Path, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.attempted = 0
        self.wrong = []  # one reason per failed attempt
        # one entry per distinct operation: its command, the seconds of its
        # successful and of its failed attempts, and how many units (points
        # for the multiplicity algorithms, else 1) it covers
        self.ops = {}
        self.maxrss_kb = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.spans = []  # (op number, command, span list)

    def op(self, command, task, check=None, units=1):
        """Run one operation, and again while it is cheap (REPEAT_S);
        returns its last result, or None if it failed. A traced run
        attempts each operation once."""
        spent = 0.0
        for _ in range(1 if self.trace else REPEAT_MAX):
            res = self.attempt(command, task, check, units)
            if res is None:
                return None
            spent += res["seconds"]
            if spent >= REPEAT_S:
                break
        return res

    def attempt(self, command, task, check, units):
        """Run one attempt of an operation; returns its result, or None if
        it failed.

        The suite holds only operations that succeed, so every failure is a
        wrong outcome: a non-zero exit code, an uncaught exception, a child
        that dies, or an output that its check rejects."""
        res = run_forked(task)
        if self.trace:
            self.untraced_s += res["seconds"]
            traced = run_forked(task, trace=True)
            self.traced_s += traced["seconds"]
            self.spans.append((self.attempted, command, traced["spans"]))
        self.attempted += 1
        self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        entry = self.ops.setdefault(json.dumps(task), {
            "command": command, "ok": [], "failed": [], "units": units})
        if res["code"] != 0:
            reason = res.get("error", f"exit code {res['code']}")
        elif check is None:
            reason = None
        else:
            try:
                reason = check(res)
            except (KeyError, TypeError, ValueError, OSError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            entry["failed"].append(res["seconds"])
            self.wrong.append(f"{command} {task[1]}: {reason}")
            return None
        entry["ok"].append(res["seconds"])
        return res

    def cli(self, command, argv, check=None):
        return self.op(command, ("cli", [command] + argv), check)

    def path(self, name):
        return str(self.workdir / name)

    # ----------------------------------------------------------------------

    def pipeline(self, kind, seed, systems):
        tag = f"{kind}-{seed}"
        inst_path = self.path(f"{tag}.inst.json")
        if not self.cli("generate", ["--kind", kind, "--seed", str(seed),
                                     "--out", inst_path],
                        lambda r: workloads.check_instance(
                            _load(inst_path), kind)):
            return  # every later command reads the instance: skipped
        inst = _load(inst_path)
        ms_path = self.path(f"{tag}.ms.json")
        self.cli("msequence", ["--input", inst_path, "--out", ms_path],
                 lambda r: workloads.check_msequence(_load(ms_path), inst))
        for degree, doubles in systems:
            out = self.path(f"{tag}.linsys{degree}.json")
            argv = ["--input", inst_path, "--degree", str(degree),
                    "--out", out]
            if doubles:
                argv += ["--double", ",".join(map(str, range(1, doubles + 1)))]
            self.cli("linsys", argv,
                     lambda r, o=out, d=degree, k=doubles:
                     workloads.check_linsys(_load(o), inst, d, k))
        cert_path = self.path(f"{tag}.cert.json")
        if not self.cli("construct", ["--input", inst_path, "--cert",
                                      cert_path],
                        lambda r: workloads.check_certificate(
                            _load(cert_path), inst)):
            return
        ver_path = self.path(f"{tag}.ver.json")
        self.cli("certify", ["--input", cert_path, "--out", ver_path],
                 lambda r: workloads.check_verification(_load(ver_path)))
        lel_path = self.path(f"{tag}.lelong.json")
        self.cli("lelong", ["--input", cert_path, "--out", lel_path],
                 lambda r: workloads.check_lelong(_load(lel_path)))

    def sharpness(self, seed):
        out = self.path(f"sharpness-{seed}.json")
        self.cli("sharpness", ["--seed", str(seed), "--out", out],
                 lambda r: workloads.check_sharpness(_load(out)))

    def enumerate(self):
        out = self.path("enumerate.json")
        self.cli("enumerate", ["--cap", "2", "--out", out],
                 lambda r: workloads.check_enumerate(_load(out)))

    def tangent(self, pair):
        """bezout_table, then each multiplicity algorithm in its own child,
        so that neither finds the other's factorizations cached. The
        resultant algorithm (`oracle`) is the independent check of mu."""
        res = self.op("bezout", ("lib", "bezout", pair, None),
                      lambda r: workloads.check_bezout(r["result"], pair))
        if res is None:
            return
        records = res["result"]["records"]
        points = [pt for pt, _ in records]
        for call in ("mu", "oracle"):
            self.op(call, ("lib", call, pair, points),
                    lambda r: workloads.check_multiplicities(
                        r["result"]["mu"], points, records, pair),
                    units=len(points))

    def item(self, item):
        kind = item[0]
        if kind == "pipeline":
            self.pipeline(*item[1:])
        elif kind == "enumerate":
            self.enumerate()
        elif kind == "sharpness":
            self.sharpness(item[1])
        elif kind == "tangent":
            self.tangent(item[1])

    # ----------------------------------------------------------------------

    def end_to_end(self, setup_s):
        """Each operation counts with the median of its successful
        (normalised) attempts. An operation that never succeeded counts with
        the median of its failed attempts in the seconds, but not in the
        divisor."""
        seconds, done = {}, {}
        for entry in self.ops.values():
            cmd = entry["command"]
            ok = bool(entry["ok"])
            typical = statistics.median(entry["ok"] if ok else entry["failed"])
            seconds[cmd] = seconds.get(cmd, 0.0) + typical
            done[cmd] = done.get(cmd, 0) + entry["units"] * ok

        def per(command, scale=1.0):
            return scale * seconds.get(command, 0.0) / max(1, done.get(
                command, 0))

        pipeline_s = sum(seconds.get(c, 0.0) for c in (
            "generate", "msequence", "construct", "certify", "lelong"))
        values = {
            "setup_s": setup_s,
            "certs_per_min": done.get("certify", 0) / (pipeline_s / 60.0),
            "generate_s_per_instance": per("generate"),
            "msequence_s_per_instance": per("msequence"),
            "linsys_s_per_system": per("linsys"),
            "construct_s_per_cert": per("construct"),
            "certify_s_per_cert": per("certify"),
            "lelong_s_per_cert": per("lelong"),
            "sharpness_s": per("sharpness"),
            "enumerate_s": per("enumerate"),
            "bezout_s_per_pair": per("bezout"),
            "mu_ms_per_point": per("mu", 1000.0),
            "oracle_ms_per_point": per("oracle", 1000.0),
            "peak_rss_mb": self.maxrss_kb / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END[k]}
                for k, v in values.items()}

    def per_layer(self):
        units = per_layer_units()
        stats = {name: {"calls": 0, "self_s": 0.0} for name in
                 tracing.SPAN_NAMES}
        extras = {}
        for _, _, spans in self.spans:
            for span, self_s in zip(spans, tracing.self_times(spans)):
                index, _, t0, t1, extra = span
                name = tracing.SPAN_NAMES[index]
                st = stats[name]
                st["calls"] += 1
                st["self_s"] += self_s
                if name == "curves.intersection_multiplicity":
                    _bump_max(extras, f"{name}.max_s", t1 - t0)
                    _bump_max(extras, f"{name}.input_bits_max", extra)
                elif name == "linsys.build_system" and extra is not None:
                    _bump_max(extras, f"{name}.basis_bits_max", extra)
                elif extra is not None:  # accept / certificate flags
                    extras[name] = extras.get(name, 0) + extra
        values = {}
        for name, st in stats.items():
            values[f"{name}.calls"] = st["calls"]
            values[f"{name}.self_s"] = st["self_s"]
        for name, stat, _ in LAYER_EXTRAS:
            key = f"{name}.{stat}"
            if stat.endswith("_ratio"):
                calls = stats[name]["calls"]
                values[key] = extras.get(name, 0) / calls if calls else 0.0
            else:
                values[key] = extras.get(key, 0)
        values["trace.overhead_ratio"] = (self.traced_s / self.untraced_s
                                          if self.untraced_s else 0.0)
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            for op, command, spans in self.spans:
                for sid, span in enumerate(spans):
                    index, parent, t0, t1, extra = span
                    fh.write(json.dumps({
                        "op": op, "command": command, "span": sid,
                        "parent": parent, "name": tracing.SPAN_NAMES[index],
                        "start": t0, "end": t1, "extra": extra}) + "\n")


def _bump_max(d, key, value):
    if value is not None and value > d.get(key, 0):
        d[key] = value


def _load(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------


def setup_sample() -> float:
    """Wall time (normalised) of a fresh interpreter importing lelongplane
    and building the CLI parser: what every `lelongplane` call pays
    first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    before = probe()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ProgramUnavailable(proc.stderr.strip().splitlines()[-1:]
                                 or ["import failed"])
    return elapsed * 2 * PROBE_REF_S / (before + probe())


def metadata(args, passes):
    # a checkout without .git must not report the sha of a repository above
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    import sympy
    return {"git_sha": sha, "python": platform.python_version(),
            "sympy": sympy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "clients": 1, "queue_wait_s": 0}


def measure(workload, seed, seconds, trace):
    """One run: whole passes over the workload, at least MIN_PASSES, until
    `seconds` have gone by (one pass when tracing). Untraced runs take SETUP_SAMPLES set-up samples
    spread over the first pass, so that they see the machine in the same
    states as the operations do. Returns (run, median setup_s, passes)."""
    # children and set-up interpreters inherit the pinning
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = [] if trace else [setup_sample()]
    sys.path.insert(0, str(SRC))
    try:
        import lelongplane.cli  # noqa: F401  (children fork from here)
    except ImportError as exc:
        raise ProgramUnavailable(str(exc)) from exc
    base = ROOT / ".perfbench"
    workdir = base / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workdir, trace)
    items = workloads.schedule(workload, seed)
    at = {len(items) * k // SETUP_SAMPLES for k in range(1, SETUP_SAMPLES)}
    start = time.perf_counter()
    passes = 0
    try:
        while True:
            for i, item in enumerate(items):
                if not trace and passes == 0 and i in at:
                    setup.append(setup_sample())
                run.item(item)
            passes += 1
            if trace or (passes >= MIN_PASSES
                         and time.perf_counter() - start >= seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        run.write_spans(base / f"spans-{workload}-{seed}.jsonl")
    return run, statistics.median(setup) if setup else 0.0, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run, setup_s, passes = measure(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except ProgramUnavailable as exc:
        print(f"cannot run lelongplane: {exc}", file=sys.stderr)
        return 2
    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    meta = metadata(args, passes)
    result = {"correct": not run.wrong, "attempted": run.attempted,
              "failed": len(run.wrong), "metrics": metrics}
    record = ROOT / ".perfbench" / (
        f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    record.write_text(json.dumps({
        "metadata": meta, "result": result,
        "operations": [{"command": e["command"], "ok_s": e["ok"],
                        "failed_s": e["failed"]} for e in run.ops.values()]},
        indent=1))
    print(json.dumps({"metadata": meta}))
    for reason in run.wrong:
        print(f"wrong output: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not run.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
