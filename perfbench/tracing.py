"""Layer spans recorded from outside the program.

`traced()` wraps the public functions of every lelongplane layer the
benchmark reports on. Modules such as `construct`, `linsys`, `config` and
`instances` bind these functions with `from .x import f`, so each wrapper is
installed at every module attribute that holds the original function, not
only in the defining module. Spans live in memory with parent links; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every wrapped callable, in report order
LAYERS = (
    ("curves", "intersection_multiplicity"),
    ("curves", "resultant_multiplicity"),
    ("curves", "bezout_table"),
    ("curves", "cubic_is_irreducible"),
    ("linalg", "int_rank"),
    ("linalg", "nullspace"),
    ("linalg", "frac_rref"),
    ("linalg", "_lll_reduce"),
    ("config", "m_sequence"),
    ("config", "enumerate_4lines"),
    ("linsys", "build_system"),
    ("exactpoly", "gcd_homogeneous"),
    ("exactpoly", "exact_divide"),
    ("exactpoly", "vanishing_order"),
    ("exactpoly", "HomPoly.local_expansion"),
    ("construct", "verify_certificate"),
    ("construct", "make_certificate"),
    ("construct", "construct_sextic_pair"),
    ("construct", "construct_certificate_m3_9"),
    ("construct", "construct_certificate_m3_high"),
    ("currents", "estimate_pole_weight"),
    ("currents", "estimate_growth"),
    ("currents", "sharpness_example"),
    ("instances", "generate"),
    ("serialize", "dump"),
    ("serialize", "load_instance"),
    ("serialize", "load_certificate"),
)

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in LAYERS)


def _coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return bits


def _extra(name, args, result, raised):
    """A per-call observation beyond time, or None: coefficient sizes where
    they drive the cost, and whether a candidate produced a result."""
    if name == "curves.intersection_multiplicity":
        return _coeff_bits(args[:2])
    if raised:
        return 0 if name in ("construct.make_certificate",
                             "construct.construct_sextic_pair") else None
    if name == "linsys.build_system":
        return _coeff_bits(result.kernel_basis)
    if name == "construct.make_certificate":
        return int(result is not None)
    if name == "construct.construct_sextic_pair":
        return int(result.outcome == "certificate")
    return None


class Recorder:
    """Spans of one operation: [name index, parent span, start, end, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, index: int, fn):
        name = SPAN_NAMES[index]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1], 0.0, 0.0, None]
            me = len(spans)
            spans.append(span)
            stack.append(me)
            raised = True
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span[3] = clock()
                stack.pop()
                span[4] = _extra(name, args, None if raised else result,
                                 raised)

        wrapper.__perfbench_original__ = fn
        return wrapper


def _owner(mod_name: str, qualname: str):
    obj = importlib.import_module(f"lelongplane.{mod_name}")
    *path, attr = qualname.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, attr


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lelongplane"
                                  or n.startswith("lelongplane."))]


@contextmanager
def traced(recorder: Recorder):
    """Install span wrappers for every layer; restore the originals on exit."""
    patches = []  # (namespace object, attribute, original)
    try:
        originals = {}
        for index, (mod_name, qualname) in enumerate(LAYERS):
            owner, attr = _owner(mod_name, qualname)
            fn = owner.__dict__[attr]
            originals[id(fn)] = (fn, recorder.wrap(index, fn))
            if "." in qualname:  # a method: patch the class only
                patches.append((owner, attr, fn))
                setattr(owner, attr, originals[id(fn)][1])
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def installed_wrappers():
    """Names of package attributes that still hold a span wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, _, t0, t1, _), c in zip(spans, child)]
