"""Every name a module of the package imports is used or re-exported,
and no module imports or names sympy.

Parses each `src/lelongplane/*.py` with `ast`: a name bound by `import` or
`from ... import` anywhere in a module must be read somewhere in it, or be
listed in its `__all__`. No identifier of a module, whether an import, a
name or an attribute, names sympy (the tests use it as a reference only).
The two older import-shape checks (sympy only from `sympy.polys`, only
inside functions) still run, and hold trivially. A fresh interpreter with
sympy blocked runs every command of the pipeline, the curve library on a
tangent pair, and `gcd_homogeneous` and `coprime` on a shared pair.
Importing the CLI and building its parser, the start every CLI call pays,
loads neither `dataclasses` nor `inspect`.

Imports of the package's own modules sit at the top of each module. An
import in a function body would hide a cycle between two modules: it
must be listed in `FUNCTION_BODY_IMPORTS` with its reason, and none is.
No two modules define the same top-level function or class name, so
each kernel has one home, and `linsys` imports nothing from `curves`.
A point's identity is its own (`ProjPoint.__eq__` and `__hash__`): no
module but `exactpoly` compares, collects or keys points by their
`Fraction` view `coords`.

The benchmark's tracer (`perfbench/tracing.py`) looks each of its layers
up by name; every name it lists must still resolve.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lelongplane

MODULES = sorted(Path(lelongplane.__file__).parent.glob("*.py"))

# (importing module, imported module): why the import sits in a function
FUNCTION_BODY_IMPORTS = {}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def sympy_imports_outside_polys(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [f"import {alias.name} (line {node.lineno})"
                    for alias in node.names
                    if alias.name.split(".")[0] == "sympy"]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "sympy" and \
                not node.module.startswith("sympy.polys."):
            out.append(f"from {node.module} (line {node.lineno})")
    return out


def sympy_imports_at_module_level(source: str) -> list[str]:
    """sympy imports that do not sit inside a function body."""
    def walk(node, in_function):
        out = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and \
                    not in_function:
                names = ([a.name for a in child.names]
                         if isinstance(child, ast.Import)
                         else [child.module or ""])
                out += [f"{name} (line {child.lineno})" for name in names
                        if name.split(".")[0] == "sympy"]
            out += walk(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
        return out
    return walk(ast.parse(source), False)


def package_imports_in_functions(source: str) -> list[str]:
    """The package's modules that a function body imports, by relative
    import."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.update(node.module or "." for node in ast.walk(fn)
                       if isinstance(node, ast.ImportFrom) and node.level)
    return sorted(out)


def test_the_check_sees_package_imports_in_functions():
    src = ("from .errors import ParseError\n"
           "def f():\n"
           "    from .curves import bezout_table\n"
           "    from sympy.polys.rings import ring\n"
           "    def g():\n"
           "        from .config import PointSet\n"
           "class C:\n"
           "    def method(self):\n"
           "        from . import linsys\n")
    assert package_imports_in_functions(src) == [".", "config", "curves"]


def test_package_imports_in_functions_are_the_listed_ones():
    found = {(path.stem, module) for path in MODULES
             for module in package_imports_in_functions(path.read_text())}
    assert found == set(FUNCTION_BODY_IMPORTS)


def top_level_definitions(source: str) -> set[str]:
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def test_the_check_sees_top_level_definitions():
    src = ("import math\n"
           "def f():\n"
           "    def g():\n"
           "        pass\n"
           "class C:\n"
           "    def method(self):\n"
           "        pass\n"
           "x = 1\n")
    assert top_level_definitions(src) == {"f", "C"}


def test_no_two_modules_define_one_name():
    homes = {}
    for path in MODULES:
        for name in top_level_definitions(path.read_text()):
            homes.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_upoly_reads_only_clear_denominators_from_the_package():
    source = (Path(lelongplane.__file__).parent / "upoly.py").read_text()
    assert [(node.module, [alias.name for alias in node.names])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level] == [
        ("linalg", ["clear_denominators"])]


def package_modules_imported(source: str) -> set[str]:
    """The package's modules that a source imports, by relative import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module
                       else [alias.name for alias in node.names])
    return out


def identifiers(source: str) -> set[str]:
    """Every name a source binds, reads or imports, and every attribute
    and module it names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def test_the_checks_see_package_imports_and_identifiers():
    src = ("from .curves import coprime\nfrom . import linsys\n"
           "import sympy.polys\nx = exactpoly.to_ring(p)\n")
    assert package_modules_imported(src) == {"curves", "linsys"}
    assert {"coprime", "linsys", "sympy.polys", "to_ring", "exactpoly",
            "x", "p"} <= identifiers(src)


def sympy_names(source: str) -> list[str]:
    """The identifiers of a source that name sympy: imports of it or of
    its modules, and names and attributes that contain it."""
    return sorted(n for n in identifiers(source) if "sympy" in n)


def test_the_check_sees_sympy_names():
    src = ("import math\nimport sympy.polys\nfrom sympy import QQ\n"
           "from .exactpoly import sympy_rings\nx = m.to_sympy(QQ)\n")
    assert sympy_names(src) == ["sympy", "sympy.polys", "sympy_rings",
                                "to_sympy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_or_names_sympy(path):
    assert sympy_names(path.read_text()) == []


def test_linsys_imports_nothing_from_curves():
    source = (Path(lelongplane.__file__).parent / "linsys.py").read_text()
    assert "curves" not in package_modules_imported(source)


def test_the_check_sees_unused_names():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert unused_imports(src) == ["math (line 1)", "path (line 2)"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_sympy_imports():
    src = ("import sympy\nimport sympy.polys.rings\nfrom sympy import QQ\n"
           "from sympy.polys import ring\nfrom sympy.polys.rings import ring\n"
           "import math\n")
    assert sympy_imports_outside_polys(src) == [
        "import sympy (line 1)", "import sympy.polys.rings (line 2)",
        "from sympy (line 3)", "from sympy.polys (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sympy_only_from_polys(path):
    assert sympy_imports_outside_polys(path.read_text()) == []


def test_the_check_sees_module_level_sympy_imports():
    src = ("from sympy.polys.rings import ring\n"
           "import math\n"
           "if True:\n"
           "    import sympy.polys.domains\n"
           "class C:\n"
           "    from sympy.polys.orderings import lex\n"
           "    def method(self):\n"
           "        from sympy.polys.domains import QQ\n"
           "def f():\n"
           "    from sympy.polys.rings import ring\n"
           "    def g():\n"
           "        import sympy\n")
    assert sympy_imports_at_module_level(src) == [
        "sympy.polys.rings (line 1)", "sympy.polys.domains (line 4)",
        "sympy.polys.orderings (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sympy_imported_only_inside_functions(path):
    assert sympy_imports_at_module_level(path.read_text()) == []


_NO_SYMPY_RUN = """
import contextlib, io, json, os, sys
sys.modules["sympy"] = None  # any import of sympy now fails
from lelongplane.cli import main
from lelongplane.curves import (bezout_table, coprime,
                                intersection_multiplicity,
                                resultant_multiplicity)
from lelongplane.exactpoly import HomPoly, ProjPoint, gcd_homogeneous
from lelongplane.instances import INSTANCE_KINDS

codes = {}
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code:
        codes[" ".join(argv)] = code

for kind in INSTANCE_KINDS:
    inst, cert = f"{kind}.json", f"{kind}-cert.json"
    run("generate", "--kind", kind, "--seed", "0", "--out", inst)
    run("msequence", "--input", inst)
    run("linsys", "--input", inst, "--degree", "6", "--double", "1,2,3,4,5,6")
    run("construct", "--input", inst, "--cert", cert)
    if os.path.exists(cert):
        run("certify", "--input", cert)
        run("lelong", "--input", cert, "--seed", "0")
run("sharpness", "--seed", "0")
run("enumerate", "--cap", "2")
# a cubic and a quartic, both smooth at the origin with tangent Y = 0, so
# the multiplicity at the origin runs the reduction
mono = HomPoly.monomial
p = mono((0, 1, 2)) - mono((2, 0, 1)) + mono((3, 0, 0)) - mono((0, 3, 0))
q = (mono((0, 1, 3)) - mono((2, 0, 2), 2) + mono((1, 1, 2))
     + mono((4, 0, 0)) + mono((0, 2, 2), 5))
x = ProjPoint(0, 0, 1)
records, residual = bezout_table(p, q)
mus = [intersection_multiplicity(p, q, x), resultant_multiplicity(p, q, x)]
line = HomPoly.line(1, 1, 1)
shared = [repr(gcd_homogeneous(p * line, q * line)),
          coprime(p * line, q * line), coprime(p, q)]
print(json.dumps({
    "codes": codes, "mus": mus, "shared": shared,
    "records": [[str(r.point), r.multiplicity] for r in records],
    "residual": residual,
    "sympy": sorted(m for m, mod in sys.modules.items()
                    if m.split(".")[0] == "sympy" and mod is not None)}))
"""


def test_pipeline_and_curve_library_load_no_sympy(tmp_path):
    src = str(Path(lelongplane.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY_RUN], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True)
    doc = json.loads(out.stdout)
    # example6lines has no certificate: construct exits 2 there
    assert doc["codes"] == {
        "construct --input example6lines.json "
        "--cert example6lines-cert.json": 2}
    assert doc["mus"] == [2, 2]
    assert doc["records"] == [["ProjPoint(0:0:1)", 2]]
    assert doc["residual"] == 10
    assert doc["shared"] == ["HomPoly(1*X + 1*Y + 1*Z)", False, True]
    assert doc["sympy"] == []


_STARTUP = """
import sys
import lelongplane.cli
lelongplane.cli.build_parser()
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""


def test_cli_start_up_loads_no_dataclasses_or_inspect(tmp_path):
    """What every CLI call pays before its command: importing the CLI and
    building its parser. The records are `record.Record` subclasses, so
    neither `dataclasses` nor the `inspect` it pulls in is loaded."""
    src = str(Path(lelongplane.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _STARTUP], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def coords_identity_reads(source: str) -> list[int]:
    """Lines that read `.coords` as a point's identity: as an operand of
    a comparison (an `in` test included), the element of a set or set
    comprehension, an argument of `.add(...)` or a dict key or index,
    directly or through a name bound to `.coords` (flagged where bound)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Attribute) and \
                node.value.attr == "coords":
            bound.setdefault(node.targets[0].id, []).append(node.lineno)
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            used += [node.left, *node.comparators]
        elif isinstance(node, ast.SetComp):
            used.append(node.elt)
        elif isinstance(node, ast.Set):
            used += node.elts
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "add":
            used += node.args
        elif isinstance(node, ast.Dict):
            used += [k for k in node.keys if k is not None]
        elif isinstance(node, ast.DictComp):
            used.append(node.key)
        elif isinstance(node, ast.Subscript):
            used.append(node.slice)
    lines = set()
    for node in used:
        if isinstance(node, ast.Attribute) and node.attr == "coords":
            lines.add(node.lineno)
        elif isinstance(node, ast.Name):
            lines.update(bound.get(node.id, ()))
    return sorted(lines)


def test_the_check_sees_identity_reads_of_coords():
    src = ("a = p.coords == q.coords\n"
           "b = x.coords in seen\n"
           "c = {p.coords for p in pts}\n"
           "seen.add(p.coords)\n"
           "d = {p.coords: p}\n"
           "e = {p.coords: p for p in pts}\n"
           "key = cond.point.coords\n"
           "f = merged[key]\n"
           "g = {x.coords, y.coords}\n"
           "x0, y0, z0 = x.coords\n"
           "h = x.coords[2] == 0\n"
           "k = sorted(pts, key=lambda p: p.coords)\n"
           "m = [str(c) for c in p.coords]\n")
    assert coords_identity_reads(src) == [1, 2, 3, 4, 5, 6, 7, 9]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.stem != "exactpoly"],
                         ids=lambda p: p.name)
def test_no_point_identity_through_coords(path):
    """`ProjPoint` compares and hashes its integer triple; outside
    `exactpoly`, points are compared, collected and keyed as points."""
    assert coords_identity_reads(path.read_text()) == []


def _perfbench_tracing():
    """`perfbench/tracing.py`, loaded from its file without touching it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    """`traced()` reads each layer as `owner.__dict__[attr]`, with no
    fallback: a layer whose function was removed or renamed would break
    every traced benchmark run."""
    tracing = _perfbench_tracing()
    missing = []
    for mod_name, qualname in tracing.LAYERS:
        owner, attr = tracing._owner(mod_name, qualname)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{mod_name}.{qualname}")
    assert missing == []
