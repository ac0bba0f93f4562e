"""Every name a module of the package imports is used or re-exported,
and sympy is imported only from its polynomial modules.

Parses each `src/lelongplane/*.py` with `ast`: a name bound by `import` or
`from ... import` anywhere in a module must be read somewhere in it, or be
listed in its `__all__`. sympy may be imported only as
`from sympy.polys.<module> import ...`: a bare `import sympy` (or
`import sympy.<module>`, which binds `sympy`) would put the expression API
in reach.
"""

import ast
from pathlib import Path

import pytest

import lelongplane

MODULES = sorted(Path(lelongplane.__file__).parent.glob("*.py"))


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
