"""Package-wide properties: the README example runs, no module of
`dimertools` guards anything with `assert`, none but the renderer
computes with floats, none imports a name it does not use, and records
are `NamedTuple`s but for three dataclasses."""

import ast
import os
import re
import subprocess
import sys

from conftest import FIXTURES

ROOT = FIXTURES.parents[2]
PACKAGE = FIXTURES.parent


def test_readme_example_runs():
    """The README's python block runs from the repository root and prints
    what its comments say."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    expected = [line.split("# ", 1)[1].strip()
                for line in block.splitlines() if "# " in line]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


def test_no_asserts_in_package():
    """Results must not depend on `python -O`, which strips asserts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Assert)]
    assert found == []


def test_no_floats_in_package():
    """No verdict may rest on a float: outside `render.py` no module has a
    float literal, calls `float`, or uses pi, atan2, sqrt, sin or cos from
    `math`."""
    banned = {"pi", "atan2", "sqrt", "sin", "cos"}

    def is_float(n):
        return ((isinstance(n, ast.Constant) and isinstance(n.value, float))
                or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "float")
                or (isinstance(n, ast.ImportFrom) and n.module == "math"
                    and any(a.name in banned for a in n.names))
                or (isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "math" and n.attr in banned))

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "render.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if is_float(n)]
    assert found == []


def test_no_unused_imports_in_package():
    """Every name a module of `dimertools` imports at module level is used
    in it.  `__init__.py` re-exports, and `algebra.solve_lp` and `cli.load`
    stay for the benchmark's tracer, which wraps them by name."""
    kept = {("algebra.py", "solve_lp"), ("cli.py", "load")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[(a.asname or a.name).split(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items()
                  if name not in used and (path.name, name) not in kept]
    assert found == []


def test_matchings_names_no_quiver():
    """Matching classes come from the dimer graph's edge offsets, so
    `matchings.py` neither imports nor names `Quiver`."""
    tree = ast.parse((PACKAGE / "matchings.py").read_text(encoding="utf-8"))
    names = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
             | {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)})
    assert "Quiver" not in names


def test_dataclasses_only_where_needed():
    """Records are `typing.NamedTuple`s: a `@dataclass` generates and
    `exec`s its methods' source on every import, several times the cost of
    a `NamedTuple`.  `Fan2D` and `CurvePattern` validate in
    `__post_init__`, so these two stay dataclasses.  `PerfectMatching` is
    a `NamedTuple` too, so that enumeration builds its records by `map`."""
    def is_dataclass(d):
        f = d.func if isinstance(d, ast.Call) else d
        return (isinstance(f, ast.Name) and f.id == "dataclass"
                or isinstance(f, ast.Attribute) and f.attr == "dataclass")

    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {n.name for n in ast.walk(tree)
                  if isinstance(n, ast.ClassDef)
                  and any(map(is_dataclass, n.decorator_list))}
    assert found == {"Fan2D", "CurvePattern"}
