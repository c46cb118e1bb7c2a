"""Package-wide properties: the README example runs, no module of
`dimertools` guards anything with `assert`, and none but the renderer
computes with floats."""

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
