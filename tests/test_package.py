"""Package-wide properties: the README example runs, and no module of
`dimertools` guards anything with `assert`."""

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
