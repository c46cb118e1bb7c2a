"""Golden command line outputs: stdout, stderr and exit code of the main
subcommands on every bundled fixture and on `gen-square` 1-2, pinned in
`golden_cli.json`.  Any change to what a subcommand prints fails here,
naming the first run that differs.

Re-record the file with ``PYTHONPATH=src python tests/test_golden.py``; each
re-record is a deliberate output change and is described in CHANGES.md.
`svg` is left out: its layout is floating point.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import dimertools
from dimertools.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
FIXTURES = pathlib.Path(dimertools.__file__).parent / "fixtures"
SQUARES = (1, 2)
JSON = ("--format", "json-lines")
COMMANDS = (
    ("report",),
    ("report", *JSON),
    ("algebra", *JSON),
    ("cy3", "--max-degree", "6", *JSON),
    ("zigzag", *JSON),
    ("extremal", *JSON),
    ("polygon", *JSON),
    ("matchings", *JSON),
)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> dict[str, dict]:
    """Every run, keyed by its command line with the model's file named by
    the model (a fixture's stem, or `square-n`)."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        models = {p.stem: str(p) for p in sorted(FIXTURES.glob("*.dimer"))}
        for n in SQUARES:
            path = str(pathlib.Path(tmp) / f"square-{n}.dimer")
            assert run(["gen-square", str(n), "--out", path])["code"] == 0
            models[f"square-{n}"] = path
        for name, path in models.items():
            for command in COMMANDS:
                result = run([command[0], path, *command[1:]])
                result["stderr"] = result["stderr"].replace(path, name)
                runs[" ".join([command[0], name, *command[1:]])] = result
    return runs


def test_golden_cli_outputs():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = record()
    assert list(actual) == list(expected)
    for key, want in expected.items():
        assert actual[key] == want, f"first differing run: {key}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
