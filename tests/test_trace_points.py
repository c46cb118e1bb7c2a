"""The benchmark's trace points name functions that exist.

`perfbench/spans.py` wraps each traced function, looked up by name in its
module or class, and raises KeyError for a name that is gone.  These tests
import it unchanged and install its tracer on freshly imported modules, as
`perfbench/run.py --trace 1` does.
"""

import importlib
import pathlib
import sys

import pytest

from conftest import fixture_path

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _program_modules():
    return [n for n in sys.modules
            if n == "dimertools" or n.startswith("dimertools.")]


@pytest.fixture
def fresh(monkeypatch):
    """The spans module, and the program's layers imported afresh; the
    modules imported before are put back afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {n: sys.modules.pop(n) for n in _program_modules()}
    saved_spans = sys.modules.pop("spans", None)
    try:
        spans = importlib.import_module("spans")
        yield spans, {layer: importlib.import_module(f"dimertools.{layer}")
                      for layer in spans.LAYERS}
    finally:
        for n in _program_modules():
            del sys.modules[n]
        sys.modules.update(saved)
        sys.modules.pop("spans", None)
        if saved_spans is not None:
            sys.modules["spans"] = saved_spans


def _owner(prog, owner_path):
    mod, _, cls = owner_path.partition(".")
    return getattr(prog[mod], cls) if cls else prog[mod]


def test_tracer_installs_and_restores(fresh):
    """Every trace point exists, is wrapped while the tracer is installed,
    records spans when called, and is the original again afterwards.  The
    graded pieces solve no LP and the CY3 ranks are read from components,
    so `rationallp.algebra` and `algebra.rank` record nothing."""
    spans, prog = fresh
    originals = [(_owner(prog, path), attr, _owner(prog, path).__dict__[attr])
                 for path, attr, _, _ in spans.POINTS]
    tracer = spans.Tracer()
    tracer.install(prog)
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr].__wrapped__ is original, attr
        g = prog["surface"].load(fixture_path("conifold").read_text())
        td = prog["algebra"].ToricData(g)
        assert td.cy3_check(4).ok
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"surface.load", "matchings.enumerate", "algebra.init",
            "algebra.consistency", "algebra.cy3"} <= names
    assert not names & {"rationallp.algebra", "algebra.rank"}
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
