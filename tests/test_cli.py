"""Command line behaviour: exit codes, report format, format parity."""

import json
import os
import subprocess
import sys

import pytest

from conftest import ALL_FIXTURES, FIXTURES, fixture_path
from dimertools.cli import build_parser, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fixture_path("hexagonal"))
    assert code == 0
    assert "MODEL" in out


def test_validate_bad_input(capsys, tmp_path):
    assert main(["validate", str(fixture_path("cube"))]) == 2
    bad = tmp_path / "bad.dimer"
    bad.write_text("DIMER 1\nvertex 0 B\n")
    assert main(["validate", str(bad)]) == 2
    assert main(["validate", str(tmp_path / "missing.dimer")]) == 2


def test_report_all_pass(capsys):
    code, out = run(capsys, "report", fixture_path("hexagonal"))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("RUNG")]
    names = [l.split()[1] for l in lines]
    assert names == ["load", "euler", "hall", "nondegeneracy", "r-symmetry",
                     "anomaly-free", "geometric", "properly-ordered",
                     "algebraic", "cy3"]
    assert all(l.split()[2] == "PASS" for l in lines)


def test_report_geometric_failure(capsys):
    code, out = run(capsys, "report", fixture_path("examplestp"))
    assert code == 1
    lines = [l.split() for l in out.splitlines() if l.startswith("RUNG")]
    verdicts = {l[1]: l[2] for l in lines}
    assert verdicts["anomaly-free"] == "PASS"
    assert verdicts["geometric"] == "FAIL"
    assert lines[-1][1] == "geometric"      # ladder stops at the failure


def test_report_degenerate(capsys):
    code, out = run(capsys, "report", fixture_path("degenerate"))
    assert code == 1
    assert "RUNG nondegeneracy FAIL" in out


def test_report_format_parity(capsys):
    """Text and JSON lines carry identical rung data."""
    _, text = run(capsys, "report", fixture_path("conifold"))
    _, js = run(capsys, "report", fixture_path("conifold"),
                "--format", "json-lines")
    text_rungs = [(l.split()[1], l.split()[2] == "PASS")
                  for l in text.splitlines() if l.startswith("RUNG")]
    json_rungs = []
    for line in js.splitlines():
        rec = json.loads(line)
        assert rec["v"] == 1
        if rec["kind"] == "rung":
            json_rungs.append((rec["name"], rec["ok"]))
    assert text_rungs == json_rungs


def test_zigzag_exit_codes(capsys):
    assert run(capsys, "zigzag", fixture_path("conifold"))[0] == 0
    assert run(capsys, "zigzag", fixture_path("examplestp"))[0] == 1


def test_polygon_output(capsys):
    code, out = run(capsys, "polygon", fixture_path("conifold"),
                    "--format", "json-lines")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()]
    points = [r for r in recs if r["kind"] == "point"]
    assert len(points) == 4
    assert all(r["multiplicity"] == 1 for r in points)
    (nf,) = [r for r in recs if r["kind"] == "normal-form"]
    assert nf["points"] == [[[0, 0], 1], [[0, 1], 1], [[1, 0], 1],
                            [[1, 1], 1]]


def test_extremal_output(capsys):
    code, out = run(capsys, "extremal", fixture_path("memeg"),
                    "--format", "json-lines")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()]
    assert len(recs) == 4
    assert all(r["pairing_cw"] == 0 and r["pairing_ccw"] == 0 for r in recs)


# `extremal --format json-lines` on the consistent fixtures: per cone its
# rays, the class and the support of its matching; both pairings are 0
EXTREMAL = {
    "hexagonal": [([[1, 0], [-1, 1]], [0, 1], [1]),
                  ([[-1, 1], [0, -1]], [-1, 0], [2]),
                  ([[0, -1], [1, 0]], [0, 0], [0])],
    "conifold": [([[1, 0], [0, 1]], [1, 0], [3]),
                 ([[0, 1], [-1, 0]], [0, 0], [0]),
                 ([[-1, 0], [0, -1]], [0, -1], [1]),
                 ([[0, -1], [1, 0]], [1, -1], [2])],
    "memeg": [([[1, 0], [0, 1]], [1, 1], [2, 5]),
              ([[0, 1], [-1, -1]], [-1, 1], [1, 4]),
              ([[-1, -1], [0, -1]], [0, 0], [0, 3]),
              ([[0, -1], [1, 0]], [1, 0], [0, 6])],
}


def test_extremal_needs_no_enumeration(capsys, monkeypatch):
    """`extremal` reads its matchings off the zig-zag fan: it never lists
    the perfect matchings, and prints the classes they have there."""
    from dimertools import matchings

    def refuse(*args, **kwargs):
        raise AssertionError("extremal enumerated the perfect matchings")
    monkeypatch.setattr(matchings, "enumerate_matchings", refuse)
    for name, cones in EXTREMAL.items():
        code, out = run(capsys, "extremal", fixture_path(name),
                        "--format", "json-lines")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"v": 1, "kind": "cone", "rays": rays, "vertex": vertex,
             "support": support, "pairing_cw": 0, "pairing_ccw": 0}
            for rays, vertex, support in cones]


def test_extremal_refuses_inconsistent(capsys):
    assert run(capsys, "extremal", fixture_path("examplestp"))[0] == 1


def test_algebra_and_cy3(capsys):
    assert run(capsys, "algebra", fixture_path("conifold"))[0] == 0
    assert run(capsys, "algebra", fixture_path("xyloops"),
               "--max-degree", "3")[0] == 1
    assert run(capsys, "cy3", fixture_path("hexagonal"),
               "--max-degree", "3")[0] == 0
    # cy3 refuses models failing the algebra check
    assert run(capsys, "cy3", fixture_path("xyloops"),
               "--max-degree", "2")[0] == 1


def test_gen_square_pipes_into_report(capsys, tmp_path):
    out_file = tmp_path / "sq.dimer"
    assert main(["gen-square", "2", "--out", str(out_file)]) == 0
    code, out = run(capsys, "report", out_file)
    assert code == 0
    assert out.count("PASS") == 10


# `report --format json-lines` on gen-square 4, captured before the class
# table was summed from byte planes: every rung passes
SQUARE_4_REPORT = [
    ("load", "32 vertices 64 edges"),
    ("euler", "|Q0|-|Q1|+|Q2|=0"),
    ("hall", "every black subset has enough neighbours"),
    ("nondegeneracy", "every edge lies in a matching"),
    ("r-symmetry", "degree 26752 from 26752 matchings"),
    ("anomaly-free", "anomaly-free R-symmetry found"),
    ("geometric", "16 zig-zag paths behave like lines"),
    ("properly-ordered", "face crossings in angular order"),
    ("algebraic", "degree<=4 5120 graded pieces 0 failures"),
    ("cy3", "degree<=4 one-sided complex exact"),
]


def test_report_on_gen_square_4(capsys, tmp_path):
    """Every rung of `report` on the largest model that the suite can
    afford, 26,752 matchings and 1,024 vertex pairs, prints the records
    pinned above."""
    model = tmp_path / "sq4.dimer"
    assert main(["gen-square", "4", "--out", str(model)]) == 0
    code, out = run(capsys, "report", model, "--format", "json-lines")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"v": 1, "kind": "rung", "name": name, "ok": True, "summary": summary}
        for name, summary in SQUARE_4_REPORT]


def test_svg_output(capsys, tmp_path):
    out_file = tmp_path / "pic.svg"
    assert main(["svg", str(fixture_path("hexagonal")),
                 "--layers", "tiling,quiver,matching,zigzag",
                 "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert main(["svg", str(fixture_path("hexagonal")),
                 "--layers", "bogus", "--out", str(out_file)]) == 2


def test_svg_builds_one_quiver(tmp_path, monkeypatch):
    """The quiver layer draws the quiver the matching and zig-zag layers
    were read from; the model is dualized once."""
    from dimertools.surface import Quiver
    built = []
    original = Quiver.__init__

    def counting(self, graph):
        built.append(graph)
        original(self, graph)
    monkeypatch.setattr(Quiver, "__init__", counting)
    out_file = tmp_path / "pic.svg"
    assert main(["svg", str(fixture_path("hexagonal")),
                 "--layers", "tiling,quiver,matching,zigzag",
                 "--out", str(out_file)]) == 0
    assert len(built) == 1
    assert 'class="quiver"' in out_file.read_text()


def test_pattern_check(capsys, tmp_path):
    from dimertools.polygen import dump_pattern, square_pattern
    pat = tmp_path / "grid.pattern"
    pat.write_text(dump_pattern(square_pattern(2)))
    code, out = run(capsys, "pattern-check", pat)
    assert code == 0
    assert "pattern=True" in out or "VERDICT" in out
    pat.write_text("PATTERN 2\n")
    assert main(["pattern-check", str(pat)]) == 2


@pytest.mark.parametrize("old,new,message", [
    ("curve 1 2 3\n", "curve 1 2 99\n", "unknown segment 99"),
    ("curve 3 6 7\n", "curve 3 6 7\ncurve 3 6 7\n", "given twice"),
    ("curve 3 6 7\n", "curve 3 6 7\ncurve 4\n", "curve 4 has no segments"),
])
def test_pattern_check_bad_curve_line(capsys, tmp_path, old, new, message):
    """A curve line naming an unknown segment, a curve id given twice, or
    a curve with no segments is a parse error: exit 2 with a one-line
    message."""
    from dimertools.polygen import dump_pattern, load_pattern, square_pattern
    from dimertools.surface import ParseError
    text = dump_pattern(square_pattern(1))
    assert old in text
    text = text.replace(old, new)
    with pytest.raises(ParseError, match=message):
        load_pattern(text)
    pat = tmp_path / "bad.pattern"
    pat.write_text(text)
    assert main(["pattern-check", str(pat)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["report", "x.dimer", "--frobnicate"])


def test_parser_shared_between_calls(capsys):
    """`main` builds its parser once; no option value of one call leaks
    into the next."""
    hexagonal = fixture_path("hexagonal")
    code, out = run(capsys, "report", hexagonal, "--max-degree", "2")
    assert code == 0 and "degree<=2" in out
    code, out = run(capsys, "report", hexagonal)
    assert code == 0 and "degree<=4" in out and "degree<=2" not in out
    assert build_parser() is build_parser()


def test_negative_degree_rejected():
    assert main(["report", str(fixture_path("hexagonal")),
                 "--max-degree", "-1"]) == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_square_rejects_small_n(capsys, n):
    assert main(["gen-square", n]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "n must be at least 1\n"


@pytest.mark.parametrize("command", ["report", "matchings"])
def test_out_cannot_be_opened(capsys, tmp_path, command):
    """An --out path in a missing directory is an input error with a
    one-line message, not a traceback."""
    out_file = tmp_path / "missing" / "x.txt"
    assert main([command, str(fixture_path("hexagonal")),
                 "--out", str(out_file)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "No such file or directory" in err
    assert not out_file.parent.exists()


def test_own_failure_precedes_out_error(capsys, tmp_path):
    """--out is opened only on the first write, so a command that fails
    before it writes reports its own failure, not the unopenable path."""
    out_file = tmp_path / "missing" / "x.txt"
    assert main(["extremal", str(fixture_path("examplestp")),
                 "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "model is not geometrically consistent\n"
    assert not out_file.parent.exists()


@pytest.mark.parametrize("argv", [
    ["gen-square", "2"],
    ["svg", fixture_path("hexagonal"), "--layers",
     "tiling,quiver,matching,zigzag"],
    ["report", fixture_path("conifold"), "--format", "json-lines"],
])
def test_out_file_is_stdout(capsys, tmp_path, argv):
    """--out receives exactly what stdout would, byte for byte."""
    code, out = run(capsys, *argv)
    assert code == 0
    out_file = tmp_path / "out"
    assert main([str(a) for a in argv] + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == out.encode("utf-8")


def test_out_opened_on_first_write(capsys, tmp_path):
    """--out is opened on the first write: a command that fails before
    writing leaves an existing file as it was and creates no new one; one
    that succeeds creates it even when it writes nothing."""
    out_file = tmp_path / "pic.svg"
    out_file.write_text("keep\n")
    assert main(["svg", str(fixture_path("hexagonal")), "--layers", "bogus",
                 "--out", str(out_file)]) == 2
    assert out_file.read_text() == "keep\n"
    new_file = tmp_path / "matchings.txt"
    assert main(["matchings", str(tmp_path / "missing.dimer"),
                 "--out", str(new_file)]) == 2
    assert not new_file.exists()
    out, err = capsys.readouterr()
    assert out == "" and "No such file or directory" in err
    # a success that writes nothing still creates the file, empty
    assert main(["matchings", str(fixture_path("three_rhombi")),
                 "--out", str(new_file)]) == 0
    assert new_file.read_text() == ""


# hexagonal with every edge offset set to 0 0, and with x-offsets scaled
# by 2 and y-offsets by 3: both load, but their cycle classes generate a
# sublattice of Z^2 of rank 1 and of index 6, so the dual quiver cannot be
# built
FLAT_HEXAGONAL = """DIMER 1
vertex 0 B
vertex 1 W
edge 0 0 1 0 0
edge 1 0 1 0 0
edge 2 0 1 0 0
rot 0 0 1 2
rot 1 0 1 2
"""
SCALED_HEXAGONAL = (FLAT_HEXAGONAL
                    .replace("edge 1 0 1 0 0", "edge 1 0 1 2 0")
                    .replace("edge 2 0 1 0 0", "edge 2 0 1 0 3"))


def test_report_undualizable_model_fails_load(capsys, tmp_path):
    for text, size in ((FLAT_HEXAGONAL, "rank < 2"),
                       (SCALED_HEXAGONAL, "index 6")):
        model = tmp_path / "undualizable.dimer"
        model.write_text(text)
        code, out = run(capsys, "report", model, "--format", "json-lines")
        assert code == 2
        (rec,) = [json.loads(l) for l in out.splitlines()]
        assert (rec["kind"], rec["name"], rec["ok"]) == ("rung", "load",
                                                         False)
        assert size in rec["summary"] and "closed walk" in rec["summary"]
        code, out = run(capsys, "report", model)
        assert code == 2
        assert out.startswith("RUNG load FAIL") and len(out.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["balwnopm", "--layers", "tiling,quiver,matching,zigzag"],
    ["three_rhombi", "--layers", "tiling,quiver,matching,zigzag"],
    ["hexagonal", "--layers", "matching", "--matching", "3"],
    ["hexagonal", "--layers", "zigzag", "--path", "99"],
    ["hexagonal", "--layers", "matching", "--matching", "-1"],
    ["hexagonal", "--layers", "zigzag", "--path", "-2"],
])
def test_svg_index_out_of_range(capsys, argv):
    """No matching to draw, or an index past the end or below zero, is an
    input error with a one-line message."""
    code = main(["svg", str(fixture_path(argv[0]))] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "out of range" in err


def counting_calls(monkeypatch, calls, name, modules):
    """Wrap `name` in each of `modules`, appending name to calls per call."""
    for module in modules:
        original = getattr(module, name)

        def wrapper(*args, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)


def test_report_enumerates_matchings_once(capsys, monkeypatch):
    from dimertools import algebra, matchings, symmetry
    calls = []
    counting_calls(monkeypatch, calls, "enumerate_matchings",
                   (matchings, algebra))
    counting_calls(monkeypatch, calls, "default_r_symmetry",
                   (symmetry, algebra))
    assert run(capsys, "report", fixture_path("memeg"))[0] == 0
    assert sorted(calls) == ["default_r_symmetry", "enumerate_matchings"]


def test_report_builds_zigzag_paths_once(capsys, monkeypatch):
    """`report` builds the zig-zag paths once and hands them to the
    anomaly-free rung."""
    from dimertools import cli, symmetry
    calls = []
    counting_calls(monkeypatch, calls, "zigzag_paths", (cli.zigzag,
                                                        symmetry))
    assert run(capsys, "report", fixture_path("hexagonal"))[0] == 0
    assert calls == ["zigzag_paths"]


def test_extremal_searches_reference_once(capsys, monkeypatch, tmp_path):
    """`extremal` finds the reference matching once for all cones, here
    the 4 of gen-square 4."""
    from dimertools import matchings
    model = tmp_path / "sq.dimer"
    assert main(["gen-square", "4", "--out", str(model)]) == 0
    calls = []
    counting_calls(monkeypatch, calls, "reference_matching", (matchings,))
    code, out = run(capsys, "extremal", model)
    assert code == 0 and out.count("CONE") == 4
    assert calls == ["reference_matching"]


# runs report, algebra and cy3 at degree 6 on each fixture as json-lines;
# the first line says whether asserts run
VERDICTS_ALL = """
import sys
from dimertools.cli import main
print(__debug__)
for name in sys.argv[2:]:
    for cmd in (["report"], ["algebra"], ["cy3", "--max-degree", "6"],
                ["zigzag"], ["extremal"], ["polygon"], ["matchings"]):
        code = main([cmd[0], f"{sys.argv[1]}/{name}.dimer", *cmd[1:],
                     "--format", "json-lines"])
        print("exit", cmd[0], name, code)
"""


def test_report_same_without_asserts():
    """`python -O` strips asserts; no verdict or count of `report`,
    `algebra`, `cy3`, `zigzag`, `extremal`, `polygon` or `matchings` may
    depend on them."""
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parents[1]))
    outs = [subprocess.run([sys.executable, *flags, "-c", VERDICTS_ALL,
                            str(FIXTURES), *ALL_FIXTURES],
                           env=env, capture_output=True, text=True,
                           check=True).stdout.split("\n", 1)
            for flags in ([], ["-O"])]
    assert [out[0] for out in outs] == ["True", "False"]
    assert outs[0][1] == outs[1][1]
    assert outs[0][1].count("exit ") == 7 * len(ALL_FIXTURES)
