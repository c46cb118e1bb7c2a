"""Command line behaviour: exit codes, report format, format parity."""

import json

import pytest

from conftest import fixture_path
from dimertools.cli import main


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


def test_svg_output(capsys, tmp_path):
    out_file = tmp_path / "pic.svg"
    assert main(["svg", str(fixture_path("hexagonal")),
                 "--layers", "tiling,quiver,matching,zigzag",
                 "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert main(["svg", str(fixture_path("hexagonal")),
                 "--layers", "bogus", "--out", str(out_file)]) == 2


def test_pattern_check(capsys, tmp_path):
    from dimertools.polygen import dump_pattern, square_pattern
    pat = tmp_path / "grid.pattern"
    pat.write_text(dump_pattern(square_pattern(2)))
    code, out = run(capsys, "pattern-check", pat)
    assert code == 0
    assert "pattern=True" in out or "VERDICT" in out
    pat.write_text("PATTERN 2\n")
    assert main(["pattern-check", str(pat)]) == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        main(["report", "x.dimer", "--frobnicate"])


def test_negative_degree_rejected():
    assert main(["report", str(fixture_path("hexagonal")),
                 "--max-degree", "-1"]) == 2


# hexagonal with every edge offset set to 0 0: it loads, but its cycle
# classes do not generate Z^2, so the dual quiver cannot be built
FLAT_HEXAGONAL = """DIMER 1
vertex 0 B
vertex 1 W
edge 0 0 1 0 0
edge 1 0 1 0 0
edge 2 0 1 0 0
rot 0 0 1 2
rot 1 0 1 2
"""


def test_report_undualizable_model_fails_load(capsys, tmp_path):
    model = tmp_path / "flat.dimer"
    model.write_text(FLAT_HEXAGONAL)
    code, out = run(capsys, "report", model, "--format", "json-lines")
    assert code == 2
    (rec,) = [json.loads(l) for l in out.splitlines()]
    assert (rec["kind"], rec["name"], rec["ok"]) == ("rung", "load", False)
    assert "closed walk" in rec["summary"]
    code, out = run(capsys, "report", model)
    assert code == 2
    assert out.startswith("RUNG load FAIL") and len(out.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["balwnopm", "--layers", "tiling,quiver,matching,zigzag"],
    ["three_rhombi", "--layers", "tiling,quiver,matching,zigzag"],
    ["hexagonal", "--layers", "matching", "--matching", "3"],
    ["hexagonal", "--layers", "zigzag", "--path", "99"],
])
def test_svg_index_out_of_range(capsys, argv):
    """No matching to draw, or an index past the end, is an input error
    with a one-line message."""
    code = main(["svg", str(fixture_path(argv[0]))] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "out of range" in err


def test_report_enumerates_matchings_once(capsys, monkeypatch):
    from dimertools import algebra, matchings, symmetry
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module in (matchings, algebra):
        monkeypatch.setattr(module, "enumerate_matchings",
                            counting(module, "enumerate_matchings"))
    for module in (symmetry, algebra):
        monkeypatch.setattr(module, "default_r_symmetry",
                            counting(module, "default_r_symmetry"))
    assert run(capsys, "report", fixture_path("memeg"))[0] == 0
    assert sorted(calls) == ["default_r_symmetry", "enumerate_matchings"]
