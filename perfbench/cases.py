"""The benchmark's workloads, their cases, and the oracle for each case.

A case is one closed-loop call into the program: `run` is the timed call
and returns the program's raw output; `digest` turns that output into the
data the oracle compares with `pinned.json`, after the clock has stopped.
Digests keep exit codes, rung names and verdicts, counts, classes and
piece statistics, and drop free-text `summary` and `detail` strings.  An
R-symmetry is checked against its defining equations, not pinned.
"""

from __future__ import annotations

import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("fixtures", "square", "deep")

FIXTURE_COMMANDS = ("report", "polygon", "zigzag", "extremal", "matchings",
                    "algebra", "cy3", "svg")
SVG_LAYERS = "tiling,quiver,matching,zigzag"
SQUARE_SIZES = (2, 3, 4)
SQUARE_REPORT_DEGREE = 4
DEEP_MODELS = (("hexagonal", 10), ("nonmin_conifold", 11), ("xyloops", 14))

# Cases whose pinned outcome is an uncaught exception.  They count as
# failed on every run; a typed error (exit 1 or 2) in their place counts as
# correct.  The svg matching layer indexes the first perfect matching of a
# model that has none.
KNOWN_DEFECTS = {
    "fixtures/svg/balwnopm": "IndexError",
    "fixtures/svg/three_rhombi": "IndexError",
}

# record keys left out of digests: free text, and the constant format tag
DROPPED_KEYS = ("v", "summary", "detail")


@dataclass
class Case:
    id: str
    model: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# Digests

def cli_digest(outcome: tuple[int, str], svg: bool = False) -> dict:
    code, out = outcome
    if svg:
        shape = {tag: out.count(f"<{tag} ")
                 for tag in ("line", "circle", "polyline", "g")}
        return {"exit": code, "svg": shape if code == 0 else None}
    records = [{k: v for k, v in json.loads(line).items()
                if k not in DROPPED_KEYS}
               for line in out.splitlines() if line.strip()]
    return {"exit": code, "records": records}


def r_equations_hold(wf, q, anomaly_free: bool) -> bool:
    """Face sums equal the degree, weights are positive and, for an
    anomaly-free R, sum of R over the arrows at v = degree * (|H_v| - 1)."""
    w = wf.weights
    if not all(x > 0 for x in w):
        return False
    if any(sum(w[a] for a in f.boundary) != wf.degree for f in q.faces):
        return False
    if anomaly_free:
        for v in range(q.n_vertices):
            inc = [a.id for a in q.arrows if a.head == v]
            out = [a.id for a in q.arrows if a.tail == v]
            if sum(w[a] for a in inc + out) != wf.degree * (len(inc) - 1):
                return False
    return True


def ladder_digest(res: dict) -> dict:
    q = res["q"]
    d = {"rungs": res["rungs"]}
    if "ms" in res:
        ms = res["ms"]
        d["matchings"] = len(ms)
        classes: dict[tuple, int] = {}
        for m in ms:
            classes[m.cls] = classes.get(m.cls, 0) + 1
        d["polygon"] = sorted([list(p), k] for p, k in classes.items())
    if "r" in res:
        d["r_degree"] = int(res["r"].degree)
        d["r_equations"] = r_equations_hold(res["r"], q, False)
    if res.get("af") is not None:
        d["anomaly_free_equations"] = r_equations_hold(res["af"], q, True)
    if "paths" in res:
        d["zigzag"] = sorted([p.period, list(p.cls)] for p in res["paths"])
    return d


def _cls(c) -> list:
    return [c.tail, c.head, list(c.hom), c.deg]


def deep_digest(res: dict) -> dict:
    ar, cy = res["algebra"], res["cy3"]
    d = {"algebra": {
        "ok": ar.ok,
        "piece_stats": [list(s) for s in ar.piece_stats],
        "failures": sorted([f.kind, _cls(f.cls), f.d] for f in ar.failures)}}
    if isinstance(cy, str):
        d["cy3"] = {"raised": cy}
    else:
        d["cy3"] = {"ok": cy.ok,
                    "piece_stats": [list(s) for s in cy.piece_stats],
                    "failures": sorted(list(f) for f in cy.failures)}
    return d


def center_digest(res: tuple) -> dict:
    lam, gens = res
    return {"lam": lam, "generators": [[list(m.hom), m.deg] for m in gens]}


# ---------------------------------------------------------------------------
# Calls into the program

def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def lower_rungs(prog: dict, text: str) -> dict:
    """The ladder from load through properly-ordered as library calls,
    stopping at the first failing rung as `report` does."""
    surface, matchings = prog["surface"], prog["matchings"]
    symmetry, zigzag = prog["symmetry"], prog["zigzag"]
    g = surface.load(text)
    q = surface.dualize(g)
    res: dict[str, Any] = {"q": q, "rungs": []}

    def rung(name: str, ok: bool) -> bool:
        res["rungs"].append([name, ok])
        return ok

    if not (rung("euler", symmetry.euler_check(q))
            and rung("hall", matchings.hall_check(g).ok)
            and rung("nondegeneracy", matchings.nondegeneracy_check(g).ok)):
        return res
    res["ms"] = matchings.enumerate_matchings(g, q)
    res["r"] = symmetry.default_r_symmetry(res["ms"], q)
    if not rung("r-symmetry", all(w > 0 for w in res["r"].weights)):
        return res
    res["af"] = symmetry.find_anomaly_free(q)
    if not rung("anomaly-free", res["af"] is not None):
        return res
    res["paths"] = zigzag.zigzag_paths(q)
    if rung("geometric", zigzag.geometric_check(res["paths"]).verdict):
        rung("properly-ordered", zigzag.properly_ordered(q, res["paths"]))
    return res


def deep_check(prog: dict, text: str, degree: int) -> dict:
    """ToricData, algebraic consistency, then the CY3 check, as `report`
    runs them."""
    surface, algebra = prog["surface"], prog["algebra"]
    g = surface.load(text)
    td = algebra.ToricData(g, surface.dualize(g))
    res: dict[str, Any] = {"algebra": td.algebraic_consistency(degree)}
    try:
        res["cy3"] = td.cy3_check(degree)
    except surface.DimerError as e:
        res["cy3"] = type(e).__name__
    return res


def center(prog: dict, text: str) -> tuple:
    td = prog["algebra"].ToricData(prog["surface"].load(text))
    return td.lam, td.center_generators(2 * td.lam)


# ---------------------------------------------------------------------------
# Workloads

def prepare(workload: str, prog: dict, root: Path, workdir: Path
            ) -> list[Case]:
    """Make the workload's inputs (the timed set-up) and its cases."""
    fixtures = root / "src" / "dimertools" / "fixtures"
    cli = prog["cli"]
    if workload == "fixtures":
        # the renderer imports numpy on first use; import it here so that
        # no timed pass pays for it
        importlib.import_module("numpy")
        cases = []
        for path in sorted(fixtures.glob("*.dimer")):
            path.read_text(encoding="utf-8")    # cli.main reads it again
            for cmd in FIXTURE_COMMANDS:
                argv = [cmd, str(path)]
                argv += (["--layers", SVG_LAYERS] if cmd == "svg"
                         else ["--format", "json-lines"])
                svg = cmd == "svg"
                cases.append(Case(
                    f"fixtures/{cmd}/{path.stem}", path.stem,
                    lambda argv=argv: run_cli(cli, argv),
                    lambda out, svg=svg: cli_digest(out, svg)))
        return cases
    if workload == "square":
        polygen, surface = prog["polygen"], prog["surface"]
        texts = {n: surface.dump(polygen.pattern_to_dimer(
            polygen.square_pattern(n))) for n in SQUARE_SIZES}
        report_path = workdir / "square-2.dimer"
        report_path.write_text(texts[2], encoding="utf-8")
        argv = ["report", str(report_path), "--max-degree",
                str(SQUARE_REPORT_DEGREE), "--format", "json-lines"]
        return [
            Case("square/report-2", "square-2",
                 lambda: run_cli(cli, argv), cli_digest),
            Case("square/center-2", "square-2",
                 lambda: center(prog, texts[2]), center_digest),
            Case("square/lower-rungs-3", "square-3",
                 lambda: lower_rungs(prog, texts[3]), ladder_digest),
            Case("square/lower-rungs-4", "square-4",
                 lambda: lower_rungs(prog, texts[4]), ladder_digest),
        ]
    if workload == "deep":
        texts = {name: (fixtures / f"{name}.dimer").read_text(
            encoding="utf-8") for name, _ in DEEP_MODELS}
        return [Case(f"deep/{name}-{d}", name,
                     lambda name=name, d=d: deep_check(prog, texts[name], d),
                     deep_digest)
                for name, d in DEEP_MODELS]
    raise ValueError(f"unknown workload {workload!r}")


def verdict(case_id: str, digest: Any, pinned: dict) -> str:
    """pass, wrong or known-defect, against the pinned digest."""
    expected = pinned.get(case_id)
    if expected is None:
        return "wrong"
    if digest == expected:
        return "known-defect" if case_id in KNOWN_DEFECTS else "pass"
    if case_id in KNOWN_DEFECTS and digest.get("exit") in (1, 2):
        return "pass"
    return "wrong"
