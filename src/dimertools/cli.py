"""Command line front end.

Exit codes: 0 all requested checks pass (or informational output), 1 a
requested check failed, 2 input or format error.  Output is line oriented;
``--format json-lines`` emits one JSON object per line carrying the same
data as the text rendering, each tagged with ``"v": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from typing import Optional, Sequence

from . import algebra, fans, matchings, polygen, render, symmetry, zigzag
from .surface import (DimerError, ParseError, TopologyError, dualize, dump,
                      load_file)
# not called here; perfbench/spans.py traces `cli.load` by name
from .surface import load  # noqa: F401


class Reporter:
    """A subcommand's output: to the file `out`, opened on the first
    write, or to standard output when there is no `out`."""

    def __init__(self, fmt: str, out: Optional[str] = None):
        self.fmt = fmt
        self.out = out
        self.file = None

    def write(self, text: str) -> None:
        if self.out and self.file is None:
            self.file = open(self.out, "w", encoding="utf-8")
        (self.file or sys.stdout).write(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def emit(self, record: dict) -> None:
        if self.fmt == "json-lines":
            line = json.dumps({"v": 1, **record}, separators=(",", ":"))
        elif record.get("kind") == "rung":
            verdict = "PASS" if record["ok"] else "FAIL"
            line = f'RUNG {record["name"]} {verdict} {record["summary"]}'
        else:
            bits = [str(record["kind"]).upper()]
            bits += [f"{k}={record[k]}" for k in record if k != "kind"]
            line = " ".join(bits)
        self.write(line + "\n")

    def rung(self, name: str, ok: bool, summary: str) -> bool:
        """Emit the record of one rung of the ladder; returns ok."""
        self.emit({"kind": "rung", "name": name, "ok": ok,
                   "summary": summary})
        return ok


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, rep: Reporter) -> int:
    g = load_file(args.input)
    rep.emit({"kind": "model", "vertices": len(g.colors),
              "edges": len(g.edges), "faces": len(g.faces)})
    return 0


def cmd_report(args, rep: Reporter) -> int:
    """The consistency ladder, one rung per line, stopping at the first
    failure."""
    try:
        g = load_file(args.input)
        q = dualize(g)
    except (OSError, DimerError) as e:
        rep.rung("load", False, str(e))
        return 2
    rep.rung("load", True, f"{len(g.colors)} vertices {len(g.edges)} edges")

    euler = q.n_vertices - q.n_arrows + len(q.faces)
    if not rep.rung("euler", symmetry.euler_check(q),
                    f"|Q0|-|Q1|+|Q2|={euler}"):
        return 1

    hall = matchings.hall_check(g)
    summary = "every black subset has enough neighbours" if hall.ok else (
        f"imbalance {hall.imbalance}" if hall.imbalance else
        f"violating set {sorted(hall.witness[0])} -> "
        f"{sorted(hall.witness[1])}")
    if not rep.rung("hall", hall.ok, summary):
        return 1

    nd = matchings.nondegeneracy_check(g)
    summary = "every edge lies in a matching" if nd.ok else \
        f"dead edges {nd.dead_edges}"
    if not rep.rung("nondegeneracy", nd.ok, summary):
        return 1

    # raises DimerError unless the default R-symmetry is strictly positive
    td = algebra.ToricData(g, q)
    rep.rung("r-symmetry", True,
             f"degree {td.lam} from {len(td.matchings)} matchings")

    paths = zigzag.zigzag_paths(q)
    af = symmetry.find_anomaly_free(q, paths=paths)
    summary = "anomaly-free R-symmetry found" if af else \
        "vertex equations infeasible"
    if not rep.rung("anomaly-free", af is not None, summary):
        return 1

    geo = zigzag.geometric_check(paths)
    kinds = dict(Counter(type(f).__name__ for f in geo.failures))
    summary = f"{len(paths)} zig-zag paths behave like lines" \
        if geo.verdict else f"failures {kinds}"
    if not rep.rung("geometric", geo.verdict, summary):
        return 1

    po = zigzag.properly_ordered(q, paths)
    summary = "face crossings in angular order" if po else \
        "order or area mismatch"
    if not rep.rung("properly-ordered", po, summary):
        return 1

    ar = td.algebraic_consistency(args.max_degree)
    summary = (f"degree<={args.max_degree} {len(ar.piece_stats)} graded "
               f"pieces {len(ar.failures)} failures")
    if not rep.rung("algebraic", ar.ok, summary):
        return 1

    cy = td.cy3_check(args.max_degree)
    summary = (f"degree<={args.max_degree} one-sided complex "
               f"{'exact' if cy.ok else 'not exact'}")
    return 0 if rep.rung("cy3", cy.ok, summary) else 1


def cmd_matchings(args, rep: Reporter) -> int:
    g = load_file(args.input)
    q = dualize(g)
    ms = matchings.enumerate_matchings(g, q)
    for k, m in enumerate(matchings.listing_order(ms)):
        rep.emit({"kind": "matching", "id": k, "class": list(m.cls),
                  "support": sorted(m.support)})
    return 0


def cmd_polygon(args, rep: Reporter) -> int:
    g = load_file(args.input)
    q = dualize(g)
    poly = matchings.polygon(matchings.enumerate_matchings(g, q))
    for p in sorted(poly.points):
        rep.emit({"kind": "point", "class": list(p),
                  "multiplicity": poly.points[p],
                  "vertex": poly.is_vertex(p),
                  "external": poly.is_external(p)})
    nf = matchings.polygon_normal_form(poly.points)
    rep.emit({"kind": "normal-form",
              "points": [[list(p), m] for p, m in nf]})
    return 0


def cmd_zigzag(args, rep: Reporter) -> int:
    g = load_file(args.input)
    q = dualize(g)
    paths = zigzag.zigzag_paths(q)
    for p in paths:
        rep.emit({"kind": "path", "id": p.id, "period": p.period,
                  "class": list(p.cls), "zigs": list(p.zigs),
                  "zags": list(p.zags)})
    geo = zigzag.geometric_check(paths)
    for f in geo.failures:
        rep.emit({"kind": "failure", "type": type(f).__name__,
                  "detail": str(f)})
    rep.emit({"kind": "verdict", "geometric": geo.verdict})
    return 0 if geo.verdict else 1


def cmd_extremal(args, rep: Reporter) -> int:
    g = load_file(args.input)
    q = dualize(g)
    paths = zigzag.zigzag_paths(q)
    if not zigzag.geometric_check(paths).verdict:
        print("model is not geometrically consistent", file=sys.stderr)
        return 1
    fan = fans.global_fan(paths)
    systems = {ray: fans.boundary_system(q, paths, ray) for ray in fan.rays}
    reference = matchings.reference_matching(g)
    for sigma in fan.cones:
        m = fans.extremal_matching(q, paths, sigma, reference)
        rep.emit({"kind": "cone",
                  "rays": [list(sigma[0]), list(sigma[1])],
                  "vertex": list(m.cls),
                  "support": sorted(m.support),
                  "pairing_cw": fans.pairing(m, systems[sigma[0]]),
                  "pairing_ccw": fans.pairing(m, systems[sigma[1]])})
    return 0


def cmd_algebra(args, rep: Reporter) -> int:
    g = load_file(args.input)
    td = algebra.ToricData(g)
    r = td.algebraic_consistency(args.max_degree)
    for f in r.failures:
        rep.emit({"kind": "failure", "type": f.kind,
                  "class": [f.cls.tail, f.cls.head, list(f.cls.hom),
                            f.cls.deg],
                  "degree": f.d, "detail": f.detail})
    rep.emit({"kind": "verdict", "algebraic": r.ok,
              "max_degree": r.max_degree,
              "pieces": len(r.piece_stats)})
    return 0 if r.ok else 1


def cmd_cy3(args, rep: Reporter) -> int:
    g = load_file(args.input)
    r = algebra.ToricData(g).cy3_check(args.max_degree)
    for v, d, reason in r.failures:
        rep.emit({"kind": "failure", "vertex": v, "degree": d,
                  "reason": reason})
    rep.emit({"kind": "verdict", "cy3": r.ok, "max_degree": r.max_degree})
    return 0 if r.ok else 1


def cmd_gen_square(args, rep: Reporter) -> int:
    try:
        pattern = polygen.square_pattern(args.n)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    rep.write(dump(polygen.pattern_to_dimer(pattern)))
    return 0


def _pick(items: list, k: int, what: str):
    """items[k] for 0 <= k < len(items), or a ValueError naming how many
    items there are."""
    if not 0 <= k < len(items):
        raise ValueError(f"{what} index {k} out of range: the model has "
                         f"{len(items)}")
    return items[k]


def cmd_svg(args, rep: Reporter) -> int:
    g = load_file(args.input)
    layers = [s for s in args.layers.split(",") if s]
    kwargs = {}
    if {"matching", "zigzag", "quiver"} & set(layers):
        q = kwargs["q"] = dualize(g)
    try:
        if "matching" in layers:
            kwargs["matching"] = _pick(
                matchings.listing_order(matchings.enumerate_matchings(g, q)),
                args.matching, "perfect matching")
        if "zigzag" in layers:
            kwargs["path"] = _pick(zigzag.zigzag_paths(q), args.path,
                                   "zig-zag path")
        text = render.emit_svg(g, layers or ("tiling",), **kwargs)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    rep.write(text + "\n")
    return 0


def cmd_pattern_check(args, rep: Reporter) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        pattern = polygen.load_pattern(fh.read())
    result = polygen.validate_pattern(pattern)
    for f in result.failures:
        rep.emit({"kind": "failure", "detail": f})
    rep.emit({"kind": "verdict", "pattern": result.ok,
              "crossings": pattern.n_crossings,
              "curves": len(pattern.curves)})
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: `parse_args` leaves it unchanged,
    so every call of `main` can share it."""
    ap = argparse.ArgumentParser(
        prog="dimertools",
        description="Dimer models on the torus: consistency checks and "
        "toric data.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, with_input=True, with_degree=False):
        p = sub.add_parser(name, help=summary)
        if with_input:
            p.add_argument("input", help="DIMER format file")
        if with_degree:
            p.add_argument("--max-degree", type=int, default=4, metavar="D",
                           help="degree bound for graded checks")
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text")
        p.add_argument("--out", default=None, help="output file")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "parse and check structure")
    command("report", cmd_report, "run the consistency ladder",
            with_degree=True)
    command("matchings", cmd_matchings, "list perfect matchings")
    command("polygon", cmd_polygon, "matching polygon with multiplicities")
    command("zigzag", cmd_zigzag, "zig-zag paths and geometric check")
    command("extremal", cmd_extremal, "extremal matchings per fan cone")
    command("algebra", cmd_algebra, "bounded-degree algebraic consistency",
            with_degree=True)
    command("cy3", cmd_cy3, "bounded-degree one-sided complex check",
            with_degree=True)
    command("gen-square", cmd_gen_square, "generate a square-grid model",
            with_input=False).add_argument("n", type=int)
    p = command("svg", cmd_svg, "render an SVG diagram")
    p.add_argument("--layers", default="tiling",
                   help="comma list: tiling,quiver,matching,zigzag")
    p.add_argument("--matching", type=int, default=0,
                   help="matching index for the matching layer")
    p.add_argument("--path", type=int, default=0,
                   help="path index for the zigzag layer")
    command("pattern-check", cmd_pattern_check, "validate a PATTERN file")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_degree", 0) < 0:
        print("--max-degree must be nonnegative", file=sys.stderr)
        return 2
    rep = Reporter(args.format, args.out)
    try:
        code = args.func(args, rep)
        if code == 0:
            rep.write("")       # creates --out for an empty success too
        return code
    except (OSError, ParseError, TopologyError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except DimerError as e:
        print(str(e), file=sys.stderr)
        return 1
    finally:
        rep.close()


if __name__ == "__main__":
    sys.exit(main())
