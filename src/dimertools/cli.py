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
from typing import Optional, Sequence

from . import algebra, fans, matchings, polygen, render, symmetry, zigzag
from .surface import (DimerError, ParseError, TopologyError, dualize, dump,
                      load)


class Reporter:
    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream or sys.stdout

    def emit(self, record: dict) -> None:
        if self.fmt == "json-lines":
            print(json.dumps({"v": 1, **record}, separators=(",", ":")),
                  file=self.stream)
        elif record.get("kind") == "rung":
            verdict = "PASS" if record["ok"] else "FAIL"
            print(f'RUNG {record["name"]} {verdict} {record["summary"]}',
                  file=self.stream)
        else:
            bits = [str(record["kind"]).upper()]
            bits += [f"{k}={record[k]}" for k in record if k != "kind"]
            print(" ".join(bits), file=self.stream)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh.read())


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, rep: Reporter) -> int:
    g = _load(args.input)
    rep.emit({"kind": "model", "vertices": len(g.colors),
              "edges": len(g.edges), "faces": len(g.faces)})
    return 0


def cmd_report(args, rep: Reporter) -> int:
    """The consistency ladder, one rung per line, stopping at the first
    failure."""
    try:
        g = _load(args.input)
        q = dualize(g)
    except (OSError, DimerError) as e:
        rep.emit({"kind": "rung", "name": "load", "ok": False,
                  "summary": str(e)})
        return 2
    rep.emit({"kind": "rung", "name": "load", "ok": True,
              "summary": f"{len(g.colors)} vertices {len(g.edges)} edges"})

    ok = symmetry.euler_check(q)
    rep.emit({"kind": "rung", "name": "euler", "ok": ok,
              "summary": f"|Q0|-|Q1|+|Q2|={q.n_vertices - q.n_arrows + len(q.faces)}"})
    if not ok:
        return 1

    hall = matchings.hall_check(g)
    summary = "every black subset has enough neighbours" if hall.ok else (
        f"imbalance {hall.imbalance}" if hall.imbalance else
        f"violating set {sorted(hall.witness[0])} -> "
        f"{sorted(hall.witness[1])}")
    rep.emit({"kind": "rung", "name": "hall", "ok": hall.ok,
              "summary": summary})
    if not hall.ok:
        return 1

    nd = matchings.nondegeneracy_check(g)
    summary = "every edge lies in a matching" if nd.ok else \
        f"dead edges {nd.dead_edges}"
    rep.emit({"kind": "rung", "name": "nondegeneracy", "ok": nd.ok,
              "summary": summary})
    if not nd.ok:
        return 1

    # raises DimerError unless the default R-symmetry is strictly positive
    td = algebra.ToricData(g, q)
    rep.emit({"kind": "rung", "name": "r-symmetry", "ok": True,
              "summary": f"degree {td.lam} from {len(td.matchings)} "
              "matchings"})

    af = symmetry.find_anomaly_free(q)
    rep.emit({"kind": "rung", "name": "anomaly-free", "ok": af is not None,
              "summary": "anomaly-free R-symmetry found" if af else
              "vertex equations infeasible"})
    if af is None:
        return 1

    paths = zigzag.zigzag_paths(q)
    geo = zigzag.geometric_check(paths)
    kinds: dict[str, int] = {}
    for f in geo.failures:
        name = type(f).__name__
        kinds[name] = kinds.get(name, 0) + 1
    summary = f"{len(paths)} zig-zag paths behave like lines" \
        if geo.verdict else f"failures {kinds}"
    rep.emit({"kind": "rung", "name": "geometric", "ok": geo.verdict,
              "summary": summary})
    if not geo.verdict:
        return 1

    po = zigzag.properly_ordered(q, paths)
    rep.emit({"kind": "rung", "name": "properly-ordered", "ok": po,
              "summary": "face crossings in angular order" if po else
              "order or area mismatch"})
    if not po:
        return 1

    ar = td.algebraic_consistency(args.max_degree)
    rep.emit({"kind": "rung", "name": "algebraic", "ok": ar.ok,
              "summary": f"degree<={args.max_degree} "
              f"{len(ar.piece_stats)} graded pieces "
              f"{len(ar.failures)} failures"})
    if not ar.ok:
        return 1

    cy = td.cy3_check(args.max_degree)
    rep.emit({"kind": "rung", "name": "cy3", "ok": cy.ok,
              "summary": f"degree<={args.max_degree} one-sided complex "
              f"{'exact' if cy.ok else 'not exact'}"})
    return 0 if cy.ok else 1


def cmd_matchings(args, rep: Reporter) -> int:
    g = _load(args.input)
    q = dualize(g)
    for k, m in enumerate(matchings.enumerate_matchings(g, q)):
        rep.emit({"kind": "matching", "id": k, "class": list(m.cls),
                  "support": sorted(m.support)})
    return 0


def cmd_polygon(args, rep: Reporter) -> int:
    g = _load(args.input)
    q = dualize(g)
    poly = matchings.polygon(matchings.enumerate_matchings(g, q), q)
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
    g = _load(args.input)
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
    g = _load(args.input)
    q = dualize(g)
    paths = zigzag.zigzag_paths(q)
    if not zigzag.geometric_check(paths).verdict:
        print("model is not geometrically consistent", file=sys.stderr)
        return 1
    ms = matchings.enumerate_matchings(g, q)
    fan = fans.global_fan(paths)
    systems = {ray: fans.boundary_system(q, paths, ray) for ray in fan.rays}
    for sigma in fan.cones:
        ext = fans.extremal_matching(q, paths, sigma, ms)
        rep.emit({"kind": "cone",
                  "rays": [list(sigma[0]), list(sigma[1])],
                  "vertex": list(ext.matching.cls),
                  "support": sorted(ext.matching.support),
                  "pairing_cw": fans.pairing(ext.matching,
                                             systems[sigma[0]]),
                  "pairing_ccw": fans.pairing(ext.matching,
                                              systems[sigma[1]])})
    return 0


def cmd_algebra(args, rep: Reporter) -> int:
    g = _load(args.input)
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
    g = _load(args.input)
    td = algebra.ToricData(g)
    try:
        r = td.cy3_check(args.max_degree)
    except DimerError as e:
        print(str(e), file=sys.stderr)
        return 1
    for v, d, reason in r.failures:
        rep.emit({"kind": "failure", "vertex": v, "degree": d,
                  "reason": reason})
    rep.emit({"kind": "verdict", "cy3": r.ok, "max_degree": r.max_degree})
    return 0 if r.ok else 1


def cmd_gen_square(args, rep: Reporter) -> int:
    g = polygen.pattern_to_dimer(polygen.square_pattern(args.n))
    text = dump(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _pick(items: list, k: int, what: str):
    """items[k], or a ValueError naming how many items there are."""
    try:
        return items[k]
    except IndexError:
        raise ValueError(f"{what} index {k} out of range: the model has "
                         f"{len(items)}") from None


def cmd_svg(args, rep: Reporter) -> int:
    g = _load(args.input)
    layers = [s for s in args.layers.split(",") if s]
    kwargs = {}
    if "matching" in layers or "zigzag" in layers:
        q = dualize(g)
    try:
        if "matching" in layers:
            kwargs["matching"] = _pick(matchings.enumerate_matchings(g, q),
                                       args.matching, "perfect matching")
        if "zigzag" in layers:
            kwargs["path"] = _pick(zigzag.zigzag_paths(q), args.path,
                                   "zig-zag path")
        text = render.emit_svg(g, layers or ("tiling",), **kwargs)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text + "\n")
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

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dimertools",
        description="Dimer models on the torus: consistency checks and "
        "toric data.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, with_degree=False):
        if with_input:
            p.add_argument("input", help="DIMER format file")
        if with_degree:
            p.add_argument("--max-degree", type=int, default=4, metavar="D",
                           help="degree bound for graded checks")
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text")
        p.add_argument("--out", default=None, help="output file")

    p = sub.add_parser("validate", help="parse and check structure")
    common(p)
    p.set_defaults(func=cmd_validate)
    p = sub.add_parser("report", help="run the consistency ladder")
    common(p, with_degree=True)
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("matchings", help="list perfect matchings")
    common(p)
    p.set_defaults(func=cmd_matchings)
    p = sub.add_parser("polygon", help="matching polygon with multiplicities")
    common(p)
    p.set_defaults(func=cmd_polygon)
    p = sub.add_parser("zigzag", help="zig-zag paths and geometric check")
    common(p)
    p.set_defaults(func=cmd_zigzag)
    p = sub.add_parser("extremal", help="extremal matchings per fan cone")
    common(p)
    p.set_defaults(func=cmd_extremal)
    p = sub.add_parser("algebra", help="bounded-degree algebraic consistency")
    common(p, with_degree=True)
    p.set_defaults(func=cmd_algebra)
    p = sub.add_parser("cy3", help="bounded-degree one-sided complex check")
    common(p, with_degree=True)
    p.set_defaults(func=cmd_cy3)
    p = sub.add_parser("gen-square", help="generate a square-grid model")
    p.add_argument("n", type=int)
    common(p, with_input=False)
    p.set_defaults(func=cmd_gen_square)
    p = sub.add_parser("svg", help="render an SVG diagram")
    common(p)
    p.add_argument("--layers", default="tiling",
                   help="comma list: tiling,quiver,matching,zigzag")
    p.add_argument("--matching", type=int, default=0,
                   help="matching index for the matching layer")
    p.add_argument("--path", type=int, default=0,
                   help="path index for the zigzag layer")
    p.set_defaults(func=cmd_svg)
    p = sub.add_parser("pattern-check", help="validate a PATTERN file")
    common(p)
    p.set_defaults(func=cmd_pattern_check)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_degree", 0) < 0:
        print("--max-degree must be nonnegative", file=sys.stderr)
        return 2
    stream = None
    if args.out and args.func not in (cmd_gen_square, cmd_svg):
        stream = open(args.out, "w", encoding="utf-8")
    rep = Reporter(args.format, stream)
    try:
        return args.func(args, rep)
    except (OSError, ParseError, TopologyError) as e:
        print(str(e), file=sys.stderr)
        return 2
    except DimerError as e:
        print(str(e), file=sys.stderr)
        return 1
    finally:
        if stream:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
