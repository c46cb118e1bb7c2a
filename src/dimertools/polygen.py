"""Curve patterns on the torus and dimer models generated from them.

A pattern is an arrangement of oriented closed curves with transversal
double crossings, built by `_from_curves` from each curve's segments in
order.  Good patterns (alternating crossing signs along every curve,
straight-line intersection behaviour) induce a cell decomposition whose
clockwise, anticlockwise and alternating cells become white dimer
vertices, black dimer vertices and quiver vertices; the dimer edges are
the diagonals at the crossings.  Two families of straight lines on a
square grid produce a geometrically consistent model whose matching
polygon is a square; the merging move splices two curves into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .surface import DimerError, Edge, ParseError, TorusGraph, Vec, vadd, vsub
from .zigzag import ZigZagPath, geometric_check


class Segment(NamedTuple):
    id: int
    curve: int
    from_crossing: int
    from_port: int
    to_crossing: int
    to_port: int
    offset: Vec


@dataclass
class CurvePattern:
    """An arrangement of oriented closed curves with 4-valent crossings.

    Ports 0..3 at each crossing are in counterclockwise order; a curve
    entering a crossing at port p leaves it at port (p+2)%4.
    """
    n_crossings: int
    segments: list[Segment]
    curves: list[tuple[int, ...]]      # cyclic segment id lists

    def __post_init__(self) -> None:
        for k, s in enumerate(self.segments):
            if s.id != k:
                raise ParseError(f"segment {s.id} listed at position {k}: "
                                 "ids must be in order")
        ends: dict[tuple[int, int], tuple[int, bool]] = {}
        for s in self.segments:
            for c, p in ((s.from_crossing, s.from_port),
                         (s.to_crossing, s.to_port)):
                if not (0 <= c < self.n_crossings and 0 <= p < 4):
                    raise ParseError(f"segment {s.id}: bad endpoint ({c},{p})")
                if (c, p) in ends:
                    raise ParseError(f"port ({c},{p}) used twice")
                ends[(c, p)] = (s.id, (c, p) == (s.to_crossing, s.to_port))
        if len(ends) != 4 * self.n_crossings:
            raise ParseError("every crossing needs all four ports used")
        in_curve: dict[int, int] = {}
        for cid, segs in enumerate(self.curves):
            if not segs:
                raise ParseError(f"curve {cid} has no segments")
            unknown = [sid for sid in segs
                       if not 0 <= sid < len(self.segments)]
            if unknown:
                raise ParseError(f"curve {cid} names unknown segment "
                                 f"{min(unknown)}")
            for k, sid in enumerate(segs):
                if sid in in_curve:
                    raise ParseError(f"segment {sid} in two curves")
                in_curve[sid] = cid
                s = self.segments[sid]
                t = self.segments[segs[(k + 1) % len(segs)]]
                if s.curve != cid:
                    raise ParseError(f"segment {sid} labelled curve {s.curve}")
                if (t.from_crossing, t.from_port) != \
                        (s.to_crossing, (s.to_port + 2) % 4):
                    raise ParseError(
                        f"curve {cid} not transversal at segment {sid}")
        if len(in_curve) != len(self.segments):
            raise ParseError("orphan segments")
        for c in range(self.n_crossings):
            curves_at = {self.segments[ends[(c, p)][0]].curve
                         for p in range(4)}
            if len(curves_at) != 2:
                raise ParseError(f"crossing {c} not between two distinct "
                                  "curves")

    def curve_class(self, cid: int) -> Vec:
        total = (0, 0)
        for sid in self.curves[cid]:
            total = vadd(total, self.segments[sid].offset)
        return total

    def as_flows(self) -> list[ZigZagPath]:
        """Curves repackaged for the intersection checker: crossings play
        the role of shared arrows, so every crossing id appears once in
        each of its two curves."""
        out = []
        for cid, segs in enumerate(self.curves):
            crossings, offsets = [], []
            pos = (0, 0)
            for sid in segs:
                s = self.segments[sid]
                pos = vadd(pos, s.offset)
                crossings.append(s.to_crossing)
                offsets.append(pos)
            out.append(ZigZagPath(cid, tuple(crossings), tuple(offsets),
                                  pos))
        return out


# ---------------------------------------------------------------------------
# Construction from curves

# the step of a curve leaving a crossing at port p (east, north, west,
# south); it enters the next crossing at port p + 2
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _from_curves(n_crossings: int, curves: list[list]) -> CurvePattern:
    """The pattern of curves given as their segments in order, each as
    (from_crossing, from_port, to_crossing, to_port, offset); the segments
    are numbered curve by curve."""
    segments: list[Segment] = []
    ids: list[tuple[int, ...]] = []
    for cid, steps in enumerate(curves):
        ids.append(tuple(range(len(segments), len(segments) + len(steps))))
        segments += [Segment(sid, cid, *s) for sid, s in zip(ids[-1], steps)]
    return CurvePattern(n_crossings, segments, ids)


def square_pattern(n: int) -> CurvePattern:
    """2n vertical and 2n horizontal straight curves on a (2n)x(2n) grid
    of crossings, the vertical ones first; columns alternate up/down, rows
    right/left, and crossing (x, y) has id 2n*x + y.

    Ports: 0 = east, 1 = north, 2 = west, 3 = south.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    size = 2 * n
    curves = []
    for k in range(2 * size):       # the vertical lines, then the horizontal
        p = (k < size) + 2 * (k % 2)
        dx, dy = _STEPS[p]
        t = (size - 1) * (k % 2)    # odd lines run backwards
        x, y = (k, t) if k < size else (t, k - size)
        steps = []
        for _ in range(size):
            x2, y2 = x + dx, y + dy
            steps.append((x * size + y, p, x2 % size * size + y2 % size,
                          (p + 2) % 4, (x2 // size, y2 // size)))
            x, y = x2 % size, y2 % size
        curves.append(steps)
    return _from_curves(size * size, curves)


# ---------------------------------------------------------------------------
# Cells of the arrangement

class Cell(NamedTuple):
    id: int
    kind: str                           # "black" | "white" | "quiver" | "bad"
    corners: list[tuple[int, Vec]]      # (crossing, lift displacement)


def _darts(pattern: CurvePattern) -> dict[tuple[int, int],
                                          tuple[int, int, int, Vec]]:
    """Outgoing dart at each (crossing, port): (segment, arrival crossing,
    arrival port, displacement)."""
    out = {}
    for s in pattern.segments:
        out[(s.from_crossing, s.from_port)] = (s.id, s.to_crossing,
                                               s.to_port, s.offset)
        out[(s.to_crossing, s.to_port)] = (s.id, s.from_crossing,
                                           s.from_port,
                                           (-s.offset[0], -s.offset[1]))
    return out


def trace_cells(pattern: CurvePattern) -> list[Cell]:
    """Face tracing of the arrangement; cells classified by how their
    boundary segments run relative to the traversal."""
    darts = _darts(pattern)
    outgoing = {(s.from_crossing, s.from_port) for s in pattern.segments}
    seen: set[tuple[int, int]] = set()
    cells: list[Cell] = []
    for start in sorted(darts):
        if start in seen:
            continue
        corners: list[tuple[int, Vec]] = []
        forwards: list[bool] = []
        pos = (0, 0)
        cur = start
        while cur not in seen:
            seen.add(cur)
            corners.append((cur[0], pos))
            forwards.append(cur in outgoing)
            _, c2, p2, off = darts[cur]
            pos = vadd(pos, off)
            cur = (c2, (p2 + 1) % 4)
        if pos != (0, 0):
            raise DimerError("cell boundary wraps around the torus")
        if all(forwards):
            kind = "black"
        elif not any(forwards):
            kind = "white"
        elif all(f != forwards[k - 1] for k, f in enumerate(forwards)):
            kind = "quiver"
        else:
            kind = "bad"
        cells.append(Cell(len(cells), kind, corners))
    return cells


# ---------------------------------------------------------------------------
# Validation

class PatternReport(NamedTuple):
    ok: bool
    failures: list[str]


def validate_pattern(pattern: CurvePattern) -> PatternReport:
    """Good-pattern checks: valid cell decomposition, alternating crossing
    signs along every curve, and straight-line intersection behaviour via
    the same coset criterion used for zig-zag flows."""
    failures: list[str] = []
    try:
        cells = trace_cells(pattern)
    except DimerError as e:
        return PatternReport(False, [str(e)])
    n_cells = len(cells)
    euler = pattern.n_crossings - len(pattern.segments) + n_cells
    if euler != 0:
        failures.append(f"Euler characteristic {euler}, expected 0")
    for cell in cells:
        if cell.kind == "bad":
            failures.append(f"cell {cell.id} boundary neither oriented nor "
                            "alternating")
    ends = {}
    for s in pattern.segments:
        ends[(s.to_crossing, s.to_port)] = s
    for cid, segs in enumerate(pattern.curves):
        signs = []
        for sid in segs:
            s = pattern.segments[sid]
            left = (s.to_crossing, (s.to_port + 3) % 4)
            signs.append(left in ends)   # other curve arrives from the left
        if any(a == b for a, b in zip(signs, signs[1:] + signs[:1])) \
                and len(signs) > 1:
            failures.append(f"curve {cid} crossing signs do not alternate")
        u = pattern.curve_class(cid)
        if u == (0, 0):
            failures.append(f"curve {cid} has zero class")
        elif gcd(u[0], u[1]) != 1:
            failures.append(f"curve {cid} class not primitive")
    geo = geometric_check(pattern.as_flows())
    for f in geo.failures:
        failures.append(f"intersection failure: {f}")
    return PatternReport(not failures, failures)


# ---------------------------------------------------------------------------
# Dimer conversion

def pattern_to_dimer(pattern: CurvePattern) -> TorusGraph:
    """Black/white cells become dimer vertices; the edge at each crossing
    is the diagonal joining its black and white cell."""
    cells = trace_cells(pattern)
    if any(c.kind == "bad" for c in cells):
        raise DimerError("invalid pattern: mixed cell boundary")
    colored = [c for c in cells if c.kind in ("black", "white")]
    vid = {c.id: k for k, c in enumerate(colored)}
    colors = ["B" if c.kind == "black" else "W" for c in colored]
    # per crossing: the black and white corner with lift displacements
    at_crossing: dict[int, dict[str, tuple[int, Vec]]] = {}
    for c in colored:
        for crossing, disp in c.corners:
            slot = at_crossing.setdefault(crossing, {})
            if c.kind in slot:
                raise DimerError(
                    f"crossing {crossing} meets two {c.kind} cells")
            slot[c.kind] = (vid[c.id], disp)
    edges = []
    for crossing in range(pattern.n_crossings):
        slot = at_crossing.get(crossing, {})
        if set(slot) != {"black", "white"}:
            raise DimerError(f"crossing {crossing} lacks a black/white "
                             "diagonal")
        (b, bdisp), (w, wdisp) = slot["black"], slot["white"]
        edges.append(Edge(crossing, b, w, vsub(wdisp, bdisp)))
    # the edge at a crossing carries the crossing's id, so the rotation at
    # a cell is its corner sequence; the trace runs clockwise, so reverse
    rotation: list[list[int]] = []
    for c in colored:
        rotation.append([crossing for crossing, _ in reversed(c.corners)])
    return TorusGraph(colors, edges, rotation)


# ---------------------------------------------------------------------------
# Merging move

def merging_move(pattern: CurvePattern, crossing: int) -> CurvePattern:
    """Merge the two curves through a crossing where they meet exactly
    once; the crossing disappears and the classes add.  The merged curve
    takes the place of the one entering at the lower port, and the result,
    which may fail validation, numbers its segments curve by curve."""
    incoming = {}
    for s in pattern.segments:
        if s.to_crossing == crossing:
            incoming[s.to_port] = s
    if len(incoming) != 2:
        raise DimerError(f"crossing {crossing} is not a two-curve crossing")
    (pa, sa), (pb, sb) = sorted(incoming.items())
    ca, cb = sa.curve, sb.curve
    if ca == cb:
        raise DimerError("crossing is a self-intersection")
    flows = pattern.as_flows()
    common = set(flows[ca].arrows) & set(flows[cb].arrows)
    if common != {crossing}:
        raise DimerError("curves cross more than once; cannot merge")

    def renumbered(sid: int) -> tuple:
        s = pattern.segments[sid]
        return (s.from_crossing - (s.from_crossing > crossing), s.from_port,
                s.to_crossing - (s.to_crossing > crossing), s.to_port,
                s.offset)

    def join(s: tuple, t: tuple) -> tuple:
        return (s[0], s[1], t[2], t[3], vadd(s[4], t[4]))

    curves = [list(map(renumbered, segs)) for segs in pattern.curves]
    # rotate each curve so that its segment into the crossing comes last,
    # then splice a's incoming segment to b's outgoing one and b's incoming
    # to a's outgoing; if a is one segment, both splices make one segment
    ka = pattern.curves[ca].index(sa.id) + 1
    kb = pattern.curves[cb].index(sb.id) + 1
    a, b = curves[ca][ka:] + curves[ca][:ka], curves[cb][kb:] + curves[cb][:kb]
    a, b = (b, a) if len(b) == 1 else (a, b)
    if len(b) == 1:
        raise DimerError("both curves are one segment through the crossing")
    curves[ca] = ([join(join(b[-1], a[0]), b[0])] + b[1:-1] if len(a) == 1
                  else [join(a[-1], b[0])] + b[1:-1] + [join(b[-1], a[0])]
                  + a[1:-1])
    del curves[cb]
    return _from_curves(pattern.n_crossings - 1, curves)


# ---------------------------------------------------------------------------
# Pattern files

def load_pattern(text: str) -> CurvePattern:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["PATTERN", "1"]:
        raise ParseError("missing PATTERN 1 header")
    n_crossings = 0
    segments: list[Segment] = []
    curves: dict[int, tuple[int, ...]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "crossing":
                if int(parts[1]) != n_crossings:
                    raise ParseError(f"bad line {ln!r}: ids must be in order")
                n_crossings += 1
            elif parts[0] == "segment":
                sid, cur, c1, p1, c2, p2, dx, dy = map(int, parts[1:])
                if sid != len(segments):
                    raise ParseError(f"bad line {ln!r}: ids must be in order")
                segments.append(Segment(sid, cur, c1, p1, c2, p2, (dx, dy)))
            elif parts[0] == "curve":
                cid = int(parts[1])
                if cid in curves:
                    raise ParseError(f"bad line {ln!r}: curve id given twice")
                curves[cid] = tuple(map(int, parts[2:]))
            else:
                raise ParseError(f"unknown record {parts[0]!r}")
        except (ValueError, IndexError) as e:
            raise ParseError(f"bad line {ln!r}: {e}") from e
    if sorted(curves) != list(range(len(curves))):
        raise ParseError("curve ids must be 0..n-1")
    return CurvePattern(n_crossings, segments,
                        [curves[k] for k in sorted(curves)])


def dump_pattern(pattern: CurvePattern) -> str:
    out = ["PATTERN 1"]
    for c in range(pattern.n_crossings):
        out.append(f"crossing {c}")
    for s in pattern.segments:
        out.append(f"segment {s.id} {s.curve} {s.from_crossing} "
                   f"{s.from_port} {s.to_crossing} {s.to_port} "
                   f"{s.offset[0]} {s.offset[1]}")
    for cid, segs in enumerate(pattern.curves):
        out.append("curve %d %s" % (cid, " ".join(map(str, segs))))
    return "\n".join(out) + "\n"
