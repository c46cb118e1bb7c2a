"""Curve patterns on the torus and dimer models generated from them.

A pattern is an arrangement of oriented closed curves with transversal
double crossings.  Good patterns (alternating crossing signs along every
curve, straight-line intersection behaviour) induce a cell decomposition
whose clockwise, anticlockwise and alternating cells become white dimer
vertices, black dimer vertices and quiver vertices; the dimer edges are
the diagonals at the crossings.  A square grid of axis curves produces a
geometrically consistent model whose matching polygon is a square.
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
# Construction: square grids

def square_pattern(n: int) -> CurvePattern:
    """2n vertical and 2n horizontal curves on a (2n)x(2n) grid of
    crossings; columns alternate up/down, rows right/left.

    Ports: 0 = east, 1 = north, 2 = west, 3 = south.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    size = 2 * n

    def cross(x: int, y: int) -> int:
        return (x % size) * size + (y % size)

    segments: list[Segment] = []
    curves: list[tuple[int, ...]] = []

    def add(curve: int, x: int, y: int, x2: int, y2: int,
            p_from: int, p_to: int) -> int:
        dx = (x2 - (x2 % size)) // size
        dy = (y2 - (y2 % size)) // size
        sid = len(segments)
        segments.append(Segment(sid, curve, cross(x, y), p_from,
                                cross(x2, y2), p_to, (dx, dy)))
        return sid

    for x in range(size):          # vertical curves
        cid = len(curves)
        up = x % 2 == 0
        seq = []
        ys = range(size) if up else range(size - 1, -1, -1)
        for y in ys:
            y2 = y + 1 if up else y - 1
            seq.append(add(cid, x, y, x, y2,
                           1 if up else 3, 3 if up else 1))
        curves.append(tuple(seq))
    for y in range(size):          # horizontal curves
        cid = len(curves)
        right = y % 2 == 0
        seq = []
        xs = range(size) if right else range(size - 1, -1, -1)
        for x in xs:
            x2 = x + 1 if right else x - 1
            seq.append(add(cid, x, y, x2, y,
                           0 if right else 2, 2 if right else 0))
        curves.append(tuple(seq))
    return CurvePattern(size * size, segments, curves)


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
    once; the crossing disappears and the classes add.  The result may
    fail validation."""
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

    def successor(s: Segment) -> int:
        segs = pattern.curves[s.curve]
        return segs[(segs.index(s.id) + 1) % len(segs)]

    # reconnect: a's incoming continues along b's outgoing and vice versa
    out_a = pattern.segments[successor(sa)]
    out_b = pattern.segments[successor(sb)]
    merged_ab = Segment(sa.id, ca, sa.from_crossing, sa.from_port,
                        out_b.to_crossing, out_b.to_port,
                        vadd(sa.offset, out_b.offset))
    merged_ba = Segment(sb.id, ca, sb.from_crossing, sb.from_port,
                        out_a.to_crossing, out_a.to_port,
                        vadd(sb.offset, out_a.offset))
    drop = {out_a.id, out_b.id}
    keep = {sa.id: merged_ab, sb.id: merged_ba}
    new_id = {}
    segments = []
    for s in pattern.segments:
        if s.id in drop:
            continue
        s2 = keep.get(s.id, s)
        if s2.curve == cb:
            s2 = s2._replace(curve=ca)
        new_id[s.id] = len(segments)
        c_from = s2.from_crossing - (s2.from_crossing > crossing)
        c_to = s2.to_crossing - (s2.to_crossing > crossing)
        segments.append(s2._replace(id=len(segments), from_crossing=c_from,
                                    to_crossing=c_to))
    # splice the two cyclic orders at the crossing: rotate each so the
    # incoming segment sits last, then interleave past the dropped pair
    def rotated_to_end(seq: list[int], sid: int) -> list[int]:
        i = seq.index(sid)
        return seq[i + 1:] + seq[:i + 1]

    seq_a = rotated_to_end(list(pattern.curves[ca]), sa.id)
    seq_b = rotated_to_end(list(pattern.curves[cb]), sb.id)
    # seq_x = [out_x, ..., sx]; the merged segments keep ids sa.id, sb.id
    spliced = [sa.id] + seq_b[1:-1] + [sb.id] + seq_a[1:-1]
    curves = []
    renumber = {}
    for cid, segs in enumerate(pattern.curves):
        if cid == ca:
            segs = spliced
        elif cid == cb:
            continue
        renumber[cid] = len(curves)
        curves.append(tuple(new_id[sid] for sid in segs))
    segments = [s._replace(curve=renumber[s.curve]) for s in segments]
    return CurvePattern(pattern.n_crossings - 1, segments, curves)


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
