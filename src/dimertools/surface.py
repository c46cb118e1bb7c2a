"""Combinatorial dimer models on the 2-torus and their dual quivers.

A model is stored purely combinatorially: a bipartite graph together with a
rotation system (counterclockwise cyclic order of edges at every vertex) and
an integer homology offset per edge recording how the edge wraps around the
torus.  Vertex coordinates are never stored.

The offset of an edge is the displacement, in fundamental-domain units, of
the white endpoint's copy relative to the black endpoint's copy.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


Vec = tuple[int, int]

BLACK = "B"
WHITE = "W"


class DimerError(Exception):
    """Base class for model construction failures."""


class ParseError(DimerError):
    """Malformed DIMER/PATTERN input text."""


class TopologyError(DimerError):
    """The rotation system does not describe a torus."""


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vneg(a: Vec) -> Vec:
    return (-a[0], -a[1])


@dataclass(frozen=True)
class Edge:
    id: int
    black: int
    white: int
    offset: Vec


class TorusGraph:
    """A bipartite tiling of the torus given by rotations and offsets.

    Invariants are checked on construction: bipartiteness is structural
    (edges carry a black id and a white id), the graph must be connected,
    every vertex needs valence >= 2, and tracing the faces of the rotation
    system must give Euler characteristic zero.
    """

    def __init__(self, colors: Sequence[str], edges: Sequence[Edge],
                 rotation: Sequence[Sequence[int]]):
        self.colors = list(colors)
        self.edges = list(edges)
        self.rotation = [list(r) for r in rotation]
        self._validate_structure()
        self.faces = self._trace_faces()
        self._validate_topology()

    # -- construction checks -------------------------------------------------

    def _validate_structure(self) -> None:
        n = len(self.colors)
        if len(self.rotation) != n:
            raise ParseError("rotation table does not cover every vertex")
        if not self.edges:
            raise ParseError("empty edge list")
        incident: list[set[int]] = [set() for _ in range(n)]
        for e in self.edges:
            for v in (e.black, e.white):
                if not (0 <= v < n):
                    raise ParseError(f"edge {e.id}: unknown vertex {v}")
            if self.colors[e.black] != BLACK:
                raise ParseError(f"edge {e.id}: vertex {e.black} is not black")
            if self.colors[e.white] != WHITE:
                raise ParseError(f"edge {e.id}: vertex {e.white} is not white")
            incident[e.black].add(e.id)
            incident[e.white].add(e.id)
        for v in range(n):
            rot = self.rotation[v]
            if set(rot) != incident[v] or len(rot) != len(incident[v]):
                raise ParseError(
                    f"rotation at vertex {v} does not list its incident edges "
                    "exactly once each")
            if len(rot) < 2:
                raise ParseError(f"vertex {v} has valence < 2")
        # connectivity
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in self.edges:
            adj[e.black].add(e.white)
            adj[e.white].add(e.black)
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != n:
            raise ParseError("graph is not connected")

    # -- face tracing --------------------------------------------------------
    #
    # A dart is a pair (vertex, edge): the occurrence of `edge` at `vertex`,
    # traversed away from `vertex`.  The face permutation sends (v, e) to
    # (w, succ_w(e)) where w is the other endpoint of e and succ_w is the
    # counterclockwise successor in the rotation at w.  With counterclockwise
    # rotations this traverses each face keeping it on a fixed side; the
    # Euler count below is what certifies the genus either way.

    def _succ(self, v: int, e: int) -> int:
        rot = self.rotation[v]
        i = rot.index(e)
        return rot[(i + 1) % len(rot)]

    def other_end(self, e: int, v: int) -> int:
        ed = self.edges[e]
        return ed.white if v == ed.black else ed.black

    def _dart_disp(self, v: int, e: int) -> Vec:
        """Displacement when walking edge e away from vertex v."""
        ed = self.edges[e]
        return ed.offset if v == ed.black else vneg(ed.offset)

    def _face_next(self, dart: tuple[int, int]) -> tuple[int, int]:
        v, e = dart
        w = self.other_end(e, v)
        return (w, self._succ(w, e))

    def _trace_faces(self) -> list[list[tuple[int, int]]]:
        faces = []
        seen: set[tuple[int, int]] = set()
        darts = [(v, e) for v in range(len(self.colors))
                 for e in self.rotation[v]]
        for d0 in darts:
            if d0 in seen:
                continue
            face = []
            d = d0
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = self._face_next(d)
            if d != d0:
                raise TopologyError("face tracing produced a non-cycle orbit")
            faces.append(face)
        return faces

    def _validate_topology(self) -> None:
        v = len(self.colors)
        e = len(self.edges)
        f = len(self.faces)
        if v - e + f != 0:
            raise TopologyError(
                f"Euler characteristic {v - e + f} != 0: "
                "rotation system does not describe a torus")
        for face in self.faces:
            total = (0, 0)
            for d in face:
                total = vadd(total, self._dart_disp(*d))
            if total != (0, 0):
                raise TopologyError(
                    "face boundary wraps around the torus; "
                    "not a cell decomposition")

    # -- convenience ---------------------------------------------------------

    @property
    def black_vertices(self) -> list[int]:
        return [v for v, c in enumerate(self.colors) if c == BLACK]

    @property
    def white_vertices(self) -> list[int]:
        return [v for v, c in enumerate(self.colors) if c == WHITE]


# ---------------------------------------------------------------------------
# DIMER text format

_HEADER = "DIMER 1"


def load(text: str) -> TorusGraph:
    """Parse DIMER format text into a validated TorusGraph.

    Format: first non-comment line ``DIMER 1``; then ``vertex <id> <B|W>``,
    ``edge <id> <black-id> <white-id> <dx> <dy>`` and
    ``rot <vertex-id> <edge-id>...`` records.  '#' starts a comment.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != _HEADER:
        raise ParseError("missing DIMER 1 header")

    vertex_ids: dict[str, int] = {}
    colors: list[str] = []
    edge_ids: dict[str, int] = {}
    raw_edges: list[tuple[str, str, str, int, int]] = []
    raw_rots: dict[str, list[str]] = {}

    for line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 3 or parts[2] not in (BLACK, WHITE):
                raise ParseError(f"bad vertex line: {line}")
            if parts[1] in vertex_ids:
                raise ParseError(f"duplicate vertex id {parts[1]}")
            vertex_ids[parts[1]] = len(colors)
            colors.append(parts[2])
        elif kind == "edge":
            if len(parts) != 6:
                raise ParseError(f"bad edge line: {line}")
            if parts[1] in edge_ids:
                raise ParseError(f"duplicate edge id {parts[1]}")
            try:
                dx, dy = int(parts[4]), int(parts[5])
            except ValueError:
                raise ParseError(f"bad offset in edge line: {line}")
            edge_ids[parts[1]] = len(raw_edges)
            raw_edges.append((parts[1], parts[2], parts[3], dx, dy))
        elif kind == "rot":
            if len(parts) < 3:
                raise ParseError(f"bad rot line: {line}")
            if parts[1] in raw_rots:
                raise ParseError(f"duplicate rot line for vertex {parts[1]}")
            raw_rots[parts[1]] = parts[2:]
        else:
            raise ParseError(f"unknown record: {line}")

    if not raw_edges:
        raise ParseError("empty edge list")

    edges = []
    for name, b, w, dx, dy in raw_edges:
        if b not in vertex_ids or w not in vertex_ids:
            raise ParseError(f"edge {name}: unknown endpoint")
        edges.append(Edge(edge_ids[name], vertex_ids[b], vertex_ids[w],
                          (dx, dy)))

    rotation: list[list[int]] = [[] for _ in colors]
    for vname, enames in raw_rots.items():
        if vname not in vertex_ids:
            raise ParseError(f"rot line for unknown vertex {vname}")
        try:
            rotation[vertex_ids[vname]] = [edge_ids[e] for e in enames]
        except KeyError as exc:
            raise ParseError(f"rot line references unknown edge {exc}")
    for v, rot in enumerate(rotation):
        if not rot:
            raise ParseError(f"missing rot line for vertex {v}")

    return TorusGraph(colors, edges, rotation)


def load_file(path) -> TorusGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh.read())


def dump(g: TorusGraph) -> str:
    """Serialize a TorusGraph back into DIMER format."""
    out = [_HEADER]
    for v, c in enumerate(g.colors):
        out.append(f"vertex {v} {c}")
    for e in g.edges:
        out.append(f"edge {e.id} {e.black} {e.white} "
                   f"{e.offset[0]} {e.offset[1]}")
    for v, rot in enumerate(g.rotation):
        out.append("rot " + " ".join(str(x) for x in [v] + rot))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Dual quiver

@dataclass(frozen=True)
class Arrow:
    id: int
    tail: int
    head: int
    dual_edge: int
    offset: Vec


@dataclass(frozen=True)
class QuiverFace:
    id: int
    color: str
    boundary: tuple[int, ...]  # cyclic list of arrow ids


class Quiver:
    """Directed dual of a dimer model.

    Vertices are the dimer faces, arrows are dual to dimer edges and carry
    offsets such that every face-boundary offset sum vanishes.  Faces are
    dual to dimer vertices; white faces run clockwise, black faces run
    anticlockwise, so black dimer vertices lie on the left of every arrow.
    """

    def __init__(self, graph: TorusGraph):
        self.graph = graph
        self._build()
        self._find_homology_basis()
        self._check()

    def _build(self) -> None:
        g = self.graph
        # Dimer faces become quiver vertices.  Record, for every dart, which
        # face orbit it lies in and its cumulative displacement from the
        # face's anchor dart (the orbit's first dart).
        self.n_vertices = len(g.faces)
        face_of_dart: dict[tuple[int, int], int] = {}
        pos_in_face: dict[tuple[int, int], Vec] = {}
        for fid, face in enumerate(g.faces):
            pos = (0, 0)
            for d in face:
                face_of_dart[d] = fid
                pos_in_face[d] = pos
                pos = vadd(pos, g._dart_disp(*d))

        # One arrow per dimer edge.  Traversed inside the black face cycle
        # the arrow dual to e runs from the dimer face containing the corner
        # before e at its black vertex to the face containing the corner
        # after e; with counterclockwise rotations this puts the black vertex
        # on the left.
        arrows = []
        for e in g.edges:
            b = e.black
            d_tail = (b, e.id)
            d_head = (b, g._succ(b, e.id))
            tail = face_of_dart[d_tail]
            head = face_of_dart[d_head]
            offset = vsub(pos_in_face[d_tail], pos_in_face[d_head])
            arrows.append(Arrow(e.id, tail, head, e.id, offset))
        self.arrows = arrows
        self.out_arrows: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for a in arrows:
            self.out_arrows[a.tail].append(a.id)

        # Quiver faces: one per dimer vertex.  Around a black vertex the dual
        # arrows in rotation order form the (anticlockwise) black face; around
        # a white vertex the reversed rotation order forms the white face.
        faces = []
        for v, color in enumerate(g.colors):
            rot = g.rotation[v]
            cycle = list(rot) if color == BLACK else list(reversed(rot))
            faces.append(QuiverFace(v, color, tuple(cycle)))
        self.faces = faces

        self.black_face_of: dict[int, int] = {}
        self.white_face_of: dict[int, int] = {}
        for f in faces:
            for a in f.boundary:
                if f.color == BLACK:
                    self.black_face_of[a] = f.id
                else:
                    self.white_face_of[a] = f.id

    def _find_homology_basis(self) -> None:
        """Closed arrow walks with offset sums (1,0) and (0,1).

        Breadth-first search on the covering graph Q0 x Z^2 restricted to a
        small window; the quiver is strongly connected so short realizing
        walks exist at desk scale.
        """
        self.gamma_x = self._closed_walk_with_class((1, 0))
        self.gamma_y = self._closed_walk_with_class((0, 1))

    def _closed_walk_with_class(self, target: Vec) -> list[int]:
        for radius in (2, 4, 8, 16):
            walk = self.covering_walk(0, 0, target, radius)
            if walk is not None:
                return list(walk)
        raise TopologyError(f"no closed walk with class {target} found")

    def covering_walk(self, i: int, j: int, hom: Vec, window: int,
                      skip: Iterable[int] = ()) -> Optional[tuple[int, ...]]:
        """A shortest walk i -> j with offset sum `hom` that uses no arrow
        in `skip`, by breadth-first search on the covering graph Q0 x Z^2.
        Only lifts within `window` (max norm) of the start or of the end
        are visited; None means no such walk inside that window."""
        skip = frozenset(skip)
        start, target = (i, (0, 0)), (j, hom)
        prev: dict[tuple[int, Vec], Optional[tuple]] = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node == target:
                walk = []
                while prev[node] is not None:
                    node, a = prev[node]
                    walk.append(a)
                return tuple(reversed(walk))
            v, off = node
            for a in self.out_arrows[v]:
                if a in skip:
                    continue
                arr = self.arrows[a]
                o2 = vadd(off, arr.offset)
                if max(abs(o2[0] - hom[0]), abs(o2[1] - hom[1])) > window \
                        and max(abs(o2[0]), abs(o2[1])) > window:
                    continue
                nxt = (arr.head, o2)
                if nxt not in prev:
                    prev[nxt] = (node, a)
                    queue.append(nxt)
        return None

    def _check(self) -> None:
        # every arrow in exactly one black and one white face
        assert set(self.black_face_of) == {a.id for a in self.arrows}
        assert set(self.white_face_of) == {a.id for a in self.arrows}
        # face boundaries compose and have zero offset sum
        for f in self.faces:
            cyc = f.boundary
            total = (0, 0)
            for i, aid in enumerate(cyc):
                a = self.arrows[aid]
                nxt = self.arrows[cyc[(i + 1) % len(cyc)]]
                assert a.head == nxt.tail, (
                    f"face {f.id} boundary does not compose")
                total = vadd(total, a.offset)
            assert total == (0, 0), f"face {f.id} offset sum {total}"
        assert self.n_vertices - len(self.arrows) + len(self.faces) == 0
        for walk, cls in ((self.gamma_x, (1, 0)), (self.gamma_y, (0, 1))):
            total = (0, 0)
            for i, aid in enumerate(walk):
                a = self.arrows[aid]
                nxt = self.arrows[walk[(i + 1) % len(walk)]]
                assert a.head == nxt.tail
                total = vadd(total, a.offset)
            assert total == cls

    # -- helpers used throughout ---------------------------------------------

    def face_cycle_from(self, fid: int, aid: int) -> list[int]:
        """Boundary of face fid rotated to start at arrow aid."""
        cyc = list(self.faces[fid].boundary)
        i = cyc.index(aid)
        return cyc[i:] + cyc[:i]

    def next_in_face(self, fid: int, aid: int) -> int:
        cyc = self.faces[fid].boundary
        i = cyc.index(aid)
        return cyc[(i + 1) % len(cyc)]

    def walk_class(self, walk: Iterable[int]) -> Vec:
        total = (0, 0)
        for aid in walk:
            total = vadd(total, self.arrows[aid].offset)
        return total

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)


def dualize(g: TorusGraph) -> Quiver:
    return Quiver(g)


# ---------------------------------------------------------------------------
# Superpotential and F-term relations

@dataclass(frozen=True)
class Superpotential:
    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (sign, cyclic arrows)


def _least_rotation(cyc: Sequence[int]) -> tuple[int, ...]:
    best = None
    cyc = list(cyc)
    for i in range(len(cyc)):
        cand = tuple(cyc[i:] + cyc[:i])
        if best is None or cand < best:
            best = cand
    return best


def superpotential(q: Quiver) -> Superpotential:
    """Signed sum of face-boundary cycles, +1 on black faces."""
    terms = []
    for f in q.faces:
        sign = 1 if f.color == BLACK else -1
        terms.append((sign, _least_rotation(f.boundary)))
    return Superpotential(tuple(terms))


def fterm_relations(q: Quiver) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """For each arrow a, the two paths p_a^+ (black face) and p_a^- (white).

    p_a^± runs from head(a) around the boundary of the face back to tail(a),
    omitting a itself.
    """
    rels = []
    for a in q.arrows:
        plus = tuple(q.face_cycle_from(q.black_face_of[a.id], a.id)[1:])
        minus = tuple(q.face_cycle_from(q.white_face_of[a.id], a.id)[1:])
        rels.append((a.id, plus, minus))
    return rels


# ---------------------------------------------------------------------------
# Split / contract moves

def split_vertex(g: TorusGraph, v: int, position: int) -> TorusGraph:
    """Split dimer vertex v at a gap in its rotation.

    The vertex is cut into two vertices of its own colour joined through a
    new bivalent vertex of the opposite colour.  ``position`` selects the gap
    in the rotation: edges rot[position:] stay with v, the preceding ones
    move to the new same-colour vertex.  Splitting at gap 0 keeps a single
    nonempty group, which still inserts the bivalent bridge.
    """
    rot = g.rotation[v]
    k = len(rot)
    position %= k
    stay = rot[position:]
    move = rot[:position]
    if not move:
        # rotate one edge across so both sides are nonempty
        move, stay = [stay[-1]], stay[:-1]
    colors = list(g.colors)
    same = len(colors)
    colors.append(g.colors[v])
    mid = len(colors)
    colors.append(WHITE if g.colors[v] == BLACK else BLACK)

    edges = list(g.edges)
    rotation = [list(r) for r in g.rotation]

    def remap(eid: int, new_end: int) -> None:
        e = edges[eid]
        if e.black == v and colors[new_end] == BLACK:
            edges[eid] = Edge(e.id, new_end, e.white, e.offset)
        elif e.white == v and colors[new_end] == WHITE:
            edges[eid] = Edge(e.id, e.black, new_end, e.offset)
        else:  # pragma: no cover - internal misuse
            raise DimerError("split remap color mismatch")

    for eid in move:
        remap(eid, same)

    e1 = len(edges)  # v -- mid
    e2 = e1 + 1      # mid -- same
    if g.colors[v] == BLACK:
        edges.append(Edge(e1, v, mid, (0, 0)))
        edges.append(Edge(e2, same, mid, (0, 0)))
    else:
        edges.append(Edge(e1, mid, v, (0, 0)))
        edges.append(Edge(e2, mid, same, (0, 0)))

    rotation[v] = stay + [e1]
    rotation.append(move + [e2])      # same
    rotation.append([e1, e2])         # mid
    return TorusGraph(colors, edges, rotation)


def contract_bivalent(g: TorusGraph, v: int) -> TorusGraph:
    """Remove a bivalent vertex, merging its two distinct neighbours.

    Refuses when the neighbours coincide: such a doubled edge cannot be
    removed without changing the model.
    """
    rot = g.rotation[v]
    if len(rot) != 2:
        raise DimerError(f"vertex {v} is not bivalent")
    e1, e2 = rot
    n1 = g.other_end(e1, v)
    n2 = g.other_end(e2, v)
    if n1 == n2:
        raise DimerError(
            "bivalent vertex with coincident neighbours cannot be removed")
    if g.colors[n1] != g.colors[n2]:  # pragma: no cover - structural
        raise DimerError("bivalent vertex with same-coloured neighbours")
    # Merge n2 into n1: all edges of n2 except e2 are re-attached to n1,
    # inserted into n1's rotation where e1 was.  Walking n1 -> v -> n2 gives
    # the displacement of n2's merged copy relative to n1's; re-anchoring a
    # moved edge end from n2's copy to n1's shifts its offset accordingly.
    disp = vadd(g._dart_disp(n1, e1), g._dart_disp(v, e2))
    keep = [i for i in range(len(g.colors)) if i not in (v, n2)]
    newid = {old: i for i, old in enumerate(keep)}
    colors = [g.colors[i] for i in keep]

    keep_edges = [e for e in g.edges if e.id not in (e1, e2)]
    eid_map = {e.id: i for i, e in enumerate(keep_edges)}
    edges = []
    for e in keep_edges:
        b, w, off = e.black, e.white, e.offset
        if b == n2:
            b, off = n1, vadd(off, disp)
        if w == n2:
            w, off = n1, vsub(off, disp)
        edges.append(Edge(eid_map[e.id], newid[b], newid[w], off))

    rot2 = g.rotation[n2]
    i2 = rot2.index(e2)
    moved = rot2[i2 + 1:] + rot2[:i2]
    rot1 = g.rotation[n1]
    i1 = rot1.index(e1)
    merged = rot1[:i1] + moved + rot1[i1 + 1:]

    rotation = []
    for old in keep:
        if old == n1:
            rotation.append([eid_map[e] for e in merged])
        else:
            rotation.append([eid_map[e] for e in g.rotation[old]])
    return TorusGraph(colors, edges, rotation)
