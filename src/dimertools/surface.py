"""Combinatorial dimer models on the 2-torus and their dual quivers.

A model is stored purely combinatorially: a bipartite graph together with a
rotation system (counterclockwise cyclic order of edges at every vertex) and
an integer homology offset per edge recording how the edge wraps around the
torus.  Vertex coordinates are never stored.

The offset of an edge is the displacement, in fundamental-domain units, of
the white endpoint's copy relative to the black endpoint's copy.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence


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


class Edge(NamedTuple):
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
        self._validate_topology(self._trace_faces())

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
        seen, todo = {0}, [0]
        while todo:
            for w in adj[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
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

    def other_end(self, e: int, v: int) -> int:
        ed = self.edges[e]
        return ed.white if v == ed.black else ed.black

    def _dart_disp(self, v: int, e: int) -> Vec:
        """Displacement when walking edge e away from vertex v."""
        ed = self.edges[e]
        return ed.offset if v == ed.black else vneg(ed.offset)

    def _trace_faces(self) -> list[Vec]:
        """Trace every face once.  Sets `faces` (each face's darts in
        order) and, per dart, `succ` (the next edge in the rotation at its
        vertex), `face_of` (its face) and `lift` (the displacement of its
        vertex's copy from that of the face's first dart); returns each
        face's closing displacement.  The face map is a permutation of
        darts, so each walk closes at its first dart."""
        self.succ: dict[tuple[int, int], int] = {}
        for v, rot in enumerate(self.rotation):
            self.succ.update(((v, e), nxt)
                             for e, nxt in zip(rot, rot[1:] + rot[:1]))
        self.faces: list[list[tuple[int, int]]] = []
        self.face_of: dict[tuple[int, int], int] = {}
        self.lift: dict[tuple[int, int], Vec] = {}
        closing = []
        for d0 in self.succ:
            if d0 in self.face_of:
                continue
            face = []
            d, pos = d0, (0, 0)
            while d not in self.face_of:
                self.face_of[d] = len(self.faces)
                self.lift[d] = pos
                face.append(d)
                v, e = d
                pos = vadd(pos, self._dart_disp(v, e))
                w = self.other_end(e, v)
                d = (w, self.succ[(w, e)])
            self.faces.append(face)
            closing.append(pos)
        return closing

    def _validate_topology(self, closing: list[Vec]) -> None:
        v, e, f = len(self.colors), len(self.edges), len(self.faces)
        if v - e + f != 0:
            raise TopologyError(
                f"Euler characteristic {v - e + f} != 0: "
                "rotation system does not describe a torus")
        if any(c != (0, 0) for c in closing):
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
    lines = [line for raw in text.splitlines()
             if (line := raw.split("#", 1)[0].strip())]
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

class Arrow(NamedTuple):
    id: int
    tail: int
    head: int
    offset: Vec


class QuiverFace(NamedTuple):
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
        self._check_cycle_lattice()

    def _build(self) -> None:
        """Read arrows and faces from the graph's validated dart records.
        Each rotation lists its edges once, so every arrow is in one black
        and one white face; |Q0| - |Q1| + |Q2| is the graph's Euler count, 0.
        Black faces compose by the definition of head; for e = next_white[a]
        at w, darts (b_e, e), (w, a), (b_a, succ a) follow in one dimer face,
        so tail(e) = head(a).  Offsets telescope around each face, as
        offset(a) = lift[(b, a)] - lift[(b, succ a)] = lift[(w, succ a)] -
        lift[(w, a)] when every dimer face closes."""
        g = self.graph
        # Dimer faces become quiver vertices.
        self.n_vertices = len(g.faces)

        # One arrow per dimer edge.  Traversed inside the black face cycle
        # the arrow dual to e runs from the dimer face containing the corner
        # before e at its black vertex to the face containing the corner
        # after e; with counterclockwise rotations this puts the black vertex
        # on the left.  Its offset compares the black vertex's lifts in the
        # two faces.
        arrows = []
        for e in g.edges:
            d_tail = (e.black, e.id)
            d_head = (e.black, g.succ[d_tail])
            offset = vsub(g.lift[d_tail], g.lift[d_head])
            arrows.append(Arrow(e.id, g.face_of[d_tail], g.face_of[d_head],
                                offset))
        self.arrows = arrows
        self.out_arrows: list[list[int]] = [[] for _ in range(self.n_vertices)]
        self.in_arrows: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for a in arrows:
            self.out_arrows[a.tail].append(a.id)
            self.in_arrows[a.head].append(a.id)

        # Quiver faces: one per dimer vertex.  Around a black vertex the dual
        # arrows in rotation order form the (anticlockwise) black face; around
        # a white vertex the reversed rotation order forms the white face.
        # next_black[a] and next_white[a] are the arrows after a in its black
        # and in its white face.
        faces = []
        self.next_black: dict[int, int] = {}
        self.next_white: dict[int, int] = {}
        for v, color in enumerate(g.colors):
            rot = g.rotation[v]
            cycle = tuple(rot) if color == BLACK else tuple(reversed(rot))
            faces.append(QuiverFace(v, color, cycle))
            nxt = self.next_black if color == BLACK else self.next_white
            nxt.update(zip(cycle, cycle[1:] + cycle[:1]))
        self.faces = faces

    def _check_cycle_lattice(self) -> None:
        """Raise unless the classes of closed walks generate Z^2.

        Potentials on a spanning tree give each arrow's fundamental cycle a
        class, and these generate the classes of closed walks.  Every arrow
        lies on a face cycle, of class zero, so its inverse is homologous to
        the rest of that directed cycle: every class has a directed closed
        walk exactly when the 2x2 minors of these classes have gcd 1.
        """
        pot: dict[int, Vec] = {0: (0, 0)}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for a in self.out_arrows[v] + self.in_arrows[v]:
                arr = self.arrows[a]
                w, step = ((arr.head, arr.offset) if arr.tail == v
                           else (arr.tail, vneg(arr.offset)))
                if w not in pot:
                    pot[w] = vadd(pot[v], step)
                    queue.append(w)
        classes = {vsub(vadd(pot[a.tail], a.offset), pot[a.head])
                   for a in self.arrows}
        index = 0
        for (x1, y1), (x2, y2) in combinations(classes, 2):
            index = math.gcd(index, x1 * y2 - x2 * y1)
        if index != 1:
            size = f"index {index}" if index else "rank < 2"
            raise TopologyError(f"cycle classes generate a sublattice of "
                                f"{size} in Z^2: some class has no closed "
                                "walk")

    # -- helpers used throughout ---------------------------------------------

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


def face_walk(nxt: dict[int, int], after: int, until: int) -> tuple[int, ...]:
    """The arrows strictly between `after` and `until` in their face, read
    from a successor map (`Quiver.next_black` or `next_white`); with
    `after == until`, the rest of the face."""
    out = []
    a = nxt[after]
    while a != until:
        out.append(a)
        a = nxt[a]
    return tuple(out)


# ---------------------------------------------------------------------------
# Superpotential and F-term relations

class Superpotential(NamedTuple):
    terms: tuple[tuple[int, tuple[int, ...]], ...]  # (sign, cyclic arrows)


def _least_rotation(cyc: Sequence[int]) -> tuple[int, ...]:
    cyc = tuple(cyc)
    return min(cyc[i:] + cyc[:i] for i in range(len(cyc)))


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
    omitting a itself.  Each closes a face with a, so both have hom
    -offset(a) and, as a perfect matching holds one arrow of each face,
    both meet a matching 1 - [a in it] times: a relation keeps the class.

    Over the in-arrows a of a vertex i, `next_black[a]` and `next_white[a]`
    each list the out-arrows of i once, and they are the two neighbours of
    a on the boundary of dimer face i.  So the relations of i's in-arrows
    join its out-arrows in one cycle, the face's boundary (a loop at
    out-degree 1), and a set of k of them has rank k, less 1 if it is all
    of them: as rows e_b+ - e_b- of the first arrows b+- of p_a^+-.
    """
    return [(a, face_walk(q.next_black, a, a), face_walk(q.next_white, a, a))
            for a in range(q.n_arrows)]


# ---------------------------------------------------------------------------
# Split / contract moves

def split_vertex(g: TorusGraph, v: int, position: int) -> TorusGraph:
    """Split dimer vertex v at a gap in its rotation.

    The vertex is cut into two vertices of its own colour joined through a
    new bivalent vertex of the opposite colour.  ``position`` selects the gap
    in the rotation: edges rot[position:] stay with v, the preceding ones
    move to the new same-colour vertex.  Splitting at gap 0 keeps a single
    nonempty group, which still inserts the bivalent bridge.  Every moved
    edge has v at its end of v's colour, so that end becomes the new vertex.
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

    for eid in move:
        e = edges[eid]
        edges[eid] = (Edge(e.id, same, e.white, e.offset)
                      if g.colors[v] == BLACK
                      else Edge(e.id, e.black, same, e.offset))

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
    removed without changing the model.  Both neighbours have the other
    colour than v, as every edge joins a black and a white vertex.
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
