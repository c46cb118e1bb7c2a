"""Perfect matchings, degeneracy tests, and the matching polygon.

A perfect matching is stored as an int bitmask, bit e set iff edge e is in
it; through the dual quiver it doubles as a 0/1 cochain on arrows whose
coboundary is 1 on every quiver face.  Relative cohomology classes are
measured against a fixed reference matching pi0, the least support in
edge-id order, which `reference_matching` finds by one Hall search: the
class of m is the quarter turn (-hy, hx) of h, the sum of m's edge
offsets less pi0's (see `pm_class`).
`enumerate_matchings` meets in the middle over covered-vertex bitmasks
with each partial matching packed into one int, its edge bits, filed by
class, so that a join is one add and the records are built class by
class by `map`, with no Python loop per matching and no sort.
`byte_planes` transposes a list of bitmasks into one int per bit, one
byte per mask, so that a count over all matchings is a popcount or a sum
of such ints.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, groupby, repeat
from operator import and_, attrgetter, rshift
from typing import Container, Iterable, NamedTuple, Optional, Sequence

from .surface import BLACK, DimerError, TorusGraph, Vec


def edge_mask(edges: Iterable[int]) -> int:
    """The bitmask of a set of edge (or arrow) ids; a repeat counts once."""
    return sum(1 << e for e in set(edges))


class PerfectMatching(NamedTuple):
    bits: int                    # bit e set iff edge (== dual arrow) e is in
    cls: Vec = (0, 0)            # relative cohomology class

    @staticmethod
    def from_support(support: Iterable[int], cls: Vec = (0, 0)
                     ) -> PerfectMatching:
        return PerfectMatching(edge_mask(support), cls)

    @property
    def support(self) -> frozenset[int]:
        bits = self.bits
        return frozenset(e for e in range(bits.bit_length()) if bits >> e & 1)

    def __contains__(self, edge: int) -> bool:
        return self.bits >> edge & 1 == 1


def byte_planes(masks: Sequence[int], n: int) -> list[int]:
    """Per id e < n, the int whose byte k is 1 if bit e of masks[k] is
    set and 0 if not; every mask must be below 2^n.

    The masks go 64 bits at a time (whole, when n <= 64) into an
    `array("Q")`, whose bytes, little-endian, hold byte c of mask k at
    8k + c.  Every eighth byte from c, read as one int, is the column of
    byte c: its byte k is byte c of mask k, so id 8c + i of the word is
    bit i of each of its bytes.  Only the columns below n are read, and
    no Python loop runs per mask."""
    ones = int.from_bytes(b"\1" * len(masks), "little")
    planes: list[int] = []
    for w in range(0, n, 64):
        word = array("Q", masks if n <= 64 else map(
            and_, map(rshift, masks, repeat(w)), repeat((1 << 64) - 1)))
        if sys.byteorder == "big":
            word.byteswap()
        raw = word.tobytes()
        for c in range(min(8, (n - w + 7) // 8)):
            col = int.from_bytes(raw[c::8], "little")
            planes += [col >> i & ones for i in range(min(8, n - w - 8 * c))]
    return planes


def _suffixes(nbrs: list[list[tuple[int, int, int]]], mask: int,
              memo: dict[int, dict[int, list[int]]]) -> dict[int, list[int]]:
    """The packed partial matchings that complete the covered-vertex mask
    to a perfect matching, by the lowest uncovered vertex rule of `_join`,
    filed by class key; memo must hold the full mask.

    A module-level function rather than a closure that calls itself: such
    a closure is a reference cycle that keeps its frame's lists alive
    until the cyclic garbage collector runs."""
    got = memo.get(mask)
    if got is not None:
        return got
    v = (~mask & (mask + 1)).bit_length() - 1
    out: dict[int, list[int]] = {}
    for ends, c, d in nbrs[v]:
        if not mask & ends:
            for sc, ss in _suffixes(nbrs, mask | ends, memo).items():
                out.setdefault(sc + c, []).extend([s + d for s in ss])
    memo[mask] = out
    return out


def _join(nbrs: list[list[tuple[int, int, int]]], middle: int
          ) -> dict[int, list[int]]:
    """Every perfect matching, packed, per class key: the partial matchings
    of `middle` edges, listed layer by layer per covered-vertex mask plus
    class key (above the mask's bits), each joined with each suffix of its
    mask.  The vertex matched next is always the mask's lowest uncovered
    one, so a mask's completions depend on the mask alone and each matching
    is found once.  All masks share one suffix memo."""
    layer = {0: [0]}
    for _ in range(middle):
        nxt: dict[int, list[int]] = {}
        for key, parts in layer.items():
            v = (~key & (key + 1)).bit_length() - 1
            for ends, c, d in nbrs[v]:
                if not key & ends:
                    nxt.setdefault(key + ends + c, []).extend(
                        [p + d for p in parts])
        layer = nxt
    full = (1 << len(nbrs)) - 1
    memo = {full: {0: [0]}}
    out: dict[int, list[int]] = {}
    for key, prefixes in layer.items():
        mask = key & full
        for sc, suffixes in _suffixes(nbrs, mask, memo).items():
            out.setdefault(key - mask + sc, []).extend(
                [p + s for p in prefixes for s in suffixes])
    return out


def pm_class(pi: Container[int], pi0: Container[int], g: TorusGraph) -> Vec:
    """The class of pi against pi0: the pairing of the cocycle pi - pi0
    with closed arrow walks of class (1, 0) and (0, 1).

    Orient pi's edges black to white and pi0's white to black.  Every
    vertex is entered and left once, so this is a 1-cycle of the dimer, of
    class h, the sum of pi's edge offsets less pi0's.  An arrow crosses its
    edge with the black end on the left, so a closed walk of class c pairs
    with the cocycle to the intersection number h ^ c = hx*cy - hy*cx,
    which is (-hy, hx) at the two basis classes."""
    hx = hy = 0
    for e in g.edges:
        k = (e.id in pi) - (e.id in pi0)
        hx += k * e.offset[0]
        hy += k * e.offset[1]
    return (-hy, hx)


def enumerate_matchings(g: TorusGraph, q: object = None
                        ) -> list[PerfectMatching]:
    """Every perfect matching once, classes against the first, which is
    `reference_matching(g)`; each class is contiguous, the first's first,
    in no set order (see `listing_order`).  `q` is not read, and stays for
    callers that pass it.

    Matching the lowest uncovered vertex, in rotation order, lets `_join`
    meet in the middle.  A partial matching is one int, its edge bits,
    filed by class key, the sum of x*2^F + y over its edges' offsets
    (x, y); 2^(F-2) exceeds the sum of all |y|, so a key difference reads
    back exactly.  The reference's bits go to the front of its class's
    list, the class found by the same key sum over its edges, and that
    class goes first.  A class, the `pm_class` (-hy, hx), is its key less
    the first's, and the records are built by `map`, one class tuple per
    class, with no Python loop per matching.
    """
    nv = len(g.colors)
    f = sum(abs(ed.offset[1]) for ed in g.edges).bit_length() + 2
    edges = [(1 << ed.black | 1 << ed.white,
              (ed.offset[0] << f) + ed.offset[1] << nv, 1 << e)
             for e, ed in enumerate(g.edges)]
    by_cls = _join([[edges[e] for e in rot] for rot in g.rotation],
                   (nv + 2) // 4)
    if not by_cls:
        return []
    ref = reference_matching(g)
    keys, lists = list(by_cls), list(by_cls.values())
    i = keys.index(sum(edges[e][1] for e in ref))
    k = lists[i].index(edge_mask(ref))
    lists[i][0], lists[i][k] = lists[i][k], lists[i][0]
    keys[0], keys[i], lists[0], lists[i] = keys[i], keys[0], lists[i], lists[0]
    half, low = 1 << f - 1, (1 << f) - 1
    classes = [(half - (d + half & low), d + half >> f)
               for d in [c - keys[0] >> nv for c in keys]]
    return list(map(tuple.__new__, repeat(PerfectMatching), zip(
        chain.from_iterable(lists),
        chain.from_iterable(map(repeat, classes, map(len, lists))))))


def listing_order(ms: Iterable[PerfectMatching]) -> list[PerfectMatching]:
    """The matchings sorted by their lists of sorted edge ids, the order in
    which `matchings` and `svg --matching` number them.  Perfect matchings
    of one graph have one size, so this is the descending order of their
    bits written from bit 0 up."""
    return sorted(ms, key=lambda m: bin(m.bits)[:1:-1], reverse=True)


def reference_matching(g: TorusGraph) -> Optional[frozenset[int]]:
    """The first matching of `enumerate_matchings` and of `listing_order`,
    the least support in edge-id order, or None if g has none.

    Found without enumerating: scan the edges in id order and keep an edge
    when the Hall kernel still finds a perfect matching that contains the
    edges kept and otherwise uses only later edges."""
    blacks = g.black_vertices
    if len(blacks) != len(g.white_vertices):
        return None
    edges = sorted(g.edges, key=lambda e: e.id)
    taken: set[int] = set()
    chosen: list[int] = []
    for k, e in enumerate(edges):
        if len(chosen) == len(blacks):
            break
        if e.black in taken or e.white in taken:
            continue
        ends = taken | {e.black, e.white}
        if _covers(edges[k + 1:], blacks, ends):
            taken = ends
            chosen.append(e.id)
    return frozenset(chosen) if len(chosen) == len(blacks) else None


# ---------------------------------------------------------------------------
# Hall condition and non-degeneracy

class HallReport(NamedTuple):
    ok: bool
    imbalance: Optional[tuple[int, int]] = None      # (#black, #white)
    witness: Optional[tuple[frozenset[int], frozenset[int]]] = None


def _adjacency(edges: Iterable) -> dict[int, set[int]]:
    """The neighbours of each dimer vertex over the given edges."""
    adj: dict[int, set[int]] = {}
    for e in edges:
        adj.setdefault(e.black, set()).add(e.white)
        adj.setdefault(e.white, set()).add(e.black)
    return adj


def _max_matching(adj: dict[int, set[int]], lefts: list[int]
                  ) -> dict[int, int]:
    """Simple augmenting-path bipartite maximum matching.

    Returns the match map for both sides.  Sizes here are tiny, so the
    quadratic algorithm is fine.
    """
    match: dict[int, int] = {}
    for u in lefts:
        if u not in match:
            _augment(adj, match, u, set())
    return match


def _augment(adj: dict[int, set[int]], match: dict[int, int], u: int,
             seen: set[int]) -> bool:
    """Extend match along an augmenting path from u avoiding seen, if one
    exists.  Module level for the same reason as `_suffixes`."""
    for w in adj.get(u, ()):
        if w in seen:
            continue
        seen.add(w)
        if w not in match or _augment(adj, match, match[w], seen):
            match[w] = u
            match[u] = w
            return True
    return False


def _covers(edges: Sequence, blacks: list[int], ends: set[int]) -> bool:
    """Do the edges with no end in `ends` match every black vertex not in
    `ends`?"""
    adj = _adjacency(e for e in edges
                     if e.black not in ends and e.white not in ends)
    rest = [b for b in blacks if b not in ends]
    match = _max_matching(adj, rest)
    return all(b in match for b in rest)


def hall_check(g: TorusGraph) -> HallReport:
    """Pass, or a black subset A with |N(A)| < |A|, or an imbalance."""
    blacks = g.black_vertices
    whites = g.white_vertices
    if len(blacks) != len(whites):
        return HallReport(False, imbalance=(len(blacks), len(whites)))
    adj = _adjacency(g.edges)
    match = _max_matching(adj, blacks)
    unmatched = [b for b in blacks if b not in match]
    if not unmatched:
        return HallReport(True)
    # Alternating reachability from an unmatched black vertex gives a
    # violating set: every reachable white vertex is matched back into the
    # reachable blacks, so |N(A)| = |A| - 1.
    a = {unmatched[0]}
    nbrs: set[int] = set()
    frontier = [unmatched[0]]
    while frontier:
        b = frontier.pop()
        for w in adj.get(b, ()):
            if w not in nbrs:
                nbrs.add(w)
                b2 = match.get(w)
                if b2 is not None and b2 not in a:
                    a.add(b2)
                    frontier.append(b2)
    return HallReport(False, witness=(frozenset(a), frozenset(nbrs)))


class NondegeneracyReport(NamedTuple):
    ok: bool
    edge_in_some_matching: dict[int, bool]

    @property
    def dead_edges(self) -> list[int]:
        return sorted(e for e, f in self.edge_in_some_matching.items()
                      if not f)


def nondegeneracy_check(g: TorusGraph) -> NondegeneracyReport:
    """Per edge: does some perfect matching contain it?

    From one perfect matching M: direct every edge from black to white and
    add an arc from each white vertex to its partner in M.  An edge lies in
    some perfect matching iff it is in M or lies on an M-alternating cycle
    (Lovasz-Plummer, Matching Theory), that is iff both its ends lie in one
    strongly connected component; the edges of M close a 2-cycle.
    """
    blacks = g.black_vertices
    flags = dict.fromkeys((e.id for e in g.edges), False)
    if len(blacks) == len(g.white_vertices):
        match = _max_matching(_adjacency(g.edges), blacks)
        if all(b in match for b in blacks):
            succ = [[] if c == BLACK else [match[v]]
                    for v, c in enumerate(g.colors)]
            for e in g.edges:
                succ[e.black].append(e.white)
            comp = _components(succ)
            flags = {e.id: comp[e.black] == comp[e.white] for e in g.edges}
    return NondegeneracyReport(all(flags.values()), flags)


def _components(succ: list[list[int]]) -> list[int]:
    """A strongly connected component label per vertex, by Tarjan's
    algorithm on an explicit stack, so that depth is not bounded by the
    recursion limit.  A vertex is numbered when it comes to the top of the
    work stack, and is on Tarjan's stack iff numbered and not labelled."""
    num, low, comp = [0] * len(succ), [0] * len(succ), [-1] * len(succ)
    stack: list[int] = []
    count = 0
    for root in range(len(succ)):
        work = [] if num[root] else [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            if not num[v]:
                count = num[v] = low[v] = count + 1
                stack.append(v)
            for w in it:
                if not num[w]:
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0:
                    low[v] = min(low[v], num[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                while low[v] == num[v] and comp[v] < 0:
                    comp[stack.pop()] = v
    return comp


# ---------------------------------------------------------------------------
# The matching polygon

def _cross(o: Vec, a: Vec, b: Vec) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Sequence[Vec]) -> list[Vec]:
    """Counterclockwise hull (monotone chain); collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_segment(p: Vec, a: Vec, b: Vec) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


class PMPolygon(NamedTuple):
    points: dict[Vec, int]                       # class -> multiplicity
    vertices: list[Vec]                          # ccw extremal points

    def is_vertex(self, p: Vec) -> bool:
        return p in set(self.vertices)

    def is_external(self, p: Vec) -> bool:
        """On the boundary (vertex or on a facet); every vertex ends a
        facet, and a single vertex is a facet of length 0."""
        v = self.vertices
        return any(_on_segment(p, v[i], v[(i + 1) % len(v)])
                   for i in range(len(v)))


def polygon(matchings: Sequence[PerfectMatching]) -> PMPolygon:
    """Classes with multiplicities, added up over runs of one class: one
    run each in `enumerate_matchings`' list, any number elsewhere."""
    if not matchings:
        raise DimerError("no perfect matchings")
    points: dict[Vec, int] = {}
    for c, run in groupby(map(attrgetter("cls"), matchings)):
        points[c] = points.get(c, 0) + len(list(run))
    return PMPolygon(points, convex_hull(list(points)))


# ---------------------------------------------------------------------------
# Normal form under unimodular transformation + translation

def _bezout(a: int, b: int) -> Vec:
    """(u, v) with u*a + v*b = 1 for coprime a and b, by extended Euclid."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        t = a // b
        a, b, x0, x1, y0, y1 = b, a - t * b, x1, x0 - t * x1, y1, y0 - t * y1
    return (a * x0, a * y0)                     # a is 1 or -1


def polygon_normal_form(points: dict[Vec, int]
                        ) -> tuple[tuple[Vec, int], ...]:
    """Lexicographically least image of a weighted point set under
    GL(2,Z) x translations: the sorted ((x, y), multiplicity) pairs, each
    coordinate translated to least value 0.

    Exact, from two maps per edge of the convex hull.  The first row f of
    a map decides column x = 0: the face of the hull where f is least.
    - Column 0 sorts first, and a shear can put its lowest point at
      (0, 0), so a hull edge on it beats any single vertex at the second
      entry: f is the primitive inner normal of an edge.
    - Once f is fixed, the only freedom left is the second row s*g0 + k*f,
      with s = +-1 and g0.d = 1 for the edge's primitive direction d; the
      sign picks which end of the edge is lowest.
    - With (x, y) the image under (f, s*g0), shifted so that column 0 is
      at x = 0 and its lowest y is c0, k = max ceil((c0 - y)/x) over the
      points with x > 0 is the least shear that leaves no point below c0.
      A smaller k lifts the first entry of column 0; a larger k raises the
      first entry of the next nonempty column.
    - A collinear set has a hull of two points and takes the same path,
      over both normals of its line.  A single point is a special case.
    """
    if not points:
        raise DimerError("normal form of an empty point set")
    hull = convex_hull(list(points))
    if len(hull) == 1:
        return (((0, 0), points[hull[0]]),)

    def image(a: Vec, b: Vec, s: int) -> tuple[tuple[Vec, int], ...]:
        n = math.gcd(b[0] - a[0], b[1] - a[1])
        dx, dy = (b[0] - a[0]) // n, (b[1] - a[1]) // n
        gx, gy = _bezout(dx, dy)
        # the hull is counterclockwise, so f = (-dy, dx) is the inner normal
        img = [(dx * y - dy * x, s * (gx * x + gy * y), m)
               for (x, y), m in points.items()]
        x0 = min(u for u, _, _ in img)
        c0 = min(v for u, v, _ in img if u == x0)
        k = max((-((v - c0) // (u - x0)) for u, v, _ in img if u > x0),
                default=0)
        return tuple(sorted(((u - x0, v + k * (u - x0) - c0), m)
                            for u, v, m in img))

    return min(image(a, b, s) for a, b in zip(hull, hull[1:] + hull[:1])
               for s in (1, -1))


# ---------------------------------------------------------------------------
# Birkhoff - von Neumann decomposition

def coboundary(g: TorusGraph, vec: dict[int, int]) -> dict[int, int]:
    """Sum of vec over the edges at each dimer vertex (the coboundary value
    on the dual quiver face)."""
    return {v: sum(vec.get(e, 0) for e in g.rotation[v])
            for v in range(len(g.colors))}


def bvn_decompose(g: TorusGraph, vec: dict[int, int]
                  ) -> list[PerfectMatching]:
    """Write a nonnegative integer cochain with constant coboundary k as a
    sum of k perfect matchings: find a matching inside the support with
    the Hall kernel, subtract, repeat.  A k-regular bipartite multigraph
    has a perfect matching (Konig), and after j subtractions the support
    is (k-j)-regular, so every search succeeds and nothing is left."""
    unknown = set(vec) - {ed.id for ed in g.edges}
    if unknown:
        raise DimerError(f"decomposition input names unknown edges "
                         f"{sorted(unknown)}")
    if any(x < 0 for x in vec.values()):
        raise DimerError("negative entry in decomposition input")
    db = coboundary(g, vec)
    ks = set(db.values())
    if len(ks) != 1:
        raise DimerError(f"coboundary is not constant: {sorted(ks)}")
    k = ks.pop()
    pi0 = reference_matching(g)
    blacks = g.black_vertices
    out: list[PerfectMatching] = []
    work = dict(vec)
    for _ in range(k):
        live = [ed for ed in g.edges if work.get(ed.id, 0) > 0]
        match = _max_matching(_adjacency(live), blacks)
        edge_of: dict[tuple[int, int], int] = {}
        for ed in live:
            edge_of.setdefault((ed.black, ed.white), ed.id)
        m = frozenset(edge_of[(b, match[b])] for b in blacks)
        for e in m:
            work[e] -= 1
        out.append(PerfectMatching.from_support(m, pm_class(m, pi0, g)))
    return out
