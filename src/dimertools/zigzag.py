"""Zig-zag paths, their homology classes, and geometric consistency.

A zig-zag path alternates maximal left/right turns: arrows at even
positions (zigs) are followed by the next arrow of their black face, arrows
at odd positions (zags) by the next arrow of their white face.  Lifting a
path to the universal cover gives a zig-zag flow; geometric consistency
says flows behave like straight lines, decided here exactly by a coset
counting argument instead of explicit cover windows.
"""

from __future__ import annotations

from math import gcd
from functools import cmp_to_key
from typing import NamedTuple, Sequence, Union

from .surface import BLACK, DimerError, Quiver, Vec, face_walk, vadd, vsub


class ZigZagPath(NamedTuple):
    id: int
    arrows: tuple[int, ...]      # even index = zig, odd = zag
    offsets: tuple[Vec, ...]     # cumulative, offsets[i] before arrows[i]
    cls: Vec                     # total offset over one period

    @property
    def period(self) -> int:
        return len(self.arrows)

    @property
    def zigs(self) -> tuple[int, ...]:
        return self.arrows[0::2]

    @property
    def zags(self) -> tuple[int, ...]:
        return self.arrows[1::2]


def _canonical_rotation(arrows: list[int]) -> list[int]:
    """Rotate by an even amount so the least arrow id sits at position 0
    among even positions."""
    evens = arrows[0::2]
    k = 2 * evens.index(min(evens))
    return arrows[k:] + arrows[:k]


def zigzag_paths(q: Quiver) -> list[ZigZagPath]:
    """The complete set of zig-zag paths.

    Every arrow occurs as a zig in exactly one path and as a zag in exactly
    one path (possibly the same): a zig is followed by its successor in its
    black face, a zag by its successor in its white face, and both
    successor maps are bijections.
    """
    paths: list[ZigZagPath] = []
    seen_zig: set[int] = set()
    for a0 in range(q.n_arrows):
        if a0 in seen_zig:
            continue
        arrows: list[int] = []
        a = a0
        while True:
            zag = q.next_black[a]
            arrows += [a, zag]
            a = q.next_white[zag]
            if a == a0:
                break
        arrows = _canonical_rotation(arrows)
        seen_zig.update(arrows[0::2])
        offsets = []
        pos = (0, 0)
        for x in arrows:
            offsets.append(pos)
            pos = vadd(pos, q.arrows[x].offset)
        paths.append(ZigZagPath(len(paths), tuple(arrows), tuple(offsets),
                                pos))
    return paths


def crossing_paths(paths: Sequence[ZigZagPath]
                   ) -> tuple[dict[int, int], dict[int, int]]:
    """arrow id -> id of the path having it as a zig, and as a zag."""
    zig_of: dict[int, int] = {}
    zag_of: dict[int, int] = {}
    for p in paths:
        zig_of.update(dict.fromkeys(p.zigs, p.id))
        zag_of.update(dict.fromkeys(p.zags, p.id))
    return zig_of, zag_of


# ---------------------------------------------------------------------------
# Failure records

class SelfIntersection(NamedTuple):
    path: int
    i: int
    j: int


class ZeroClass(NamedTuple):
    path: int


class NonPrimitiveClass(NamedTuple):
    path: int


class ParallelShare(NamedTuple):
    path_a: int
    path_b: int
    arrow: int


class CosetCount(NamedTuple):
    path_a: int
    path_b: int
    coset: Vec
    count: int


Failure = Union[SelfIntersection, ZeroClass, NonPrimitiveClass,
                ParallelShare, CosetCount]


class GeomReport(NamedTuple):
    verdict: bool
    failures: list[Failure]


def wedge(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def geometric_check(paths: Sequence[ZigZagPath]) -> GeomReport:
    """Exact geometric-consistency decision.

    (a)/(c) within one path: no arrow may repeat in one period, the class
    must be nonzero and primitive.  (c) across paths: parallel classes must
    share no arrow.  (b) independent classes: the intersections of two lifts
    are counted through the quotient group Z^2/(Zu+Zu'); every coset must be
    hit exactly once.
    """
    failures: list[Failure] = []
    for p in paths:
        seen: dict[int, int] = {}
        for i, a in enumerate(p.arrows):
            if a in seen:
                failures.append(SelfIntersection(p.id, seen[a], i))
            else:
                seen[a] = i
        if p.cls == (0, 0):
            failures.append(ZeroClass(p.id))
        elif gcd(p.cls[0], p.cls[1]) != 1:
            failures.append(NonPrimitiveClass(p.id))
    for p in paths:
        for r in paths:
            if r.id <= p.id:
                continue
            u, v = p.cls, r.cls
            if wedge(u, v) == 0:
                shared = set(p.arrows) & set(r.arrows)
                for a in sorted(shared):
                    failures.append(ParallelShare(p.id, r.id, a))
            else:
                failures.extend(_coset_failures(p, r))
    return GeomReport(not failures, failures)


def _coset_failures(p: ZigZagPath, r: ZigZagPath) -> list[Failure]:
    u, v = p.cls, r.cls
    counts: dict[Vec, int] = {}
    pos_r: dict[int, list[int]] = {}
    for j, a in enumerate(r.arrows):
        pos_r.setdefault(a, []).append(j)
    for i, a in enumerate(p.arrows):
        for j in pos_r.get(a, ()):
            diff = vsub(p.offsets[i], r.offsets[j])
            rep = coset_reduce(diff, u, v)
            counts[rep] = counts.get(rep, 0) + 1
    return [CosetCount(p.id, r.id, rep, counts.get(rep, 0))
            for rep in coset_representatives(u, v)
            if counts.get(rep, 0) != 1]


def angle_compare(u: Vec, v: Vec) -> int:
    """Counterclockwise angular comparison of nonzero lattice vectors,
    angles measured from the positive x axis in [0, 2pi)."""
    def half(w: Vec) -> int:
        return 0 if w[1] > 0 or (w[1] == 0 and w[0] > 0) else 1
    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    w = wedge(u, v)
    return 0 if w == 0 else (-1 if w > 0 else 1)


def angular_sort(vecs: Sequence[Vec]) -> list[Vec]:
    return sorted(vecs, key=cmp_to_key(angle_compare))


def _is_cyclic_rotation(seq: list[Vec], target: list[Vec]) -> bool:
    if len(seq) != len(target):
        return False
    if not seq:
        return True
    doubled = target + target
    n = len(seq)
    return any(doubled[k:k + n] == seq for k in range(n))


def normal_polygon_twice_area(classes: Sequence[Vec]) -> int:
    """Twice the area of the polygon whose outward edge normals are the
    given classes, with multiplicity.

    Each class u contributes the edge vector u rotated a quarter turn
    counterclockwise; sorted by angle the edges close up (the classes of a
    complete path set sum to zero).
    """
    if any(u == (0, 0) for u in classes):
        raise DimerError("zero homology class: normal polygon undefined")
    edges = angular_sort([(-u[1], u[0]) for u in classes])
    pos = (0, 0)
    twice = 0
    for e in edges:
        nxt = vadd(pos, e)
        twice += wedge(pos, nxt)
        pos = nxt
    if pos != (0, 0):
        raise DimerError("classes do not sum to zero")
    return abs(twice)


def properly_ordered(q: Quiver, paths: Sequence[ZigZagPath]) -> bool:
    """Two equivalent facets of proper ordering, both checked.

    The count: the number of quiver vertices equals twice the area of the
    normal polygon of the path classes.  The order: around every quiver
    face, the classes of the paths crossing it appear in their angular
    cyclic order.
    """
    twice_area = normal_polygon_twice_area([p.cls for p in paths])
    if q.n_vertices != twice_area:
        return False
    zig_of, zag_of = crossing_paths(paths)
    for f in q.faces:
        # black faces see the crossing paths counterclockwise, white ones
        # clockwise
        if f.color == BLACK:
            seq = [paths[zig_of[a]].cls for a in f.boundary]
        else:
            seq = [paths[zag_of[a]].cls for a in reversed(f.boundary)]
        if not _is_cyclic_rotation(seq, angular_sort(seq)):
            return False
    return True


def boundary_flows(q: Quiver, eta: ZigZagPath
                   ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The black and white boundary flows of a zig-zag path.

    Each zig-zag pair shares a black face, each zag-zig pair a white face;
    replacing the pair by the complementary part of the face cycle, with
    pairs taken in reverse order, gives a closed cycle of class -[eta]
    (every face cycle has class zero).
    """
    n = eta.period
    black: list[int] = []
    white: list[int] = []
    for m in range(n // 2 - 1, -1, -1):
        zig, zag = eta.arrows[2 * m], eta.arrows[2 * m + 1]
        black.extend(face_walk(q.next_black, zag, zig))
        white.extend(face_walk(q.next_white, eta.arrows[(2 * m + 2) % n], zag))
    return tuple(black), tuple(white)


def coset_reduce(w: Vec, u: Vec, v: Vec) -> Vec:
    """Reduce w modulo the lattice Zu + Zv (u, v independent).

    Writes w = x u + y v over the rationals and subtracts floor(x) u +
    floor(y) v; the result is a canonical representative in the half-open
    fundamental parallelogram.
    """
    d = wedge(u, v)
    xn, yn = wedge(w, v), wedge(u, w)
    if d < 0:
        d, xn, yn = -d, -xn, -yn
    fx, fy = xn // d, yn // d
    return vsub(w, (fx * u[0] + fy * v[0], fx * u[1] + fy * v[1]))


def coset_representatives(u: Vec, v: Vec) -> list[Vec]:
    """All canonical representatives of Z^2/(Zu+Zv), sorted.

    Zu+Zv projects onto gZ on the x axis, g = gcd(u_x, v_x), and meets the
    y axis in (d/g)Z, d = |u ^ v|; so the points 0 <= x < g, 0 <= y < d/g
    lie in distinct cosets, d of them, one in each.
    """
    g = gcd(u[0], v[0])
    h = abs(wedge(u, v)) // g
    return sorted(coset_reduce((x, y), u, v)
                  for x in range(g) for y in range(h))
