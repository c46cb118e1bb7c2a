"""Local and global zig-zag fans, extremal and external perfect matchings.

For a geometrically consistent model, the homology classes of zig-zag
paths span a complete fan in the plane.  Each two dimensional cone picks a
coherent choice of one arrow per face and hence a perfect matching; its
class is a vertex of the matching polygon.  Resonating such a matching
along representatives of a ray walks through all the matchings on the
adjacent polygon edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .matchings import PerfectMatching, pm_class, reference_matching
from .surface import BLACK, DimerError, Quiver, Vec, vadd
from .zigzag import (ZigZagPath, angular_sort, boundary_flows, crossing_paths,
                     wedge)

Cone = tuple[Vec, Vec]     # (clockwise ray, counterclockwise ray)


@dataclass(frozen=True)
class Fan2D:
    rays: tuple[Vec, ...]    # counterclockwise, pairwise distinct

    def __post_init__(self) -> None:
        if not len(self.rays) == len(set(self.rays)) >= 2:
            raise DimerError("a fan needs at least two distinct rays")
        for u, v in self.cones:
            if wedge(u, v) == 0:
                raise DimerError("degenerate cone")

    @property
    def cones(self) -> list[Cone]:
        n = len(self.rays)
        return [(self.rays[i], self.rays[(i + 1) % n]) for i in range(n)]

    def cone_containing(self, p: Vec) -> Cone:
        """The cone whose closed span contains p; unique for p off the rays
        (strictly interior probes in all uses here)."""
        for u, v in self.cones:
            if wedge(u, p) >= 0 and wedge(p, v) >= 0 and wedge(u, v) > 0:
                return (u, v)
        raise DimerError(f"no cone contains {p}: fan not complete")


@dataclass
class LocalFan:
    face: int
    fan: Fan2D
    reps: dict[Vec, int]        # ray -> path id crossing the face
    tags: dict[Cone, int]       # cone -> boundary arrow shared by its reps


@dataclass
class ExtremalMatching:
    cone: Cone
    matching: PerfectMatching


def _crossings(q: Quiver, zig_of: dict[int, int], zag_of: dict[int, int],
               fid: int) -> dict[int, tuple[int, int]]:
    """path id -> its (entry, exit) arrow pair on the boundary of face fid,
    given the maps of `crossing_paths`.

    In a black face the pair is zig then zag, in a white face zag then
    zig; either way they are consecutive boundary arrows.
    """
    f = q.faces[fid]
    lookup, nxt = ((zig_of, q.next_black) if f.color == BLACK
                   else (zag_of, q.next_white))
    out: dict[int, tuple[int, int]] = {}
    for a in f.boundary:
        p = lookup[a]
        if p in out:
            raise DimerError("path crosses a face twice (inconsistent model)")
        out[p] = (a, nxt[a])
    return out


def local_fan(q: Quiver, paths: Sequence[ZigZagPath], fid: int) -> LocalFan:
    """The fan of classes of paths crossing a face, cones tagged by the
    boundary arrow its two representatives share."""
    return _local_fan(q, paths, *crossing_paths(paths), fid)


def _local_fan(q: Quiver, paths: Sequence[ZigZagPath],
               zig_of: dict[int, int], zag_of: dict[int, int], fid: int
               ) -> LocalFan:
    """`local_fan` given the maps of `crossing_paths(paths)`."""
    cross = _crossings(q, zig_of, zag_of, fid)
    reps: dict[Vec, int] = {}
    for p in cross:
        cls = paths[p].cls
        if cls in reps:
            raise DimerError("two parallel paths cross one face")
        reps[cls] = p
    fan = Fan2D(tuple(angular_sort(list(reps))))
    tags: dict[Cone, int] = {}
    for u, v in fan.cones:
        shared = set(cross[reps[u]]) & set(cross[reps[v]])
        if len(shared) != 1:
            raise DimerError("adjacent representatives must chain")
        tags[(u, v)] = shared.pop()
    return LocalFan(fid, fan, reps, tags)


def global_fan(paths: Sequence[ZigZagPath]) -> Fan2D:
    return Fan2D(tuple(angular_sort(sorted(set(p.cls for p in paths)))))


def extremal_matching(q: Quiver, paths: Sequence[ZigZagPath], sigma: Cone
                      ) -> ExtremalMatching:
    """The perfect matching P of a cone of the global fan, its class
    taken against the reference matching of `enumerate_matchings`.

    Per face, the local cone containing the (strictly interior) probe
    ray-sum of sigma donates its tagged arrow; black and white faces make
    the same choices, which assemble into a perfect matching.
    """
    probe = vadd(*sigma)
    zig_of, zag_of = crossing_paths(paths)
    local = [_local_fan(q, paths, zig_of, zag_of, f.id) for f in q.faces]
    support = frozenset(lf.tags[lf.fan.cone_containing(probe)]
                        for lf in local)
    for f in q.faces:
        if sum(a in support for a in f.boundary) != 1:
            raise DimerError("cone tags do not form a perfect matching")
    pm = PerfectMatching(support, pm_class(
        support, reference_matching(q.graph), q))
    return ExtremalMatching(sigma, pm)


def boundary_system(q: Quiver, paths: Sequence[ZigZagPath], gamma: Vec
                    ) -> dict[int, int]:
    """S(gamma): the sum of the black and white boundary cycles of every
    representative path of the ray, as a nonnegative arrow vector of
    homology class -2r*gamma for r representatives."""
    out: dict[int, int] = {a: 0 for a in range(q.n_arrows)}
    r = 0
    for p in paths:
        if p.cls != gamma:
            continue
        r += 1
        for cyc in boundary_flows(q, p):
            for a in cyc:
                out[a] += 1
    if r == 0:
        raise DimerError(f"ray {gamma} has no representative")
    cls = (0, 0)
    for a, k in out.items():
        off = q.arrows[a].offset
        cls = (cls[0] + k * off[0], cls[1] + k * off[1])
    if cls != (-2 * r * gamma[0], -2 * r * gamma[1]):
        raise DimerError(f"boundary system of ray {gamma} has class {cls}")
    return out


def pairing(m: PerfectMatching, vec: dict[int, int]) -> int:
    return sum(k for a, k in vec.items() if a in m.support)


def resonate(q: Quiver, m: PerfectMatching, eta: ZigZagPath, direction: str
             ) -> PerfectMatching:
    """Swap the path's zigs for its zags inside a matching (or the other
    way around), yielding another perfect matching.

    direction "zig->zag" requires the matching to contain every zig of the
    path; "zag->zig" every zag.
    """
    if direction == "zig->zag":
        drop, add = eta.zigs, eta.zags
    elif direction == "zag->zig":
        drop, add = eta.zags, eta.zigs
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not set(drop) <= m.support:
        raise DimerError("cannot resonate")
    support = (m.support - set(drop)) | set(add)
    return PerfectMatching(support,
                           vadd(m.cls, pm_class(support, m.support, q)))


def external_matchings(q: Quiver, paths: Sequence[ZigZagPath], gamma: Vec
                       ) -> list[PerfectMatching]:
    """All perfect matchings vanishing on S(gamma): the subset resonations
    of the extremal matching of the cone clockwise-bounded by gamma."""
    fan = global_fan(paths)
    i = fan.rays.index(gamma)
    sigma = (gamma, fan.rays[(i + 1) % len(fan.rays)])
    base = extremal_matching(q, paths, sigma).matching
    reps = [p for p in paths if p.cls == gamma]
    out = []
    for k in range(len(reps) + 1):
        for subset in itertools.combinations(reps, k):
            m = base
            for eta in subset:
                m = resonate(q, m, eta, "zag->zig")
            out.append(m)
    if len(set(m.support for m in out)) != len(out):
        raise DimerError(f"resonations along ray {gamma} repeat a matching")
    return out
