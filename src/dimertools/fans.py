"""Local and global zig-zag fans, extremal and external perfect matchings.

For a geometrically consistent model, the homology classes of zig-zag
paths span a complete fan in the plane.  Every arrow is the zag of one
path and the zig of another, and in the local fans of both its faces it
tags the cone running counterclockwise from the first class to the
second.  The arrows whose cones hold a two dimensional cone of the global
fan form a perfect matching, one arrow per face; its class is a vertex of
the matching polygon.  Resonating such a matching along representatives
of a ray walks through all the matchings on the adjacent polygon edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .matchings import PerfectMatching, edge_mask, pm_class
from .surface import DimerError, Quiver, Vec, vadd
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


class LocalFan(NamedTuple):
    face: int
    fan: Fan2D
    reps: dict[Vec, int]        # ray -> path id crossing the face
    tags: dict[Cone, int]       # cone -> boundary arrow shared by its reps


def local_fan(q: Quiver, paths: Sequence[ZigZagPath], fid: int) -> LocalFan:
    """The fan of classes of paths crossing a face, each cone tagged by the
    boundary arrow whose zig and zag paths are its two representatives."""
    zig_of, zag_of = crossing_paths(paths)
    boundary = q.faces[fid].boundary
    reps: dict[Vec, int] = {}
    for a in boundary:
        p = zig_of[a]
        if paths[p].cls in reps:
            raise DimerError("a face is crossed twice by paths of one class "
                             "(inconsistent model)")
        reps[paths[p].cls] = p
    fan = Fan2D(tuple(angular_sort(list(reps))))
    arrow_of = {frozenset((zig_of[a], zag_of[a])): a for a in boundary}
    if len(arrow_of) != len(boundary):
        raise DimerError("two boundary arrows join the same paths")
    tags: dict[Cone, int] = {}
    for u, v in fan.cones:
        a = arrow_of.get(frozenset((reps[u], reps[v])))
        if a is None:
            raise DimerError("adjacent representatives must chain")
        tags[(u, v)] = a
    return LocalFan(fid, fan, reps, tags)


def global_fan(paths: Sequence[ZigZagPath]) -> Fan2D:
    return Fan2D(tuple(angular_sort(sorted(set(p.cls for p in paths)))))


def extremal_matching(q: Quiver, paths: Sequence[ZigZagPath], sigma: Cone,
                      reference: frozenset[int]) -> PerfectMatching:
    """The perfect matching P of a cone of the global fan, its class
    taken against `reference`, the support that `reference_matching`
    finds once per model.

    Every arrow is the zag of one path and the zig of another; in both its
    faces it tags the local cone running counterclockwise from the class
    of its zag path to that of its zig path.  P is the set of arrows whose
    cone holds the ray-sum of sigma, which lies strictly inside sigma.
    """
    if sigma not in global_fan(paths).cones:
        raise DimerError(f"{sigma} is not a cone of the zig-zag fan")
    probe = vadd(*sigma)
    zig_of, zag_of = crossing_paths(paths)
    chosen = []
    for a in range(q.n_arrows):
        u, v = paths[zag_of[a]].cls, paths[zig_of[a]].cls
        if wedge(u, v) <= 0:
            raise DimerError(f"the paths through arrow {a} do not turn "
                             "counterclockwise (not geometrically "
                             "consistent)")
        if wedge(u, probe) >= 0 and wedge(probe, v) >= 0:
            chosen.append(a)
    support = frozenset(chosen)
    for f in q.faces:
        if sum(a in support for a in f.boundary) != 1:
            raise DimerError("cone tags do not form a perfect matching")
    return PerfectMatching.from_support(support,
                                        pm_class(support, reference, q.graph))


def boundary_system(q: Quiver, paths: Sequence[ZigZagPath], gamma: Vec
                    ) -> dict[int, int]:
    """S(gamma): the sum of the black and white boundary cycles of every
    representative path of the ray, as a nonnegative arrow vector of
    homology class -2r*gamma for r representatives: `boundary_flows`
    gives each path two cycles of class -[eta], so no check is made."""
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
    return out


def pairing(m: PerfectMatching, vec: dict[int, int]) -> int:
    return sum(k for a, k in vec.items() if a in m)


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
    drop_bits = edge_mask(drop)
    if m.bits & drop_bits != drop_bits:
        raise DimerError("cannot resonate")
    out = PerfectMatching(m.bits & ~drop_bits | edge_mask(add))
    return PerfectMatching(out.bits, vadd(m.cls, pm_class(out, m, q.graph)))


def external_matchings(q: Quiver, paths: Sequence[ZigZagPath], gamma: Vec,
                       reference: frozenset[int]) -> list[PerfectMatching]:
    """All perfect matchings vanishing on S(gamma): the subset resonations
    of the extremal matching of the cone clockwise-bounded by gamma, its
    class taken against `reference`."""
    fan = global_fan(paths)
    if gamma not in fan.rays:
        raise DimerError(f"{gamma} is not a ray of the zig-zag fan")
    i = fan.rays.index(gamma)
    sigma = (gamma, fan.rays[(i + 1) % len(fan.rays)])
    base = extremal_matching(q, paths, sigma, reference)
    reps = [p for p in paths if p.cls == gamma]
    out = []
    for k in range(len(reps) + 1):
        for subset in itertools.combinations(reps, k):
            m = base
            for eta in subset:
                m = resonate(q, m, eta, "zag->zig")
            out.append(m)
    if len({m.bits for m in out}) != len(out):
        raise DimerError(f"resonations along ray {gamma} repeat a matching")
    return out
