"""Weight functions on arrows and exact feasibility of symmetry conditions.

A weight function R on the arrows whose coboundary is the same number on
every quiver face plays the role of a grading.  An R-symmetry has all
weights strictly positive; it is anomaly-free when additionally, at every
quiver vertex v,

    sum over arrows at v of R_a  =  deg(R) * (|H_v| - 1),

where H_v is the set of incoming arrows.  Both finders return an R that
maximizes the least weight (for rhombic angles, the least of R and 1 - R).

The first candidate is read from the zig-zag paths: the m distinct classes,
in counterclockwise order, get the angles 2k/m (in units of pi), and an
arrow gets the angle from its zag class to its zig class.  Every face
bounds the least weight by 2/|f| (and 1 - R by 1 - 2/|f|); a candidate
that solves the equations and meets that bound is an optimum, and a bound
of at most 0 leaves no solution.  Otherwise the question is decided by
exact rational LP with slack maximization, so a strict inequality holds
iff the optimum is strictly positive.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .matchings import PerfectMatching, byte_planes
from .rationallp import solve_lp
from .surface import DimerError, Quiver
from .zigzag import ZigZagPath, angular_sort, crossing_paths, zigzag_paths


class WeightFunction(NamedTuple):
    weights: tuple[int | Fraction, ...]    # indexed by arrow id
    degree: int | Fraction

    def check(self, q: Quiver) -> bool:
        return all(sum(self.weights[a] for a in f.boundary) == self.degree
                   for f in q.faces)


def euler_check(q: Quiver) -> bool:
    return q.n_vertices - q.n_arrows + len(q.faces) == 0


def default_r_symmetry(matchings: Sequence[PerfectMatching], q: Quiver
                       ) -> WeightFunction:
    """The sum of all perfect matchings, an R-symmetry with `int` weights
    and degree whenever the model is non-degenerate.  Arrow a's weight is
    the popcount of its byte plane (`byte_planes`), the number of matchings
    holding a.  Each matching holds one arrow of each face, so every face
    sums to the degree."""
    planes = byte_planes(list(map(attrgetter("bits"), matchings)),
                         q.n_arrows)
    wf = WeightFunction(tuple(p.bit_count() for p in planes), len(matchings))
    if not matchings or 0 in wf.weights:
        raise DimerError("no R-symmetry from matchings: model is degenerate")
    return wf


def _vertex_stars(q: Quiver) -> list[tuple[list[int], int]]:
    """Per quiver vertex: arrows incident to it (head or tail) and |H_v|."""
    return [(inc + out, len(inc))
            for inc, out in zip(q.in_arrows, q.out_arrows)]


def find_anomaly_free(q: Quiver, *,
                      paths: Optional[Sequence[ZigZagPath]] = None
                      ) -> Optional[WeightFunction]:
    """An anomaly-free R-symmetry normalized to degree 2, or None.

    Solves: coboundary = 2 on every face, vertex anomaly equations, all
    weights positive; among solutions the minimum weight is maximized.
    The zig-zag angle candidate is returned when it solves the equations
    and its least weight is min over faces of 2/|f|, a bound on every
    solution; otherwise the exact LP decides.  `paths`, the zig-zag paths
    of q, are built when not given.
    """
    return _solve_weights(q, rhombic=False, paths=paths)


def find_rhombic(q: Quiver) -> Optional[WeightFunction]:
    """An anomaly-free solution with every weight in the open interval
    (0,1); weights times pi are then rhombus angles.

    The least of R_a and 1 - R_a is maximized.  The zig-zag angle
    candidate is returned when it meets the face bound min over faces of
    min(2/|f|, 1 - 2/|f|), and None when a face has at most two arrows;
    otherwise the exact LP decides.
    """
    return _solve_weights(q, rhombic=True, paths=None)


def _solve_weights(q: Quiver, rhombic: bool,
                   paths: Optional[Sequence[ZigZagPath]]
                   ) -> Optional[WeightFunction]:
    sizes = [len(f.boundary) for f in q.faces]
    bound = Fraction(2, max(sizes))
    if rhombic:
        bound = min(bound, 1 - Fraction(2, min(sizes)))
    if bound <= 0:
        return None
    wf = _angle_weights(q, rhombic, bound,
                        zigzag_paths(q) if paths is None else paths)
    return wf if wf is not None else _lp_weights(q, rhombic)


def _angle_weights(q: Quiver, rhombic: bool, bound: Fraction,
                   paths: Sequence[ZigZagPath]) -> Optional[WeightFunction]:
    """The R of the zig-zag ray angles if it solves the equations of
    `_lp_weights` and its least weight is the face bound, which makes it an
    optimum of that LP; else None.

    The k-th of the m distinct path classes in counterclockwise order has
    the angle 2k/m (in units of pi), and arrow a gets the angle from its
    zag class to its zig class, 2((k(zig) - k(zag)) mod m)/m.
    """
    classes = {p.cls for p in paths}
    if (0, 0) in classes or len(classes) < 2:
        return None
    m = len(classes)
    k = {u: i for i, u in enumerate(angular_sort(sorted(classes)))}
    zig_of, zag_of = crossing_paths(paths)
    wf = WeightFunction(tuple(
        Fraction(2 * ((k[paths[zig_of[a]].cls] - k[paths[zag_of[a]].cls])
                      % m), m)
        for a in range(q.n_arrows)), Fraction(2))
    least = min(min(w, 1 - w) if rhombic else w for w in wf.weights)
    if least != bound or _violation(q, wf, rhombic) is not None:
        return None
    return wf


def _lp_weights(q: Quiver, rhombic: bool) -> Optional[WeightFunction]:
    """Maximize the least weight (and least 1 - weight, for rhombic
    angles) over the face and vertex equations by exact rational LP."""
    n = q.n_arrows
    # variables: R_0..R_{n-1}, t (slack to maximize)
    nv = n + 1
    a_eq, b_eq = [], []
    for f in q.faces:
        row = [0] * nv
        for a in f.boundary:
            row[a] += 1
        a_eq.append(row)
        b_eq.append(2)
    for star, nh in _vertex_stars(q):
        row = [0] * nv
        for a in star:
            row[a] += 1
        a_eq.append(row)
        b_eq.append(2 * (nh - 1))
    a_ub, b_ub = [], []
    for a in range(n):
        row = [0] * nv
        row[a], row[n] = -1, 1          # t <= R_a
        a_ub.append(row)
        b_ub.append(0)
        if rhombic:
            row = [0] * nv
            row[a], row[n] = 1, 1       # R_a + t <= 1
            a_ub.append(row)
            b_ub.append(1)
    c = [0] * n + [1]
    res = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
    if res.status != "optimal" or res.objective <= 0:
        return None
    wf = WeightFunction(tuple(res.solution[:n]), Fraction(2))
    problem = _violation(q, wf, rhombic)
    if problem is not None:
        raise DimerError(problem)
    return wf


def _violation(q: Quiver, wf: WeightFunction, rhombic: bool
               ) -> Optional[str]:
    """Check, independently of the LP and in time linear in the quiver,
    that wf solves the system `_lp_weights` poses: every face sums to 2,
    every vertex anomaly equation holds, every weight is positive and, for
    rhombic angles, below 1.  Returns the first condition broken, or
    None."""
    if not wf.check(q):
        return "R-symmetry fails a face equation"
    for v, (star, nh) in enumerate(_vertex_stars(q)):
        if sum(wf.weights[a] for a in star) != 2 * (nh - 1):
            return f"R-symmetry fails the anomaly equation at vertex {v}"
    for a, w in enumerate(wf.weights):
        if w <= 0:
            return f"R-symmetry weight of arrow {a} is {w}, not positive"
        if rhombic and w >= 1:
            return (f"rhombic R-symmetry weight of arrow {a} is {w}, not "
                    "below 1")
    return None
