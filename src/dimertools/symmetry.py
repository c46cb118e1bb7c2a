"""Weight functions on arrows and exact feasibility of symmetry conditions.

A weight function R on the arrows whose coboundary is the same number on
every quiver face plays the role of a grading.  An R-symmetry has all
weights strictly positive; it is anomaly-free when additionally, at every
quiver vertex v,

    sum over arrows at v of R_a  =  deg(R) * (|H_v| - 1),

where H_v is the set of incoming arrows.  All feasibility questions are
decided by exact rational LP with slack maximization, so a strict
inequality holds iff the optimum is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .matchings import PerfectMatching
from .rationallp import solve_lp
from .surface import DimerError, Quiver


@dataclass(frozen=True)
class WeightFunction:
    weights: tuple[Fraction, ...]    # indexed by arrow id
    degree: Fraction

    def __getitem__(self, arrow: int) -> Fraction:
        return self.weights[arrow]

    def integral(self) -> "WeightFunction":
        """Clear denominators to the least integral multiple."""
        mult = lcm(*[w.denominator for w in self.weights + (self.degree,)])
        return WeightFunction(tuple(w * mult for w in self.weights),
                              self.degree * mult)

    def check(self, q: Quiver) -> bool:
        return all(sum(self.weights[a] for a in f.boundary) == self.degree
                   for f in q.faces)


def euler_check(q: Quiver) -> bool:
    return q.n_vertices - q.n_arrows + len(q.faces) == 0


def default_r_symmetry(matchings: Sequence[PerfectMatching], q: Quiver
                       ) -> WeightFunction:
    """The sum of all perfect matchings, an integral R-symmetry whenever the
    model is non-degenerate."""
    weights = [Fraction(0)] * q.n_arrows
    for m in matchings:
        for a in m.support:
            weights[a] += 1
    wf = WeightFunction(tuple(weights), Fraction(len(matchings)))
    if not matchings or any(w == 0 for w in weights):
        raise DimerError("no R-symmetry from matchings: model is degenerate")
    assert wf.check(q)
    return wf


def _vertex_stars(q: Quiver) -> list[tuple[list[int], int]]:
    """Per quiver vertex: arrows incident to it (head or tail) and |H_v|."""
    stars = []
    for v in range(q.n_vertices):
        inc = [a.id for a in q.arrows if a.head == v]
        out = [a.id for a in q.arrows if a.tail == v]
        stars.append((inc + out, len(inc)))
    return stars


def find_anomaly_free(q: Quiver) -> Optional[WeightFunction]:
    """An anomaly-free R-symmetry normalized to degree 2, or None.

    Solves: coboundary = 2 on every face, vertex anomaly equations, all
    weights positive; among solutions the minimum weight is maximized.
    """
    if not euler_check(q):
        return None
    return _solve_weights(q, rhombic=False)


def find_rhombic(q: Quiver) -> Optional[WeightFunction]:
    """An anomaly-free solution with every weight in the open interval
    (0,1); weights times pi are then rhombus angles."""
    if not euler_check(q):
        return None
    return _solve_weights(q, rhombic=True)


def _solve_weights(q: Quiver, rhombic: bool) -> Optional[WeightFunction]:
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
    assert wf.check(q)
    return wf

