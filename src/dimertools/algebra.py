"""The superpotential algebra, its lattice model, and bounded-degree checks.

A path in the quiver is remembered by four integers: endpoints, homology
offset and the count of reference-matching arrows.  These coordinates are
constant on F-term classes and embed the path algebra into a lattice
algebra; algebraic consistency asks that the embedding hits every lattice
point exactly once.  The same lattice bases drive the bounded-degree
exactness check of the Calabi-Yau complex.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .matchings import PerfectMatching, enumerate_matchings
from .rationallp import solve_lp
from .surface import (DimerError, Quiver, TorusGraph, Vec, fterm_relations,
                      vadd, vsub)
from .symmetry import default_r_symmetry


@dataclass(frozen=True)
class PathClass:
    """Coordinates of a path (or lattice element) in M: endpoints, homology
    offset, and pairing with the reference matching."""
    tail: int
    head: int
    hom: Vec
    deg: int

    def compose(self, other: "PathClass") -> "PathClass":
        if self.head != other.tail:
            raise DimerError("classes do not compose")
        return PathClass(self.tail, other.head, vadd(self.hom, other.hom),
                         self.deg + other.deg)


@dataclass
class AlgebraFailure:
    kind: str                     # "surjectivity" | "injectivity"
    cls: PathClass
    d: int
    detail: str


@dataclass
class AlgebraReport:
    ok: bool
    max_degree: int
    failures: list[AlgebraFailure]
    piece_stats: list[tuple[int, int, int, int, int]]  # i,j,d,#lattice,#cls


@dataclass
class Cy3Report:
    ok: bool
    max_degree: int
    failures: list[tuple[int, int, str]]          # (vertex, degree, reason)
    piece_stats: list[tuple[int, int, int, int, int, int, int]]
    # (j, d, dim1, dim2, dim3, rank2, rank3)


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank, col, ncols = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


class ToricData:
    """All lattice bookkeeping for one dimer model.

    Built from the torus graph; holds the quiver, the matchings, the
    grading and concrete base paths anchoring the M_ij coordinates.  The
    grading is always the default R-symmetry, the sum of all perfect
    matchings, so its degree `lam` is the number of matchings.
    """

    def __init__(self, g: TorusGraph, q: Optional[Quiver] = None) -> None:
        self.g = g
        self.q = q if q is not None else Quiver(g)
        self.matchings = enumerate_matchings(g, self.q)
        w = default_r_symmetry(self.matchings, self.q).integral()
        self.wts = [int(x) for x in w.weights]
        self.lam = int(w.degree)
        if any(x <= 0 for x in self.wts):
            raise DimerError("grading weights must be strictly positive")
        assert self.matchings[0].cls == (0, 0)
        self.pi0 = self.matchings[0].support
        # closed-class functionals: weight and matching evaluations factor
        # through (hom, deg) via the basis walks
        gx, gy = self.q.gamma_x, self.q.gamma_y
        dgx = sum(a in self.pi0 for a in gx)
        dgy = sum(a in self.pi0 for a in gy)
        self.rho = (sum(self.wts[a] for a in gx) - self.lam * dgx,
                    sum(self.wts[a] for a in gy) - self.lam * dgy)
        self._base: dict[tuple[int, int], tuple[int, ...]] = {}
        self._build_base_paths()
        self._beta_eval: dict[tuple[int, int], list[int]] = {}
        self._pts_cache: dict[tuple[int, int, int], list[PathClass]] = {}
        self._closure_cache: dict[tuple[int, ...], frozenset] = {}
        self._reports: dict[int, AlgebraReport] = {}
        self.rels = fterm_relations(self.q)
        # F-term substitutions, each relation read both ways
        self._subs = [s for _, plus, minus in self.rels
                      for s in ((plus, minus), (minus, plus))]

    # -- plumbing ---------------------------------------------------------

    def _build_base_paths(self) -> None:
        for i in range(self.q.n_vertices):
            seen = {i: ()}
            queue = deque([i])
            while queue:
                v = queue.popleft()
                for a in self.q.out_arrows[v]:
                    h = self.q.arrows[a].head
                    if h not in seen:
                        seen[h] = seen[v] + (a,)
                        queue.append(h)
            assert len(seen) == self.q.n_vertices, "quiver not connected"
            for j, p in seen.items():
                self._base[(i, j)] = p

    def path_class(self, arrows: Sequence[int],
                   at: Optional[int] = None) -> PathClass:
        """The class of a concrete path; `at` anchors an empty path."""
        if not arrows:
            if at is None:
                raise DimerError("empty path needs a vertex")
            return PathClass(at, at, (0, 0), 0)
        hom, deg = (0, 0), 0
        prev_head = self.q.arrows[arrows[0]].tail
        for a in arrows:
            arr = self.q.arrows[a]
            if arr.tail != prev_head:
                raise DimerError("arrows do not compose")
            prev_head = arr.head
            hom = vadd(hom, arr.offset)
            deg += a in self.pi0
        return PathClass(self.q.arrows[arrows[0]].tail, prev_head, hom, deg)

    def path_weight(self, arrows: Sequence[int]) -> int:
        return sum(self.wts[a] for a in arrows)

    def _beta(self, i: int, j: int) -> tuple[tuple[int, ...], PathClass]:
        p = self._base[(i, j)]
        return p, self.path_class(p, at=i)

    def _beta_evals(self, i: int, j: int) -> list[int]:
        key = (i, j)
        if key not in self._beta_eval:
            p = self._base[key]
            self._beta_eval[key] = [sum(a in m.support for a in p)
                                    for m in self.matchings]
        return self._beta_eval[key]

    # -- the lattice ------------------------------------------------------

    def weight(self, m: PathClass) -> int:
        _, b = self._beta(m.tail, m.head)
        z = vsub(m.hom, b.hom)
        num = (self.path_weight(self._base[(m.tail, m.head)])
               + self.lam * (m.deg - b.deg)
               + self.rho[0] * z[0] + self.rho[1] * z[1])
        return num

    def pm_eval(self, idx: int, m: PathClass) -> int:
        """Value of the idx-th enumerated matching on the class m."""
        _, b = self._beta(m.tail, m.head)
        z = vsub(m.hom, b.hom)
        c = self.matchings[idx].cls
        return (self._beta_evals(m.tail, m.head)[idx]
                + (m.deg - b.deg) + c[0] * z[0] + c[1] * z[1])

    def in_M_plus(self, m: PathClass) -> bool:
        return all(self.pm_eval(k, m) >= 0 for k in range(len(self.matchings)))

    def _piece(self, i: int, j: int, d: int) -> list[PathClass]:
        """All m in M_ij^+ of weight exactly d, by exact LP bounding box on
        the homology offset followed by integrality filtering."""
        key = (i, j, d)
        if key in self._pts_cache:
            return self._pts_cache[key]
        if d < 0:
            return []
        beta_arrows, b = self._beta(i, j)
        wb = self.path_weight(beta_arrows)
        evals = self._beta_evals(i, j)
        # constraint per matching k, in z = hom - hom(beta):
        #   lam*evals[k] + d - wb + (lam*c_k - rho) . z  >=  0
        cons = []
        for k, m in enumerate(self.matchings):
            cx = self.lam * m.cls[0] - self.rho[0]
            cy = self.lam * m.cls[1] - self.rho[1]
            cons.append((cx, cy, self.lam * evals[k] + d - wb))
        box = _bounding_box(cons)
        if box is None:
            self._pts_cache[key] = []
            return []
        (x0, x1), (y0, y1) = box
        out = []
        for zx in range(x0, x1 + 1):
            for zy in range(y0, y1 + 1):
                num = d - wb - self.rho[0] * zx - self.rho[1] * zy
                if num % self.lam:
                    continue
                m = PathClass(i, j, vadd(b.hom, (zx, zy)),
                              b.deg + num // self.lam)
                if self.in_M_plus(m):
                    assert self.weight(m) == d
                    out.append(m)
        out.sort(key=lambda m: (m.hom, m.deg))
        self._pts_cache[key] = out
        return out

    # -- F-term rewriting -------------------------------------------------

    def fterm_closure(self, path: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """All paths reachable by F-term substitutions."""
        start = tuple(path)
        if start in self._closure_cache:
            return self._closure_cache[start]
        seen = {start}
        queue = deque([start])
        cls = self.path_class(start) if start else None
        while queue:
            p = queue.popleft()
            for lhs, rhs in self._subs:
                n = len(lhs)
                for k in range(len(p) - n + 1):
                    if p[k:k + n] == lhs:
                        p2 = p[:k] + rhs + p[k + n:]
                        if p2 not in seen:
                            if cls is not None:
                                assert self.path_class(p2) == cls
                            seen.add(p2)
                            queue.append(p2)
        result = frozenset(seen)
        for p in result:
            self._closure_cache[p] = result
        return result

    def paths_from(self, i: int, max_weight: int) -> list[tuple[int, ...]]:
        """Every path out of vertex i of weight at most max_weight."""
        out_arrows = self.q.out_arrows
        results: list[tuple[int, ...]] = []
        stack: list[int] = []

        def rec(v: int, w: int) -> None:
            results.append(tuple(stack))
            for a in out_arrows[v]:
                w2 = w + self.wts[a]
                if w2 <= max_weight:
                    stack.append(a)
                    rec(self.q.arrows[a].head, w2)
                    stack.pop()

        rec(i, 0)
        return results

    # -- consistency ------------------------------------------------------

    def algebraic_consistency(self, max_degree: int) -> AlgebraReport:
        """Compare paths up to the degree bound with the lattice points.

        Surjectivity: every lattice point in every graded piece is the
        class of an actual path.  Injectivity: all paths with one class
        form a single F-term class.  The report is kept for `cy3_check`.
        """
        failures: list[AlgebraFailure] = []
        stats = []
        nv = self.q.n_vertices
        groups: dict[PathClass, list[tuple[int, ...]]] = {}
        for i in range(nv):
            for p in self.paths_from(i, max_degree):
                cls = self.path_class(p, at=i)
                groups.setdefault(cls, []).append(p)
        for cls in groups:
            assert self.in_M_plus(cls), "actual path outside M+"
        for i in range(nv):
            for j in range(nv):
                for d in range(max_degree + 1):
                    pts = self._piece(i, j, d)
                    ncls = 0
                    for m in pts:
                        reps = groups.get(m, [])
                        if not reps:
                            failures.append(AlgebraFailure(
                                "surjectivity", m, d,
                                "lattice point with no representative path"))
                            continue
                        ncls += 1
                        closure = self.fterm_closure(reps[0])
                        extra = set(reps) - set(closure)
                        if extra:
                            failures.append(AlgebraFailure(
                                "injectivity", m, d,
                                f"{len(reps)} paths split into several "
                                "F-term classes"))
                    stats.append((i, j, d, len(pts), ncls))
        report = AlgebraReport(not failures, max_degree, failures, stats)
        self._reports[max_degree] = report
        return report

    # -- extremal-avoiding paths -----------------------------------------

    def avoid_path(self, i: int, j: int, hom: Vec, pm: PerfectMatching,
                   window: Optional[int] = None
                   ) -> Optional[tuple[int, ...]]:
        """A path i -> j with the given homology offset avoiding a given
        (extremal) matching, searched on a covering window; None means not
        found in the window, never a disproof.  The default window is four
        times the longest zig-zag period."""
        if window is None:
            from .zigzag import zigzag_paths
            window = 4 * max(p.period for p in zigzag_paths(self.q))
        return self.q.covering_walk(i, j, hom, window, skip=pm.support)

    # -- the Calabi-Yau complex ------------------------------------------

    def cy3_check(self, max_degree: int) -> Cy3Report:
        """Bounded-degree exactness of the one-sided complex.

        Per target vertex and weight the three graded terms have bases
        indexed by (arrow or vertex, lattice point); the differentials act
        by splitting off the first arrow of the partner paths of each
        relation.  Exactness at the second and third terms is a rank
        condition over the rationals.  Reuses the algebraic consistency
        report of the same degree bound if one was computed.
        """
        pre = self._reports.get(max_degree)
        if pre is None:
            pre = self.algebraic_consistency(max_degree)
        if not pre.ok:
            raise DimerError("algebraic consistency fails up to degree "
                             f"{max_degree}: Calabi-Yau bases undefined")
        rel_of = {a: (plus, minus) for a, plus, minus in self.rels}
        failures: list[tuple[int, int, str]] = []
        stats = []
        for j in range(self.q.n_vertices):
            for d in range(max_degree + 1):
                basis1 = [(b.id, m) for b in self.q.arrows
                          for m in self._piece(b.head, j, d - self.wts[b.id])]
                basis2 = [(a.id, m) for a in self.q.arrows
                          for m in self._piece(
                              a.tail, j, d - (self.lam - self.wts[a.id]))]
                basis3 = [(v, m) for v in range(self.q.n_vertices)
                          for m in self._piece(v, j, d - self.lam)]
                idx1 = {key: n for n, key in enumerate(basis1)}
                idx2 = {key: n for n, key in enumerate(basis2)}

                def col2(a: int, m: PathClass) -> dict[int, int]:
                    out: dict[int, int] = {}
                    for sign, p in ((1, rel_of[a][0]), (-1, rel_of[a][1])):
                        b = p[0]
                        rest = self.path_class(
                            p[1:], at=self.q.arrows[b].head)
                        key = (b, rest.compose(m))
                        n = idx1[key]
                        out[n] = out.get(n, 0) + sign
                    return {k: v for k, v in out.items() if v}

                def col3(v: int, m: PathClass) -> dict[int, int]:
                    out: dict[int, int] = {}
                    for b in self.q.arrows:
                        if b.head != v:
                            continue
                        key = (b.id, self.path_class([b.id]).compose(m))
                        n = idx2[key]
                        out[n] = out.get(n, 0) - 1
                    return {k: v for k, v in out.items() if v}

                f2 = [col2(a, m) for a, m in basis2]
                f3 = [col3(v, m) for v, m in basis3]
                # composite F2 o F3 must vanish
                for c3 in f3:
                    acc: dict[int, int] = {}
                    for n2, coef in c3.items():
                        for n1, coef2 in f2[n2].items():
                            acc[n1] = acc.get(n1, 0) + coef * coef2
                    if any(acc.values()):
                        failures.append((j, d, "composite not zero"))
                        break
                r2 = _rank([[Fraction(c.get(n, 0)) for n in
                             range(len(basis1))] for c in f2])
                r3 = _rank([[Fraction(c.get(n, 0)) for n in
                             range(len(basis2))] for c in f3])
                if r3 != len(basis3):
                    failures.append((j, d, "third differential not injective"))
                if r2 + r3 != len(basis2):
                    failures.append((j, d, "complex not exact at second term"))
                stats.append((j, d, len(basis1), len(basis2), len(basis3),
                              r2, r3))
        return Cy3Report(not failures, max_degree, failures, stats)

    # -- the center -------------------------------------------------------

    def closed_points(self, max_weight: int) -> list[PathClass]:
        """All elements of M_o^+ (closed classes nonnegative on every
        matching) of weight at most max_weight."""
        # A closed class (h, dd) needs dd + c_k.h >= 0 for every matching k
        # and 0 <= lam*dd + rho.h <= max_weight.  Eliminating dd leaves
        # (lam*c_k - rho).h + max_weight >= 0 on the homology offset h.
        box = _bounding_box([(self.lam * m.cls[0] - self.rho[0],
                              self.lam * m.cls[1] - self.rho[1], max_weight)
                             for m in self.matchings])
        if box is None:
            return []
        (x0, x1), (y0, y1) = box
        out = []
        for hx in range(x0, x1 + 1):
            for hy in range(y0, y1 + 1):
                lo = max(-(m.cls[0] * hx + m.cls[1] * hy)
                         for m in self.matchings)
                num_hi = max_weight - self.rho[0] * hx - self.rho[1] * hy
                hi = num_hi // self.lam
                for dd in range(lo, hi + 1):
                    w = self.lam * dd + self.rho[0] * hx + self.rho[1] * hy
                    if 0 <= w <= max_weight:
                        if (hx, hy, dd) != (0, 0, 0):
                            assert w > 0, "nonzero closed class of weight 0"
                        out.append(PathClass(0, 0, (hx, hy), dd))
        return out

    def center_generators(self, max_weight: int) -> list[PathClass]:
        """Closed lattice points that are not sums of two smaller nonzero
        ones; a bounded approximation of the Hilbert basis."""
        pts = [m for m in self.closed_points(max_weight)
               if (m.hom, m.deg) != ((0, 0), 0)]
        index = {(m.hom, m.deg) for m in pts}
        gens = []
        for m in pts:
            decomposable = False
            for m1 in pts:
                rest = (vsub(m.hom, m1.hom), m.deg - m1.deg)
                if rest != ((0, 0), 0) and (m1.hom, m1.deg) != (m.hom, m.deg) \
                        and rest in index:
                    decomposable = True
                    break
            if not decomposable:
                gens.append(m)
        gens.sort(key=lambda m: (self.weight(m), m.hom, m.deg))
        return gens


def _bounding_box(cons: list[tuple[int, int, int]]
                  ) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """Integer bounding box of {z : ax*zx + ay*zy + b >= 0 for all rows},
    or None if empty.  Raises if the region is unbounded."""
    a_ub = [[-ax, ax, -ay, ay] for ax, ay, _ in cons]
    b_ub = [b for _, _, b in cons]
    vals = []
    for c in ([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]):
        res = solve_lp(c, [], [], a_ub, b_ub)
        if res.status == "infeasible":
            return None
        if res.status != "optimal":
            raise DimerError("graded piece unbounded; grading not positive "
                             "definite on this model")
        vals.append(res.objective)
    xmax, xminneg, ymax, yminneg = vals
    x0 = math.ceil(-xminneg)
    x1 = math.floor(xmax)
    y0 = math.ceil(-yminneg)
    y1 = math.floor(ymax)
    if x0 > x1 or y0 > y1:
        return None
    return (x0, x1), (y0, y1)
