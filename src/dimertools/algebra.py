"""The superpotential algebra, its lattice model, and bounded-degree checks.

A path in the quiver is remembered by four integers: endpoints, homology
offset and the count of reference-matching arrows.  These coordinates are
constant on F-term classes and embed the path algebra into a lattice
algebra; algebraic consistency asks that the embedding hits every lattice
point exactly once.  It is checked per lattice point, in order of weight:
the paths and F-term classes of a point are counted from those of lighter
points, and no path is listed.  The Calabi-Yau complex is checked per
lattice point too: its differentials keep the class, so it splits into
one summand per point: a graph on the out-arrows of the point's tail,
with one edge per F-term relation, whose ranks are read from components.
Both kernels key a lattice point by one int, its coordinates as digits of
a radix large enough for every lookup, and an arrow, a relation side or
the face cycle acts on keys by adding or subtracting its delta.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .matchings import edge_mask, enumerate_matchings
# not called here; perfbench/spans.py traces `algebra.solve_lp` by name
from .rationallp import solve_lp  # noqa: F401
from .surface import (DimerError, Quiver, TorusGraph, Vec, fterm_relations,
                      vadd, vsub)
from .symmetry import default_r_symmetry

# per lattice point key: paths, F-term classes, offset of each first arrow
# in the flat list of pairs, F-class of each pair
_Reached = dict[int, tuple[int, int, dict[int, int], tuple[int, ...]]]


@dataclass(frozen=True)
class PathClass:
    """Coordinates of a path (or lattice element) in M: endpoints, homology
    offset, and pairing with the reference matching."""
    tail: int
    head: int
    hom: Vec
    deg: int


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


# not called here; perfbench/spans.py traces it by name, tests' oracles use it
def _rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of a matrix given as rows of `int`s.

    Fraction-free forward elimination: a row is cleared below each pivot
    by an integer combination with the pivot row and divided by the gcd
    of its entries, so entries stay small and no `Fraction` is built."""
    rows = [r for r in rows if any(r)]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        for r in range(rank + 1, len(rows)):
            line = rows[r]
            lc = line[col]
            if lc:
                new = [x * p for x in line]
                for j, y in nonzero:
                    new[j] -= lc * y
                g = math.gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
        rank += 1
        if rank == len(rows):
            break
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
        if self.matchings[0].cls != (0, 0):
            raise DimerError("first perfect matching is not the reference "
                             "matching of class (0, 0)")
        self.pi0 = self.matchings[0].support
        # the matchings' bits per class, read by _class_table
        self._bits_by_cls: dict[Vec, list[int]] = {}
        for m in self.matchings:
            self._bits_by_cls.setdefault(m.cls, []).append(m.bits)
        # closed-class functionals: weight and matching evaluations factor
        # through (hom, deg) via the basis walks
        gx, gy = self.q.gamma_x, self.q.gamma_y
        dgx = sum(a in self.pi0 for a in gx)
        dgy = sum(a in self.pi0 for a in gy)
        self.rho = (sum(self.wts[a] for a in gx) - self.lam * dgx,
                    sum(self.wts[a] for a in gy) - self.lam * dgy)
        # base path beta_ij per vertex pair, with its class
        self._base: dict[tuple[int, int],
                         tuple[tuple[int, ...], PathClass]] = {}
        self._build_base_paths()
        self._pieces_cache: dict[tuple[int, int], list[list[PathClass]]] = {}
        self._points_cache: dict[int, tuple[int, list[Sequence[int]]]] = {}
        self._reports: dict[int, AlgebraReport] = {}
        # the F-term relation p_a^+ = p_a^- of each arrow a
        self.rels = {a: (plus, minus)
                     for a, plus, minus in fterm_relations(self.q)}
        for a, (plus, minus) in self.rels.items():
            if self.path_class(plus) != self.path_class(minus):
                raise DimerError(f"F-term relation of arrow {a} joins paths "
                                 "of different classes")

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
            if len(seen) != self.q.n_vertices:
                raise DimerError("quiver not connected")
            for j, p in seen.items():
                self._base[(i, j)] = (p, self.path_class(p, at=i))

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

    # -- the lattice ------------------------------------------------------

    def weight(self, m: PathClass) -> int:
        p, b = self._base[(m.tail, m.head)]
        z = vsub(m.hom, b.hom)
        return (self.path_weight(p) + self.lam * (m.deg - b.deg)
                + self.rho[0] * z[0] + self.rho[1] * z[1])

    def _class_table(self, beta: Sequence[int]) -> dict[Vec, int]:
        """Class c -> the least number of arrows of beta in a matching of
        class c, by popcount; beta must not repeat an arrow."""
        mask = edge_mask(beta)
        if mask.bit_count() != len(beta):
            raise DimerError(f"base path {list(beta)} repeats an arrow")
        return {c: min(map(int.bit_count, map(mask.__and__, bits)))
                for c, bits in self._bits_by_cls.items()}

    def _pieces(self, i: int, j: int,
                max_weight: int) -> list[list[PathClass]]:
        """M_ij^+ up to max_weight: entry d lists the elements of weight d
        in (hom, deg) order.

        In z = hom - hom(beta) and e = deg - deg(beta) a matching of class c
        pairs to its value on beta plus e + c.z, so the matchings of class c
        ask e >= -(low[c] + c.z), low[c] being their least value on beta.
        The weight wb + lam*e + rho.z is the sum of all these pairings and
        never negative; eliminating e from weight <= max_weight leaves one
        row per class on z, whose integer points `_columns` lists as
        column ranges.
        """
        key = (i, j)
        if len(self._pieces_cache.get(key, ())) <= max_weight:
            beta, b = self._base[key]
            wb = self.path_weight(beta)
            low = self._class_table(beta)
            out: list[list[PathClass]] = [[] for _ in range(max_weight + 1)]
            for zx, y0, y1 in _columns([(self.lam * c[0] - self.rho[0],
                                         self.lam * c[1] - self.rho[1],
                                         self.lam * lc + max_weight - wb)
                                        for c, lc in low.items()]):
                for zy in range(y0, y1 + 1):
                    w0 = wb + self.rho[0] * zx + self.rho[1] * zy
                    e0 = max(-(lc + c[0] * zx + c[1] * zy)
                             for c, lc in low.items())
                    hom = vadd(b.hom, (zx, zy))
                    for e in range(e0, (max_weight - w0) // self.lam + 1):
                        out[w0 + self.lam * e].append(
                            PathClass(i, j, hom, b.deg + e))
            self._pieces_cache[key] = out
        return self._pieces_cache[key][:max_weight + 1]

    # -- F-term rewriting -------------------------------------------------

    def fterm_closure(self, path: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """All paths reachable by F-term rewrites; computed afresh on every
        call, not cached.  Each relation was checked to keep the path class
        when this object was built, so the closure lies in one class."""
        # each relation read both ways is a rewrite, filed by first arrow
        rewrites: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
        for plus, minus in self.rels.values():
            for lhs, rhs in ((plus, minus), (minus, plus)):
                rewrites.setdefault(lhs[0], []).append((lhs, rhs))
        start = tuple(path)
        seen = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for k, a in enumerate(p):
                for lhs, rhs in rewrites[a]:
                    if p[k:k + len(lhs)] == lhs:
                        p2 = p[:k] + rhs + p[k + len(lhs):]
                        if p2 not in seen:
                            seen.add(p2)
                            queue.append(p2)
        return frozenset(seen)

    def paths_from(self, i: int, max_weight: int
                   ) -> list[tuple[tuple[int, ...], PathClass]]:
        """Every path out of vertex i of weight at most max_weight, as
        (arrow ids, class) pairs, depth first; paths of one class share one
        `PathClass`."""
        arrows, pi0 = self.q.arrows, self.pi0
        # per vertex, its out-arrows in reverse, so the first pops first
        steps = [[(a, self.wts[a], arrows[a].head, *arrows[a].offset,
                   a in pi0) for a in reversed(out)]
                 for out in self.q.out_arrows]
        results: list[tuple[tuple[int, ...], PathClass]] = []
        classes: dict[tuple[int, int, int, int], PathClass] = {}
        todo = [((), i, 0, 0, 0, 0)]
        while todo:
            path, v, w, hx, hy, deg = todo.pop()
            key = (v, hx, hy, deg)
            cls = classes.get(key)
            if cls is None:
                cls = classes[key] = PathClass(i, v, (hx, hy), deg)
            results.append((path, cls))
            for a, wa, head, ox, oy, in0 in steps[v]:
                if w + wa <= max_weight:
                    todo.append((path + (a,), head, w + wa, hx + ox, hy + oy,
                                 deg + in0))
        return results

    # -- consistency ------------------------------------------------------

    def _radix(self, points: Iterable[PathClass]) -> int:
        """The radix R of the keys of `points`, the lattice points of the
        graded pieces of every vertex pair up to a degree.

        A point m is keyed ((deg*R + hx)*R + hy)*nv^2 + head*nv + tail
        (`_keys`), and prepending an arrow x of class (in_pi0, ox, oy) to a
        path adds D[x] = ((in_pi0*R + ox)*R + oy)*nv^2 + tail(x) - head(x)
        (`_deltas`).  The kernels look up m - x for an arrow, a relation
        side or the face cycle x starting at m's tail, whose delta is the
        sum of its arrows' deltas (R^2*nv^2 for the face cycle, which is
        null-homologous and meets the reference matching once).  Let B be
        the largest |hx| or |hy| of a point, and E the largest offset
        component of an arrow, a relation side or the face cycle.  Then
        R = 2(B + E) + 1 keeps the hom of every such m - x, in M^+ or
        not, a pair of balanced digits, |hx - ox| <= B + E = (R - 1)/2,
        and its low part head(m)*nv + head(x) in [0, nv^2).  So a key is
        read back digit by digit, deg being the unbounded top digit, and
        distinct coordinates have distinct keys.
        """
        b = max(map(abs, chain.from_iterable(map(attrgetter("hom"),
                                                 points))), default=0)
        offsets = [a.offset for a in self.q.arrows] + [
            self.path_class(plus).hom for plus, _ in self.rels.values()]
        e = max(abs(c) for x in offsets for c in x)
        return 2 * (b + e) + 1

    def _deltas(self, r: int) -> list[int]:
        """Per arrow x, D[x]: the key of x.p less that of p at radix r."""
        nv2 = self.q.n_vertices ** 2
        return [(((a.id in self.pi0) * r + a.offset[0]) * r + a.offset[1])
                * nv2 + a.tail - a.head for a in self.q.arrows]

    def _points(self, max_degree: int) -> tuple[int, list[Sequence[int]]]:
        """The radix R of `_radix` and, per weight d up to max_degree, the
        keys (`_keys`) at radix R of the lattice points of weight d of the
        pieces M_ij^+, pair by pair in order of (i, j).  Kept per degree
        bound, so the kernels of one bound key each point once."""
        if max_degree not in self._points_cache:
            nv = self.q.n_vertices
            by_weight: list[list[PathClass]] = [
                [] for _ in range(max_degree + 1)]
            for i in range(nv):
                for j in range(nv):
                    for d, pts in enumerate(self._pieces(i, j, max_degree)):
                        by_weight[d] += pts
            r = self._radix(chain.from_iterable(by_weight))
            self._points_cache[max_degree] = (r, _keys(by_weight, r, nv))
        return self._points_cache[max_degree]

    def _fterm_classes(self, max_degree: int) -> _Reached:
        """Per lattice point up to max_degree that some path reaches, keyed
        as in `_points`: its number of paths, its number of F-term classes,
        the offset of each first arrow a in its flat list of pairs, and the
        F-class of each pair.

        The points are visited in order of weight, which every arrow
        raises.  A path of class m is an arrow a out of m's tail followed
        by a path of class m - a, so the F-classes of m are the pairs
        (a, F-class of m - a) up to rewrites at position 0; the pair (a, c)
        sits at the offset of a plus c.  A rewrite a.u -> b.v glues (a,
        [u.w]) to (b, [v.w]) in a union-find for every F-class [w] of m -
        class(a.u); [u.w] is read from finished points by prepending the
        arrows of u one at a time, adding each one's delta to the key.  A
        rewrite further right changes only the tail, whose F-class is
        already the pair's second entry.  Gluing is symmetric, so each
        relation is read one way; a point with one pair is one class, and
        gluing stops once all pairs are.  No path is listed.
        """
        nv = self.q.n_vertices
        r, by_weight = self._points(max_degree)
        delta = self._deltas(r)
        steps = [[(a, delta[a]) for a in out] for out in self.q.out_arrows]
        # per tail, each relation a.u = b.v as (delta, a, u reversed with
        # deltas, b, v reversed with deltas)
        glue: list[list[tuple]] = [[] for _ in range(nv)]
        for plus, minus in self.rels.values():
            glue[self.q.arrows[plus[0]].tail].append(
                (sum(delta[x] for x in plus),
                 plus[0], [(x, delta[x]) for x in plus[:0:-1]],
                 minus[0], [(x, delta[x]) for x in minus[:0:-1]]))
        empty = {i * (nv + 1) for i in range(nv)}
        reached: _Reached = {}

        def prepend(u: list[tuple[int, int]], p: int, c: int) -> int:
            """The F-class of u.w, for w of F-class c at point p."""
            for x, dx in u:
                p += dx
                _, _, base, flat = reached[p]
                c = flat[base[x] + c]
            return c

        for keys in by_weight:
            for k in keys:
                if k in empty:
                    reached[k] = (1, 1, {}, ())
                    continue
                i = k % nv
                base: dict[int, int] = {}
                n = size = 0
                for a, da in steps[i]:
                    rest = reached.get(k - da)
                    if rest:
                        n += rest[0]
                        base[a] = size
                        size += rest[1]
                if size == 1:
                    reached[k] = (n, 1, base, (0,))
                    continue
                if not size:
                    continue
                parent = list(range(size))
                ncls = size
                for dp, a0, u, b0, v in glue[i]:
                    p = k - dp
                    for c in range(reached[p][1] if p in reached else 0):
                        x = _find(parent, base[a0] + prepend(u, p, c))
                        y = _find(parent, base[b0] + prepend(v, p, c))
                        if x != y:
                            parent[x] = y
                            ncls -= 1
                    if ncls == 1:
                        break
                if ncls == 1:
                    flat = (0,) * size
                else:
                    roots: dict[int, int] = {}
                    flat = tuple([roots.setdefault(_find(parent, x),
                                                   len(roots))
                                  for x in range(size)])
                reached[k] = (n, ncls, base, flat)
        return reached

    def algebraic_consistency(self, max_degree: int) -> AlgebraReport:
        """Compare path classes up to the degree bound with the lattice
        points, one lattice point at a time.

        Surjectivity: every lattice point in every graded piece is the
        class of an actual path.  Injectivity: all paths with one class
        form a single F-term class.  Both are read from `_fterm_classes`,
        which counts the paths and F-term classes of each point from those
        of lighter points and lists no path.  Every path class lies in
        M^+, since a matching's value on a path counts the path's arrows
        in it.  The report is kept for `cy3_check`.
        """
        failures: list[AlgebraFailure] = []
        stats = []
        nv = self.q.n_vertices
        reached = self._fterm_classes(max_degree)
        # each weight's keys, taken piece by piece in the order of _points
        keys = [iter(ks) for ks in self._points(max_degree)[1]]
        for i in range(nv):
            for j in range(nv):
                for d, pts in enumerate(self._pieces(i, j, max_degree)):
                    ncls = 0
                    # no zip for an empty piece: most are, at high degree
                    for m, k in zip(pts, keys[d]) if pts else ():
                        r = reached.get(k)
                        if r is None:
                            failures.append(AlgebraFailure(
                                "surjectivity", m, d,
                                "lattice point with no representative path"))
                            continue
                        ncls += 1
                        if r[1] > 1:
                            failures.append(AlgebraFailure(
                                "injectivity", m, d,
                                f"{r[0]} paths split into several "
                                "F-term classes"))
                    stats.append((i, j, d, len(pts), ncls))
        report = AlgebraReport(not failures, max_degree, failures, stats)
        self._reports[max_degree] = report
        return report

    # -- the Calabi-Yau complex ------------------------------------------

    def cy3_check(self, max_degree: int) -> Cy3Report:
        """Bounded-degree exactness of the one-sided complex.

        Per target vertex j and weight d the three terms have bases of
        pairs (x, m), m a lattice point, of class c(x).m: c(x) is the class
        of the arrow b in the first term, of the relation side p_a^+ in the
        second and of the face cycle w in the third.  The differentials
        split off the first arrow of the partner paths of each relation and
        keep the class, so the complex is a sum of one summand per point t
        of M_ij^+ of weight d, over all i; dims and ranks add up per
        (j, d).  A summand is a graph.  Its vertices, the columns of d2,
        are the out-arrows b of i with t - b in M^+.  Each in-arrow a of i
        with t - p_a^+ in M^+ is an edge, the row e_b+ - e_b- of d2 between
        the first arrows b+- of p_a^+-, both columns as t - b+- lies in
        (t - p_a^+) + M^+.  d3 has one row if t - w is in M^+, and then
        every in-arrow a is an edge, as t - p_a^+ = (t - w) + a; the row is
        -1 on each, of rank 1 as every quiver vertex lies on a face cycle.
        A signed incidence matrix of a graph with n vertices and c
        components (isolated ones included) has rank n - c, a loop being a
        zero row, and F2 o F3 = 0 iff each column is b+ as often as b-.  So
        exactness is read from counts, with no matrix.  Points are keyed by
        one int (`_points`), so t - b, t - p_a^+ and t - w are subtractions
        of deltas.  Reuses the algebraic consistency report of the same
        degree bound if any.
        """
        pre = self._reports.get(max_degree)
        if pre is None:
            pre = self.algebraic_consistency(max_degree)
        if not pre.ok:
            raise DimerError("algebraic consistency fails up to degree "
                             f"{max_degree}: Calabi-Yau bases undefined")
        failures: list[tuple[int, int, str]] = []
        stats = []
        nv = self.q.n_vertices
        r, by_weight = self._points(max_degree)
        in_plus = set(chain.from_iterable(by_weight))
        # into[j][d]: the keys of the points of weight d with head j
        into: list[list[list[int]]] = [[[] for _ in by_weight]
                                       for _ in range(nv)]
        for d, ts in enumerate(by_weight):
            for t in ts:
                into[t // nv % nv][d].append(t)
        delta = self._deltas(r)
        outs = [[(b, delta[b]) for b in out] for out in self.q.out_arrows]
        # per in-arrow a, the delta of p_a^+ and the first arrows of p_a^+-
        ins = [[(sum(delta[x] for x in self.rels[a][0]),
                 self.rels[a][0][0], self.rels[a][1][0]) for a in arrows]
               for arrows in self.q.in_arrows]
        # the face cycle: null-homologous (Quiver checks every face) and
        # meeting the reference matching once
        d_w = r * r * nv * nv
        for j in range(nv):
            for d in range(max_degree + 1):
                dim1 = dim2 = dim3 = r2 = 0
                composite_zero = True
                for t in into[j][d]:
                    i = t % nv
                    col_of: dict[int, int] = {}
                    for b, db in outs[i]:
                        if t - db in in_plus:
                            col_of[b] = len(col_of)
                    parent = list(range(len(col_of)))
                    # per column, how often it is b+ less how often b-
                    excess = [0] * len(col_of)
                    for dp, b_plus, b_minus in ins[i]:
                        if t - dp in in_plus:
                            x, y = col_of[b_plus], col_of[b_minus]
                            excess[x] += 1
                            excess[y] -= 1
                            dim2 += 1
                            # each union of two components adds 1 to
                            # the rank
                            x, y = _find(parent, x), _find(parent, y)
                            if x != y:
                                parent[x] = y
                                r2 += 1
                    if t - d_w in in_plus:
                        dim3 += 1
                        composite_zero &= not any(excess)
                    dim1 += len(col_of)
                if not composite_zero:
                    failures.append((j, d, "composite not zero"))
                if r2 + dim3 != dim2:
                    failures.append((j, d, "complex not exact at second term"))
                stats.append((j, d, dim1, dim2, dim3, r2, dim3))
        return Cy3Report(not failures, max_degree, failures, stats)

    # -- the center -------------------------------------------------------

    def center_generators(self, max_weight: int) -> list[PathClass]:
        """Closed lattice points that are not sums of two smaller nonzero
        ones, in order of (weight, hom, deg); a bounded approximation of
        the Hilbert basis.

        Visited in order of weight, positive off zero as the pieces are
        bounded, a point m is a sum iff m - g is a point for an earlier
        generator g.  For if m = m1 + m2, then m1 = g + s with g a
        generator and s zero or a point (induction on weight), so m - g =
        s + m2 is a point lighter than m, as is g; m = g + (m - g) is the
        converse."""
        pieces = self._pieces(0, 0, max_weight)[1:]
        index = {(m.hom, m.deg) for piece in pieces for m in piece}
        gens: list[PathClass] = []
        for piece in pieces:
            for m in piece:
                if not any((vsub(m.hom, g.hom), m.deg - g.deg) in index
                           for g in gens):
                    gens.append(m)
        return gens


def _keys(pieces: Sequence[Sequence[PathClass]], r: int, nv: int
          ) -> list[Sequence[int]]:
    """The keys of the lattice points of each piece at radix r
    (`ToricData._radix`) in a quiver of nv vertices."""
    nv2 = nv * nv
    # most pieces are empty at high degree; they share one empty tuple, as
    # a list apiece costs allocation and garbage collection
    return [[((m.deg * r + m.hom[0]) * r + m.hom[1]) * nv2 + m.head * nv
             + m.tail for m in piece] if piece else () for piece in pieces]


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _columns(cons: list[tuple[int, int, int]]
             ) -> list[tuple[int, int, int]]:
    """Integer points of {z : ax*zx + ay*zy + b >= 0 for all rows} as
    columns (zx, least zy, greatest zy) in order of zx, or none if the
    region is empty; raises if it is nonempty and unbounded.  The x-range
    comes from eliminating zy (Fourier-Motzkin: the ay == 0 rows, and each
    lower ay > 0 row plus each upper ay < 0 row with zy cancelled), as the
    integer ceiling of its lower and floor of its upper bounds."""
    lower = [r for r in cons if r[1] > 0]
    upper = [r for r in cons if r[1] < 0]
    xrows = [(ax, b) for ax, ay, b in cons if ay == 0]
    xrows += [(-uy * lx + ly * ux, -uy * lb + ly * ub)
              for lx, ly, lb in lower for ux, uy, ub in upper]
    lo = max((-(b // ax) for ax, b in xrows if ax > 0), default=None)
    hi = min((b // -ax for ax, b in xrows if ax < 0), default=None)
    if any(ax == 0 and b < 0 for ax, b in xrows):
        return []
    if lo is None or hi is None or not lower or not upper:
        # empty (not unbounded) iff two bounds on zx cross over the reals
        if lo is not None and hi is not None and lo > hi and any(
                px * nb < nx * pb for px, pb in xrows if px > 0
                for nx, nb in xrows if nx < 0):
            return []
        raise DimerError("graded piece unbounded; grading not positive "
                         "definite on this model")
    return [(zx, max(-((ax * zx + b) // ay) for ax, ay, b in lower),
             min((ax * zx + b) // -ay for ax, ay, b in upper))
            for zx in range(lo, hi + 1)]
