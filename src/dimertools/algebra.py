"""The superpotential algebra, its lattice model, and bounded-degree checks.

A path in the quiver is remembered by four integers: endpoints, homology
offset and the count of reference-matching arrows.  These coordinates are
constant on F-term classes and embed the path algebra into a lattice
algebra; algebraic consistency asks that the embedding hits every lattice
point exactly once.  It is checked per lattice point, in order of weight:
the paths and F-term classes of a point are counted from those of lighter
points, and no path is listed; a point's classes are mostly read from the
rank of the relations of its tail that fit below it, as they lie on one
cycle (`fterm_relations`).  The Calabi-Yau complex splits into one
summand per lattice point, whose ranks a passing consistency report
fixes, so its exactness is an identity on the report's lattice counts,
with no point visited.  The kernels key a lattice point by one int, its
coordinates as digits of a radix large enough for every lookup, and an
arrow, a relation side or the face cycle acts on keys by adding or
subtracting its delta.  Keys are listed from columns of fixed homology
offset, as arithmetic progressions, and no `PathClass` is built but for a
failure record.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate, chain, groupby
from operator import add, attrgetter
from typing import NamedTuple, Optional, Sequence

from .matchings import byte_planes, edge_mask, enumerate_matchings
# not called here; perfbench/spans.py traces `algebra.solve_lp` by name
from .rationallp import solve_lp  # noqa: F401
from .surface import (DimerError, Quiver, TorusGraph, Vec, fterm_relations,
                      vadd, vsub)
from .symmetry import default_r_symmetry


class PathClass(NamedTuple):
    """Coordinates of a path (or lattice element) in M: endpoints, homology
    offset, and pairing with the reference matching."""
    tail: int
    head: int
    hom: Vec
    deg: int


class AlgebraFailure(NamedTuple):
    kind: str                     # "surjectivity" | "injectivity"
    cls: PathClass
    d: int
    detail: str


class AlgebraReport(NamedTuple):
    ok: bool
    max_degree: int
    failures: list[AlgebraFailure]
    piece_stats: list[tuple[int, int, int, int, int]]  # i,j,d,#lattice,#cls


class Cy3Report(NamedTuple):
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
    matchings, so its degree `lam` is the number of matchings, and on a
    closed path of class z and degree deg it is lam*deg + rho.z, `rho`
    being the sum of the matchings' classes.  For the class tables of the
    base paths it holds the matchings' byte planes (`byte_planes`), one
    int per arrow whose byte k is 1 iff the k-th matching holds the arrow,
    and each class's range of bytes, as each class is contiguous.  The
    first matching is the reference matching pi0, of class (0, 0), as
    `enumerate_matchings` takes every class against it.
    """

    def __init__(self, g: TorusGraph, q: Optional[Quiver] = None) -> None:
        self.q = q if q is not None else Quiver(g)
        self.matchings = enumerate_matchings(g, self.q)
        # int weights, each the number of matchings holding its arrow, and
        # all positive: default_r_symmetry refuses 0
        self.wts, self.lam = default_r_symmetry(self.matchings, self.q)
        self.pi0 = self.matchings[0].support
        # read by _class_table: each class's range of the list, whose
        # classes are contiguous, and per arrow its byte plane over it
        runs = [(c, len(list(run))) for c, run in
                groupby(map(attrgetter("cls"), self.matchings))]
        self._ranges = [(c, end - k, end) for (c, k), end in
                        zip(runs, accumulate(k for _, k in runs))]
        self._planes = byte_planes(list(map(attrgetter("bits"),
                                            self.matchings)), self.q.n_arrows)
        # the weight's closed-class part: on a closed path of class z and
        # degree deg each matching of class c counts deg + c.z, so the
        # weight is lam*deg + rho.z with rho the sum of the classes
        self.rho = tuple(sum(c[i] * k for c, k in runs) for i in (0, 1))
        # base path beta_ij per vertex pair, with its class
        self._base: dict[tuple[int, int],
                         tuple[tuple[int, ...], PathClass]] = {}
        self._build_base_paths()
        self._points_cache: dict[int, tuple[int, list[list[int]]]] = {}
        self._reports: dict[int, AlgebraReport] = {}
        # the F-term relation p_a^+ = p_a^- of each arrow a
        self.rels = {a: (plus, minus)
                     for a, plus, minus in fterm_relations(self.q)}

    # -- plumbing ---------------------------------------------------------

    def _build_base_paths(self) -> None:
        """A breadth-first path beta_ij from every i to every j.  Each j
        is reached: the dimer graph is connected and every arrow lies on a
        face cycle, so the quiver is strongly connected."""
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
        class c; beta must not repeat an arrow, nor have more than 255.

        The byte planes of beta's arrows add up to one byte per matching,
        its count, since no byte exceeds |beta| <= 255 and none carries;
        a class's least byte is the least v that `bytes.find` finds in the
        class's range.  Base paths are breadth-first, so shorter than
        |Q0|."""
        if len(beta) > 255:
            raise DimerError(f"base path of {len(beta)} arrows: a class "
                             "table counts at most 255 per matching")
        if edge_mask(beta).bit_count() != len(beta):
            raise DimerError(f"base path {list(beta)} repeats an arrow")
        counts = sum(map(self._planes.__getitem__, beta)).to_bytes(
            len(self.matchings), "little")
        out = {}
        for c, lo, hi in self._ranges:
            v = 0
            while counts.find(v, lo, hi) < 0:
                v += 1
            out[c] = v
        return out

    def _pair_columns(self, i: int, j: int, max_weight: int
                      ) -> list[tuple[int, int, int, int, list]]:
        """M_ij^+ up to max_weight as columns (hx, y0, y1, wx, at) in order
        of hx: the points (hx, hy, deg), y0 <= hy <= y1, deg >= max(x - cy*hy
        for x, cy in at), of weight wx + ry*hy + lam*deg <= max_weight.

        In z = hom - hom(beta) and e = deg - deg(beta) a matching of class c
        pairs to its value on beta plus e + c.z, so the matchings of class c
        ask e >= -(low[c] + c.z), low[c] being their least value on beta.
        The weight wb + lam*e + rho.z is the sum of all these pairings and
        never negative; eliminating e from weight <= max_weight leaves one
        row per class on z, whose integer points `_columns` lists as
        column ranges; at each, the least e meets weight <= max_weight.
        """
        beta, b = self._base[(i, j)]
        wb = self.path_weight(beta)
        low = self._class_table(beta)
        lam, (rx, ry), (bx, by) = self.lam, self.rho, b.hom
        return [(bx + zx, by + y0, by + y1, wb + rx * zx - ry * by
                 - lam * b.deg, [(b.deg - lc - cx * zx + cy * by, cy)
                                 for (cx, cy), lc in low.items()])
                for zx, y0, y1 in _columns([(lam * cx - rx, lam * cy - ry,
                                             lam * lc + max_weight - wb)
                                            for (cx, cy), lc in low.items()])]

    def _pieces(self, i: int, j: int,
                max_weight: int) -> list[list[PathClass]]:
        """M_ij^+ up to max_weight: entry d lists the elements of weight d
        in (hom, deg) order, from `_pair_columns`; not kept."""
        out: list[list[PathClass]] = [[] for _ in range(max_weight + 1)]
        for hx, y0, y1, wx, at in self._pair_columns(i, j, max_weight):
            for hy in range(y0, y1 + 1):
                deg = max([x - cy * hy for x, cy in at])
                w = wx + self.rho[1] * hy + self.lam * deg
                while w <= max_weight:
                    out[w].append(PathClass(i, j, (hx, hy), deg))
                    w, deg = w + self.lam, deg + 1
        return out

    # -- F-term rewriting -------------------------------------------------

    def fterm_closure(self, path: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """All paths reachable by F-term rewrites; computed afresh on every
        call, not cached.  Each relation keeps the path class
        (`fterm_relations`), so the closure lies in one class."""
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

    def _radix(self, b: int) -> int:
        """The radix R of the keys of the lattice points of every graded
        piece up to a degree, B = b being their largest |hx| or |hy|.

        A point m is keyed ((deg*R + hx)*R + hy)*nv^2 + head*nv + tail,
        and prepending an arrow x of class (in_pi0, ox, oy) to a path adds
        D[x] = ((in_pi0*R + ox)*R + oy)*nv^2 + tail(x) - head(x)
        (`_deltas`).  The kernels look up m - x for an arrow, a relation
        side or the face cycle x starting at m's tail, whose delta is the
        sum of its arrows' deltas (R^2*nv^2 for the face cycle, which is
        null-homologous and meets the reference matching once).  With E
        the largest offset component of an arrow, R = 2(B + E) + 1 keeps
        the hom of every m - x, in M^+ or not, a pair of balanced digits,
        |hx - ox| <= (R - 1)/2, and its low part head(m)*nv + head(x) in
        [0, nv^2).  So a key reads back digit by digit (`decode_key`), deg
        the unbounded top digit: distinct coordinates, distinct keys.
        E bounds a relation side too: p_a^+ and p_a^- each close a face,
        which is null-homologous, with a, so their offset is minus a's.
        """
        e = max(abs(c) for a in self.q.arrows for c in a.offset)
        return 2 * (b + e) + 1

    def _deltas(self, r: int) -> list[int]:
        """Per arrow x, D[x]: the key of x.p less that of p at radix r."""
        nv2 = self.q.n_vertices ** 2
        return [(((a.id in self.pi0) * r + a.offset[0]) * r + a.offset[1])
                * nv2 + a.tail - a.head for a in self.q.arrows]

    def _points(self, max_degree: int) -> tuple[int, list[list[int]]]:
        """The radix R of `_radix` and, per weight d up to max_degree, the
        keys at radix R of the lattice points of weight d of the pieces
        M_ij^+, pair by pair in order of (i, j), each in (hom, deg) order.
        The hom bound is read from the columns of `_pair_columns`, whose
        points of one hom step by lam in weight and R^2*nv^2 in key.  Kept
        per degree bound, so the kernels of one bound key each point once."""
        if max_degree not in self._points_cache:
            nv = self.q.n_vertices
            nv2, lam, ry = nv * nv, self.lam, self.rho[1]
            pairs = [(j * nv + i, self._pair_columns(i, j, max_degree))
                     for i in range(nv) for j in range(nv)]
            r = self._radix(max((abs(v) for _, cols in pairs for c in cols
                                 for v in c[:3]), default=0))
            step = r * r * nv2
            by_weight: list[list[int]] = [[] for _ in range(max_degree + 1)]
            for low, cols in pairs:
                for hx, y0, y1, wx, at in cols:
                    for hy in range(y0, y1 + 1):
                        deg = max([x - cy * hy for x, cy in at])
                        w = wx + ry * hy + lam * deg
                        k = ((deg * r + hx) * r + hy) * nv2 + low
                        while w <= max_degree:
                            by_weight[w].append(k)
                            w, k = w + lam, k + step
            self._points_cache[max_degree] = (r, by_weight)
        return self._points_cache[max_degree]

    def _fterm_classes(self, max_degree: int) -> dict[int, tuple]:
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
        arrows of u one at a time, adding each one's delta to the key; it
        is 0 at a point of one class, so the walk waits for a point of
        several.  A rewrite further right changes only the tail, whose
        F-class is already the pair's second entry.  Gluing is symmetric,
        so each relation is read one way; a point with one pair is one
        class, and gluing stops once all pairs are.  No path is listed.

        Where each reached m - a has one class, the pairs are the (a, 0),
        and a relation a.u = b.v with m - class(a.u) reached, which is
        m - class(b.v), joins two of them, as u.w and v.w are paths: edges
        of the cycle of `fterm_relations`, so the classes are the pairs less
        its rank.  The union-find runs only where that leaves several
        classes, or where a lighter point has several.
        """
        nv = self.q.n_vertices
        r, by_weight = self._points(max_degree)
        delta = self._deltas(r)
        steps = [[(a, delta[a]) for a in out] for out in self.q.out_arrows]
        # per tail i, the relation a.u = b.v of each in-arrow of i, in
        # order: (delta of a.u, a, u, b, v)
        glue = [[(sum(delta[x] for x in plus), plus[0],
                  [(x, delta[x]) for x in plus[:0:-1]], minus[0],
                  [(x, delta[x]) for x in minus[:0:-1]])
                 for plus, minus in map(self.rels.__getitem__, arrows)]
                for arrows in self.q.in_arrows]
        bits = [[(1 << n, rel[0]) for n, rel in enumerate(rels)]
                for rels in glue]
        full = [(1 << len(arrows)) - 1 for arrows in self.q.in_arrows]
        def walk(q: int, c: int, u: list[tuple[int, int]]) -> int:
            for x, dx in u:         # [u.w] from [w] = c at q
                q += dx
                _, nq, bq, fq = reached[q]
                c = fq[bq[x] + c] if nq > 1 else 0
            return c
        # the empty paths, the only points of weight 0 that paths reach
        reached = {i * (nv + 1): (1, 1, {}, ()) for i in range(nv)}
        split = False           # whether some point has several classes
        for keys in by_weight[1:]:
            for k in keys:
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
                if size == len(base):
                    mask = 0
                    for bit, dp in bits[i]:
                        if k - dp in reached:
                            mask |= bit
                    if size - mask.bit_count() + (mask == full[i]) == 1:
                        reached[k] = (n, 1, base, (0,) * size)
                        continue
                parent = list(range(size))
                ncls = size
                for dp, a, u, b, v in glue[i]:
                    p = k - dp
                    got = reached.get(p)
                    for c in range(got[1] if got else 0):
                        x = _find(parent, base[a] + (walk(p, c, u) if split
                                                     else c))
                        y = _find(parent, base[b] + (walk(p, c, v) if split
                                                     else c))
                        if x != y:
                            parent[x] = y
                            ncls -= 1
                    if ncls == 1:
                        break
                split |= ncls > 1
                roots: dict[int, int] = {}
                reached[k] = (n, ncls, base, (0,) * size if ncls == 1 else
                              tuple([roots.setdefault(_find(parent, x),
                                                      len(roots))
                                     for x in range(size)]))
        return reached

    def algebraic_consistency(self, max_degree: int) -> AlgebraReport:
        """Compare path classes up to the degree bound with the lattice
        points, one lattice point at a time.

        Surjectivity: every lattice point in every graded piece is the
        class of an actual path.  Injectivity: all paths with one class
        form a single F-term class.  Both are read from `_fterm_classes`,
        which counts the paths and F-term classes of each point from those
        of lighter points, mostly by the rank of the relation cycle of
        `fterm_relations`, and lists no path.  Every path class lies in
        M^+, since a matching's value on a path counts the path's arrows in
        it.  Points and hits are counted per piece from the keys, which
        give a failing point's class.  The report is kept, whose lattice
        counts `cy3_check` reads.
        """
        nv = self.q.n_vertices
        nv2, size = nv * nv, max_degree + 1
        reached = self._fterm_classes(max_degree)
        r, by_weight = self._points(max_degree)
        # per piece, at (head*nv + tail)*size + d: its points, and its hits
        count, hit = [0] * (nv2 * size), [0] * (nv2 * size)
        found = []
        for d, keys in enumerate(by_weight):
            for k in keys:
                at = k % nv2 * size + d
                count[at] += 1
                got = reached.get(k)
                hit[at] += got is not None
                if got is None or got[1] > 1:
                    found.append((k % nv, k // nv % nv, d, k, got))
        # in order of (i, j, d); sorted() keeps the order within a piece
        failures = [AlgebraFailure(
            "injectivity" if got else "surjectivity",
            PathClass(*decode_key(k, r, nv)), d,
            f"{got[0]} paths split into several F-term classes" if got
            else "lattice point with no representative path")
            for _, _, d, k, got in sorted(found, key=lambda f: f[:3])]
        stats = [(i, j, d, count[at], hit[at]) for i in range(nv)
                 for j in range(nv) for d in range(size)
                 for at in [(j * nv + i) * size + d]]
        report = AlgebraReport(not failures, max_degree, failures, stats)
        self._reports[max_degree] = report
        return report

    # -- the Calabi-Yau complex ------------------------------------------

    def cy3_check(self, max_degree: int) -> Cy3Report:
        """Bounded-degree exactness of the one-sided complex, read from the
        lattice counts of the consistency report (reused if kept).

        Per target vertex j and weight d the terms have bases of pairs
        (x, s), s a lattice point, of class c(x).s: c(x) is an arrow b in
        the first term, a relation side p_a^+ in the second and the face
        cycle w in the third.  The differentials keep the class, so the
        complex is a sum of one summand per point t = x.s of M_ij^+, over
        all i.  With L[i][j][d] the points of M_ij^+ of weight d, dim1 sums
        L[head b][j][d - w_b] over arrows b, dim2 L[tail a][j][d - lam + w_a]
        over arrows a, and dim3 L[i][j][d - lam] over i.

        A summand's d2 has a row e_b+ - e_b- per in-arrow a of i with
        t - p_a^+ in M^+, b+- the first arrows of p_a^+-.  Under a passing
        report every nonempty point has one F-term class, which
        `_fterm_classes` counts as its first arrows less the rank of d2
        (the cycle of `fterm_relations`); so per (j, d), rank d2 is dim1
        less the points, plus 1 at d = 0 for e_j, the only point of weight
        0.  d3 is a row if t - w is in M^+; then every relation fits, as
        t - p_a^+ = (t - w) + a, and the row, -1 on each, has rank 1: d3
        is injective.  Exactness at the second term, dim2 - rank d2 = dim3,
        holds at a summand unless every relation fits and t - w is not in
        M^+; so it holds per (j, d) iff it does per summand, iff the counts
        form of the Hilbert series identity K.L = I holds at every
        (i, j, d), of which it is the sum over tails i.  O(nv*|Q1|*D)
        additions; no lattice point is visited.
        """
        pre = self._reports.get(max_degree)
        if pre is None:
            pre = self.algebraic_consistency(max_degree)
        if not pre.ok:
            raise DimerError("algebraic consistency fails up to degree "
                             f"{max_degree}: Calabi-Yau bases undefined")
        nv, lam, size = self.q.n_vertices, self.lam, max_degree + 1
        # L[i][j][d] at (i*nv + j)*size + d, in order of (i, j, d)
        counts = [s[3] for s in pre.piece_stats]
        failures: list[tuple[int, int, str]] = []
        stats = []
        for j in range(nv):
            ls = [counts[(i * nv + j) * size:(i * nv + j + 1) * size]
                  for i in range(nv)]
            dim0 = [sum(c) for c in zip(*ls)]
            dim1, dim2 = [0] * size, [0] * size
            for a, w in zip(self.q.arrows, self.wts):
                dim1[w:] = map(add, dim1[w:], ls[a.head])
                dim2[lam - w:] = map(add, dim2[lam - w:], ls[a.tail])
            dim3 = ([0] * lam + dim0)[:size]
            for d, (n0, n1, n2, n3) in enumerate(zip(dim0, dim1, dim2, dim3)):
                r2 = n1 - n0 + (d == 0)
                if r2 + n3 != n2:
                    failures.append((j, d, "complex not exact at second term"))
                stats.append((j, d, n1, n2, n3, r2, n3))
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
        points = list(chain.from_iterable(self._pieces(0, 0, max_weight)[1:]))
        index = {(m.hom, m.deg) for m in points}
        gens: list[PathClass] = []
        for m in points:
            if not any((vsub(m.hom, g.hom), m.deg - g.deg) in index
                       for g in gens):
                gens.append(m)
        return gens


def decode_key(k: int, r: int, nv: int) -> tuple[int, int, Vec, int]:
    """(tail, head, hom, deg) of a key at radix r (`ToricData._radix`) in a
    quiver of nv vertices; hx and hy are balanced digits, in [-h, h] for
    h = (r - 1)/2, so each is the remainder of the rest plus h, less h."""
    high, low = divmod(k, nv * nv)
    h = (r - 1) // 2
    high, hy = divmod(high + h, r)
    high, hx = divmod(high + h, r)
    return (low % nv, low // nv, (hx - h, hy - h), high)


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _columns(cons: list[tuple[int, int, int]]
             ) -> list[tuple[int, int, int]]:
    """Integer points of {z : ax*zx + ay*zy + b >= 0 for all rows} as
    columns (zx, least zy, greatest zy) in order of zx, or none if the
    region is empty.  The x-range comes from eliminating zy
    (Fourier-Motzkin: the ay == 0 rows, and each lower ay > 0 row plus
    each upper ay < 0 row with zy cancelled), as the integer ceiling of
    its lower and floor of its upper bounds.

    No nonzero z may have z.(ax, ay) >= 0 on every row, or some bound is
    missing.  `_pair_columns`' normals lam*c - rho sum to 0 over the
    matchings, so such a z has one c.z for all classes c, which span the
    plane: every edge lies in a matching (`default_r_symmetry`), so their
    differences span the connected dimer graph's cycle space
    (Lovasz-Plummer), whose classes generate Z^2 (`Quiver`)."""
    lower = [r for r in cons if r[1] > 0]
    upper = [r for r in cons if r[1] < 0]
    xrows = [(ax, b) for ax, ay, b in cons if ay == 0]
    xrows += [(-uy * lx + ly * ux, -uy * lb + ly * ub)
              for lx, ly, lb in lower for ux, uy, ub in upper]
    if any(ax == 0 and b < 0 for ax, b in xrows):
        return []
    lo = max(-(b // ax) for ax, b in xrows if ax > 0)
    hi = min(b // -ax for ax, b in xrows if ax < 0)
    cols = [(zx, max(-((ax * zx + b) // ay) for ax, ay, b in lower),
             min((ax * zx + b) // -ay for ax, ay, b in upper))
            for zx in range(lo, hi + 1)]
    return [c for c in cols if c[1] <= c[2]]
