import itertools
import math
import pathlib
from collections import deque

import pytest

import dimertools
from dimertools import algebra
from dimertools.matchings import (NondegeneracyReport, PerfectMatching,
                                  _covers, edge_mask, pm_class)
from dimertools.rationallp import solve_lp
from dimertools.surface import DimerError, dualize, load_file, vadd

FIXTURES = pathlib.Path(dimertools.__file__).parent / "fixtures"

ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.dimer"))
# fixtures passing the geometric consistency check
CONSISTENT = ("hexagonal", "conifold", "memeg")
# fixtures with at least one perfect matching
NONDEGENERATE = ("hexagonal", "conifold", "nonmin_conifold", "memeg",
                 "examplestp", "xyloops")


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.dimer"


@pytest.fixture
def load_fixture():
    def _load(name):
        return load_file(fixture_path(name))
    return _load


@pytest.fixture
def load_quiver():
    def _load(name):
        g = load_file(fixture_path(name))
        return g, dualize(g)
    return _load


def bounding_box_lp(cons):
    """Oracle for `algebra._columns`: the integer bounding box
    ((x0, x1), (y0, y1)) of {z : ax*zx + ay*zy + b >= 0 for all rows}, or
    None if it holds no integer point, by four exact simplex solves on
    z = z+ - z-.  Raises if the region is nonempty and unbounded."""
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
    x0, x1 = math.ceil(-xminneg), math.floor(xmax)
    y0, y1 = math.ceil(-yminneg), math.floor(ymax)
    if x0 > x1 or y0 > y1:
        return None
    return (x0, x1), (y0, y1)


def _extend_matchings_oracle(g, v0, covered, chosen, results):
    """Append every perfect matching of g that contains the edges chosen
    so far, which cover exactly the vertices marked covered."""
    n = len(covered)
    while v0 < n and covered[v0]:
        v0 += 1
    if v0 == n:
        results.append(frozenset(chosen))
        return
    for e in g.rotation[v0]:
        w = g.other_end(e, v0)
        if covered[w]:
            continue
        covered[v0] = covered[w] = True
        chosen.append(e)
        _extend_matchings_oracle(g, v0 + 1, covered, chosen, results)
        chosen.pop()
        covered[v0] = covered[w] = False


def enumerate_matchings_oracle(g):
    """Oracle for `matchings.enumerate_matchings` in `listing_order`: every
    support by a recursion over the rotations, sorted by its sorted edge
    ids, with classes taken against the first."""
    supports = []
    _extend_matchings_oracle(g, 0, [False] * len(g.colors), [], supports)
    supports.sort(key=lambda s: sorted(s))
    if not supports:
        return []
    pi0 = supports[0]
    return [PerfectMatching.from_support(s, pm_class(s, pi0, g))
            for s in supports]


def nondegeneracy_oracle(g):
    """Oracle for `matchings.nondegeneracy_check`: an edge lies in some
    perfect matching iff the rest of the graph, without its two ends, has
    a perfect matching; one Hall kernel call per edge."""
    blacks = g.black_vertices
    balanced = len(blacks) == len(g.white_vertices)
    flags = {e.id: balanced and _covers(g.edges, blacks, {e.black, e.white})
             for e in g.edges}
    return NondegeneracyReport(all(flags.values()), flags)


def matching_counts_oracle(matchings, n_arrows):
    """Oracle for the weights of `symmetry.default_r_symmetry`: per arrow,
    the number of matchings that hold it, by adding each matching's bits
    into bit planes (plane i holds bit i of every arrow's count)."""
    planes = []
    for carry in [m.bits for m in matchings]:
        i = 0
        for plane in planes:
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
            i += 1
        else:
            planes.append(carry)
    return [sum((p >> a & 1) << i for i, p in enumerate(planes))
            for a in range(n_arrows)]


def class_table_oracle(matchings):
    """Oracle for `ToricData._class_table`: the table as a function of the
    base path beta, class c -> the least popcount of beta's mask and the
    bits of a matching of class c, as the table was read before it summed
    byte planes."""
    bits_by_cls = {}
    for m in matchings:
        bits_by_cls.setdefault(m.cls, []).append(m.bits)

    def table(beta):
        mask = edge_mask(beta)
        return {c: min(map(int.bit_count, map(mask.__and__, bits)))
                for c, bits in bits_by_cls.items()}
    return table


def _apply(mat, p):
    a, b, c, d = mat
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


def polygon_normal_form_oracle(points):
    """Oracle for `matchings.polygon_normal_form`: the least image over
    every unimodular matrix with entries bounded by the point-set diameter
    plus two."""
    pts = list(points)
    span = max(max(abs(p[0] - q[0]), abs(p[1] - q[1]))
               for p in pts for q in pts) if len(pts) > 1 else 1
    bound = span + 2

    def image(mat):
        img = [(_apply(mat, p), m) for p, m in points.items()]
        mx = min(p[0] for p, _ in img)
        my = min(p[1] for p, _ in img)
        return tuple(sorted(((p[0] - mx, p[1] - my), m) for p, m in img))

    # the identity is among the candidates, so the minimum is over a
    # nonempty set
    rng = range(-bound, bound + 1)
    return min(image(mat) for mat in itertools.product(rng, repeat=4)
               if mat[0] * mat[3] - mat[1] * mat[2] in (1, -1))


def cy3_summands_oracle(td, max_degree, rank=None):
    """Oracle for `ToricData.cy3_check`: the report from two int matrices
    per summand, the differentials d2 and d3 at one lattice point, each
    handed to `rank` (default `algebra._rank`), as the rung computed it
    before it read the ranks from components."""
    rank = algebra._rank if rank is None else rank
    pre = td._reports.get(max_degree)
    if pre is None:
        pre = td.algebraic_consistency(max_degree)
    if not pre.ok:
        raise DimerError("algebraic consistency fails up to degree "
                         f"{max_degree}: Calabi-Yau bases undefined")
    failures = []
    stats = []
    nv = td.q.n_vertices
    out_arrows, in_arrows = td.q.out_arrows, td.q.in_arrows
    single = [(b.head, *b.offset, b.id in td.pi0) for b in td.q.arrows]
    sides = {}
    for a, (plus, minus) in td.rels.items():
        c = td.path_class(plus)
        sides[a] = (c.head, *c.hom, c.deg, plus[0], minus[0])
    for j in range(nv):
        into_j = [td._pieces(i, j, max_degree) for i in range(nv)]
        in_plus = {(i, *m.hom, m.deg) for i in range(nv)
                   for piece in into_j[i] for m in piece}
        for d in range(max_degree + 1):
            dim1 = dim2 = dim3 = r2 = r3 = 0
            composite_zero = True
            for i in range(nv):
                for t in into_j[i][d]:
                    (hx, hy), dg = t.hom, t.deg
                    col_of = {}
                    for b in out_arrows[i]:
                        h, ox, oy, in0 = single[b]
                        if (h, hx - ox, hy - oy, dg - in0) in in_plus:
                            col_of[b] = len(col_of)
                    rows2, row_of = [], {}
                    for a in in_arrows[i]:
                        h, cx, cy, cd, b_plus, b_minus = sides[a]
                        if (h, hx - cx, hy - cy, dg - cd) in in_plus:
                            row = [0] * len(col_of)
                            row[col_of[b_plus]] += 1
                            row[col_of[b_minus]] -= 1
                            row_of[a] = len(rows2)
                            rows2.append(row)
                    rows3 = []
                    if (i, hx, hy, dg - 1) in in_plus:
                        rows3.append([0] * len(rows2))
                        for a in in_arrows[i]:
                            rows3[0][row_of[a]] -= 1
                        composite_zero &= not any(map(sum, zip(*rows2)))
                    dim1 += len(col_of)
                    dim2 += len(rows2)
                    dim3 += len(rows3)
                    r2 += rank(rows2)
                    r3 += rank(rows3)
            if not composite_zero:
                failures.append((j, d, "composite not zero"))
            if r3 != dim3:
                failures.append((j, d, "third differential not injective"))
            if r2 + r3 != dim2:
                failures.append((j, d, "complex not exact at second term"))
            stats.append((j, d, dim1, dim2, dim3, r2, r3))
    return algebra.Cy3Report(not failures, max_degree, failures, stats)


def fterm_classes_oracle(td, max_degree):
    """Oracle for `ToricData._fterm_classes`: per lattice point up to
    max_degree that some path reaches, keyed (tail, head, hx, hy, deg), its
    number of paths, its number of F-term classes and the F-class of each
    (first arrow, F-class of the rest) pair, with every step on a 5-tuple,
    as the kernel computed it before it keyed points by one int."""
    nv = td.q.n_vertices
    steps = [(a.tail, a.head, a.offset[0], a.offset[1], a.id in td.pi0)
             for a in td.q.arrows]
    glue = [[] for _ in range(nv)]
    for plus, minus in td.rels.values():
        c = td.path_class(plus)
        glue[c.tail].append((c.head, *c.hom, c.deg, plus, minus))
    by_weight = [[] for _ in range(max_degree + 1)]
    for i in range(nv):
        for j in range(nv):
            for d, pts in enumerate(td._pieces(i, j, max_degree)):
                by_weight[d] += pts
    reached = {}

    def prepend(u, p, c):
        for x in reversed(u):
            t, _, ox, oy, in0 = steps[x]
            p = (t, p[1], p[2] + ox, p[3] + oy, p[4] + in0)
            c = reached[p][2][(x, c)]
        return c

    for pts in by_weight:
        for m in pts:
            i, j, (hx, hy), dg = m.tail, m.head, m.hom, m.deg
            key = (i, j, hx, hy, dg)
            if i == j and key[2:] == (0, 0, 0):     # the empty path
                reached[key] = (1, 1, {})
                continue
            pairs = []
            n = 0
            for a in td.q.out_arrows[i]:
                _, h, ox, oy, in0 = steps[a]
                rest = reached.get((h, j, hx - ox, hy - oy, dg - in0))
                if rest:
                    n += rest[0]
                    pairs += [(a, c) for c in range(rest[1])]
            if not pairs:
                continue
            index = {pair: k for k, pair in enumerate(pairs)}
            parent = list(range(len(pairs)))
            for th, cx, cy, cd, lhs, rhs in glue[i]:
                p = (th, j, hx - cx, hy - cy, dg - cd)
                for c in range(reached[p][1] if p in reached else 0):
                    x = algebra._find(parent, index[(lhs[0],
                                                     prepend(lhs[1:], p, c))])
                    y = algebra._find(parent, index[(rhs[0],
                                                     prepend(rhs[1:], p, c))])
                    parent[x] = y
            roots = {}
            of_pair = {pair: roots.setdefault(algebra._find(parent, k),
                                              len(roots))
                       for k, pair in enumerate(pairs)}
            reached[key] = (n, len(roots), of_pair)
    return reached


def point_key(m, r, nv):
    """The key of the lattice point m at radix r in a quiver of nv
    vertices."""
    return (((m.deg * r + m.hom[0]) * r + m.hom[1]) * nv * nv
            + m.head * nv + m.tail)


def points_oracle(td, max_degree):
    """Oracle for `ToricData._points`: the radix and, per weight, the keys
    of the lattice points, from the `PathClass`es of `_pieces`, with the
    offset bound read from every relation side again, as the kernels keyed
    the points before they read the column ranges."""
    nv = td.q.n_vertices
    by_weight = [[] for _ in range(max_degree + 1)]
    for i in range(nv):
        for j in range(nv):
            for d, pts in enumerate(td._pieces(i, j, max_degree)):
                by_weight[d] += pts
    b = max((abs(c) for pts in by_weight for m in pts for c in m.hom),
            default=0)
    offsets = [a.offset for a in td.q.arrows] + [
        td.path_class(plus).hom for plus, _ in td.rels.values()]
    r = 2 * (b + max(abs(c) for x in offsets for c in x)) + 1
    return r, [[point_key(m, r, nv) for m in pts] for pts in by_weight]


def consistency_report_oracle(td, max_degree):
    """Oracle for `ToricData.algebraic_consistency` over the same F-term
    kernel: the report read piece by piece from the `PathClass`es of
    `_pieces` and the keys of `points_oracle`, as the rung read it before
    it counted the points per piece from their keys."""
    failures = []
    stats = []
    nv = td.q.n_vertices
    reached = td._fterm_classes(max_degree)
    keys = [iter(ks) for ks in points_oracle(td, max_degree)[1]]
    for i in range(nv):
        for j in range(nv):
            for d, pts in enumerate(td._pieces(i, j, max_degree)):
                ncls = 0
                for m, k in zip(pts, keys[d]):
                    r = reached.get(k)
                    if r is None:
                        failures.append(algebra.AlgebraFailure(
                            "surjectivity", m, d,
                            "lattice point with no representative path"))
                        continue
                    ncls += 1
                    if r[1] > 1:
                        failures.append(algebra.AlgebraFailure(
                            "injectivity", m, d,
                            f"{r[0]} paths split into several "
                            "F-term classes"))
                stats.append((i, j, d, len(pts), ncls))
    return algebra.AlgebraReport(not failures, max_degree, failures, stats)


def face_records_oracle(g):
    """Oracle for the dart records of `TorusGraph`: dart -> (face, lift of
    its vertex from the face's first dart), by tracing the faces again with
    each rotation successor found by `list.index`, as the graph and the
    quiver each traced them before the graph kept the records."""
    def face_next(v, e):
        w = g.other_end(e, v)
        rot = g.rotation[w]
        return (w, rot[(rot.index(e) + 1) % len(rot)])

    records, n_faces = {}, 0
    for d0 in [(v, e) for v in range(len(g.colors)) for e in g.rotation[v]]:
        if d0 in records:
            continue
        d, pos = d0, (0, 0)
        while d not in records:
            records[d] = (n_faces, pos)
            pos = vadd(pos, g._dart_disp(*d))
            d = face_next(*d)
        n_faces += 1
    return records


def closed_walk_oracle(q, target):
    """A shortest closed walk at vertex 0 with offset sum `target`, for
    the paper's definition of a matching's class by pairing with the
    homology basis walks: a breadth-first search of Q0 x Z^2 in a window
    that doubles until the walk is found; the window holds the lifts within
    `radius` (max norm) of the start or of the end."""
    start, goal = (0, (0, 0)), (0, target)
    radius = 2
    while True:
        prev = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node == goal:
                walk = []
                while prev[node] is not None:
                    node, a = prev[node]
                    walk.append(a)
                return walk[::-1]
            v, off = node
            for a in q.out_arrows[v]:
                arr = q.arrows[a]
                o2 = vadd(off, arr.offset)
                if max(abs(o2[0] - target[0]), abs(o2[1] - target[1])) \
                        > radius and max(abs(o2[0]), abs(o2[1])) > radius:
                    continue
                nxt = (arr.head, o2)
                if nxt not in prev:
                    prev[nxt] = (node, a)
                    queue.append(nxt)
        radius *= 2
