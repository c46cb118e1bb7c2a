"""Graded pieces, F-term classes, bounded-degree consistency and the
one-sided complex."""

import math
import random
from collections import Counter, deque

import pytest

from conftest import (CONSISTENT, NONDEGENERATE, bounding_box_lp,
                      class_table_oracle, consistency_report_oracle,
                      cy3_summands_oracle, fterm_classes_oracle, point_key,
                      points_oracle)
from dimertools import algebra
from dimertools.algebra import (AlgebraFailure, AlgebraReport, Cy3Report,
                                PathClass, ToricData, decode_key)
from dimertools.matchings import polygon
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.rationallp import solve_lp
from dimertools.surface import DimerError, fterm_relations, load_file
from conftest import fixture_path
from test_fans import all_models, enumerated, zigzag


def toric(name, **kw):
    return ToricData(load_file(fixture_path(name)), **kw)


def random_paths(td, rng, count, max_len):
    """Random arrow paths in the quiver, any start vertex."""
    out_arrows = {}
    for a in td.q.arrows:
        out_arrows.setdefault(a.tail, []).append(a.id)
    paths = []
    for _ in range(count):
        v = rng.randrange(td.q.n_vertices)
        path = []
        for _ in range(rng.randint(1, max_len)):
            a = rng.choice(out_arrows[v])
            path.append(a)
            v = td.q.arrows[a].head
        paths.append(tuple(path))
    return paths


def pm_eval(td, pm, m):
    """Oracle: the value of the matching pm on the class m, one matching at
    a time: its value on the base path, plus the change in reference count
    and the pairing of its class with the change in homology offset."""
    beta, b = td._base[(m.tail, m.head)]
    z = (m.hom[0] - b.hom[0], m.hom[1] - b.hom[1])
    return (sum(a in pm.support for a in beta) + m.deg - b.deg
            + pm.cls[0] * z[0] + pm.cls[1] * z[1])


def in_M_plus(td, m):
    """Oracle: m lies in M^+, nonnegative on every perfect matching."""
    return all(pm_eval(td, pm, m) >= 0 for pm in td.matchings)


def test_pm_eval_counts_matched_arrows():
    """Evaluating a matching on a path class counts how often the path
    runs through the matching, for every matching and random path."""
    rng = random.Random(11)
    for name in CONSISTENT:
        td = toric(name)
        for path in random_paths(td, rng, 50, 6):
            cls = td.path_class(path)
            for pm in td.matchings:
                crossed = sum(1 for a in path if a in pm.support)
                assert pm_eval(td, pm, cls) == crossed


def test_class_table_matches_support_scan():
    """The popcount class table equals the scan of each matching's support
    along the base path, for every vertex pair of the six nondegenerate
    fixtures and of gen-square 1-3; a path that repeats an arrow is
    refused rather than counted."""
    models = [load_file(fixture_path(name)) for name in NONDEGENERATE]
    models += [pattern_to_dimer(square_pattern(n)) for n in (1, 2, 3)]
    for g in models:
        td = ToricData(g)
        supports = [(m.cls, m.support) for m in td.matchings]
        for beta, _ in td._base.values():
            want = {}
            for cls, s in supports:
                ev = sum(a in s for a in beta)
                want[cls] = min(ev, want.get(cls, ev))
            assert td._class_table(beta) == want
    with pytest.raises(DimerError, match="repeats an arrow"):
        td._class_table((0, 0))


def test_class_table_matches_popcount_oracle():
    """The class table summed from byte planes equals the least popcount
    per class for every vertex pair of the six nondegenerate fixtures and
    of gen-square 1-4 (1,024 pairs over 26,752 matchings at n = 4).  A
    path of more than 255 arrows, whose counts would carry from one byte
    into the next, and a path that repeats an arrow are refused."""
    models = [load_file(fixture_path(name)) for name in NONDEGENERATE]
    models += [pattern_to_dimer(square_pattern(n)) for n in (1, 2, 3, 4)]
    for g in models:
        td = ToricData(g)
        oracle = class_table_oracle(td.matchings)
        for beta, _ in td._base.values():
            assert td._class_table(beta) == oracle(beta)
    assert len(td._base) == 1024
    with pytest.raises(DimerError, match="at most 255"):
        td._class_table(tuple(range(256)))
    with pytest.raises(DimerError, match="repeats an arrow"):
        td._class_table((3, 5, 3))


def test_weight_is_grading():
    td = toric("hexagonal")
    rng = random.Random(3)
    for path in random_paths(td, rng, 30, 5):
        cls = td.path_class(path)
        assert td.weight(cls) == td.path_weight(path)
        assert td.weight(cls) == sum(td.wts[a] for a in path)


def test_path_class_text():
    assert (str(PathClass(0, 1, (1, -1), 2))
            == "PathClass(tail=0, head=1, hom=(1, -1), deg=2)")


def test_face_cycle_class():
    """Every face boundary represents the same closed class of weight
    lambda, evaluating to one on each matching."""
    for name in CONSISTENT:
        td = toric(name)
        classes = set()
        for f in td.q.faces:
            start = td.q.arrows[f.boundary[0]].tail
            cls = td.path_class(f.boundary, at=start)
            assert td.weight(cls) == td.lam
            assert cls.hom == (0, 0)
            classes.add((cls.hom, cls.deg))
            for pm in td.matchings:
                assert pm_eval(td, pm, cls) == 1
        assert len(classes) == 1


def test_hexagonal_piece_sizes():
    td = toric("hexagonal")
    assert [len(td._pieces(0, 0, d)[d]) for d in range(7)] == \
        [1, 3, 6, 10, 15, 21, 28]


def test_fterm_closure_small():
    td = toric("hexagonal")
    # two loops commute through the relations
    a, b = 0, 1
    cl = td.fterm_closure((a, b))
    assert (b, a) in cl


def closure_oracle(td, path):
    """Oracle: the F-term closure by trying every relation side, read both
    ways, at every position, checking the class of every path found."""
    subs = [s for _, plus, minus in fterm_relations(td.q)
            for s in ((plus, minus), (minus, plus))]
    start = tuple(path)
    cls = td.path_class(start) if start else None
    seen = {start}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for lhs, rhs in subs:
            n = len(lhs)
            for k in range(len(p) - n + 1):
                if p[k:k + n] == lhs:
                    p2 = p[:k] + rhs + p[k + n:]
                    if p2 not in seen:
                        assert cls is None or td.path_class(p2) == cls
                        seen.add(p2)
                        queue.append(p2)
    return frozenset(seen)


def paths_oracle(td, i, max_weight):
    """Oracle: every path out of i of weight at most max_weight, depth
    first, arrows in `out_arrows` order."""
    out = [()]
    for a in td.q.out_arrows[i]:
        if td.wts[a] <= max_weight:
            out += [(a,) + p for p in paths_oracle(
                td, td.q.arrows[a].head, max_weight - td.wts[a])]
    return out


@pytest.mark.parametrize("model", list(NONDEGENERATE) + ["square-1"])
def test_fterm_closure_matches_oracle(model):
    """The per-arrow rewrite table finds the same closure as scanning every
    relation side, for every path of weight at most lam.  Each path comes
    with its class, one object per class."""
    if model.startswith("square-"):
        td = ToricData(pattern_to_dimer(square_pattern(int(model[-1]))))
    else:
        td = toric(model)
    known = {}
    for i in range(td.q.n_vertices):
        paths = td.paths_from(i, td.lam)
        assert [p for p, _ in paths] == paths_oracle(td, i, td.lam)
        classes = [cls for _, cls in paths]
        assert len(set(map(id, classes))) == len(set(classes))
        for p, cls in paths:
            assert cls == td.path_class(p, at=i)
            if p not in known:
                closure = closure_oracle(td, p)
                known.update(dict.fromkeys(closure, closure))
            assert td.fterm_closure(p) == known[p], (model, p)


def built_models():
    """(name, ToricData) of every model of `all_models` that builds one."""
    out = []
    for name, g in all_models().items():
        try:
            out.append((name, ToricData(g)))
        except DimerError:
            continue
    return out


def test_relation_sides_share_class():
    """On every model that builds ToricData, both sides of the relation of
    an arrow a have hom -offset(a) and degree 1 - [a in pi0], so each
    relation keeps the path class (`fterm_relations`), and `_radix` bounds
    a relation side's hom by the arrow offsets."""
    models = built_models()
    assert len(models) == 373
    for name, td in models:
        for a, (plus, minus) in td.rels.items():
            arrow = td.q.arrows[a]
            want = PathClass(arrow.head, arrow.tail,
                             (-arrow.offset[0], -arrow.offset[1]),
                             1 - (a in td.pi0))
            assert td.path_class(plus) == td.path_class(minus) == want, (
                name, a)


def consistency_oracle(td, max_degree):
    """Oracle: the algebraic consistency report from every path up to the
    degree bound, with one F-term closure per class, as the rung computed
    it before it worked per lattice point."""
    failures = []
    stats = []
    nv = td.q.n_vertices
    first = {}
    count = Counter()
    for i in range(nv):
        paths = td.paths_from(i, max_degree)
        count.update(cls for _, cls in paths)
        for p, cls in paths:
            first.setdefault(cls, p)
        del paths       # free before listing the next vertex's paths
    for i in range(nv):
        for j in range(nv):
            for d, pts in enumerate(td._pieces(i, j, max_degree)):
                ncls = 0
                for m in pts:
                    if m not in first:
                        failures.append(AlgebraFailure(
                            "surjectivity", m, d,
                            "lattice point with no representative path"))
                        continue
                    ncls += 1
                    if len(td.fterm_closure(first[m])) != count[m]:
                        failures.append(AlgebraFailure(
                            "injectivity", m, d,
                            f"{count[m]} paths split into several "
                            "F-term classes"))
                stats.append((i, j, d, len(pts), ncls))
    return AlgebraReport(not failures, max_degree, failures, stats)


# (model, degree bounds as (multiple of lam, extra degree))
ORACLE_CASES = [(name, ((1, 0), (2, 0), (3, 0))) for name in NONDEGENERATE]
ORACLE_CASES += [("hexagonal", ((0, 10),)), ("nonmin_conifold", ((0, 11),)),
                 ("xyloops", ((0, 14),)), ("square-1", ((1, 0), (2, 0))),
                 ("square-2", ((1, 0),))]


@pytest.mark.parametrize("model,bounds", ORACLE_CASES,
                         ids=[m + "".join(f"-{k}lam" if k else f"-D{e}"
                                          for k, e in b)
                              for m, b in ORACLE_CASES])
def test_consistency_matches_oracle(model, bounds):
    """The per-lattice-point rung gives the report of listing every path
    and closing each class: verdict, every failure with its detail text,
    and the piece statistics."""
    if model.startswith("square-"):
        td = ToricData(pattern_to_dimer(square_pattern(int(model[-1]))))
    else:
        td = toric(model)
    for k, extra in bounds:
        d = k * td.lam + extra
        assert td.algebraic_consistency(d) == consistency_oracle(td, d), \
            (model, d)


def test_algebraic_consistency_passes():
    for name, d in (("hexagonal", 6), ("conifold", 4), ("memeg", 4)):
        rep = toric(name).algebraic_consistency(d)
        assert rep.ok, name
        assert not rep.failures


def test_loop_model_fails_both_ways():
    """Two loops at one vertex with equal lattice class but different
    F-term classes break injectivity; the loop class misses other vertices
    and breaks surjectivity."""
    td = toric("xyloops")
    rep = td.algebraic_consistency(4)
    assert not rep.ok
    kinds = {f.kind for f in rep.failures}
    assert kinds == {"surjectivity", "injectivity"}
    inj = [f for f in rep.failures if f.kind == "injectivity"]
    assert any(f.cls.hom == (1, 1) and f.cls.tail == f.cls.head for f in inj)
    sur = [f for f in rep.failures if f.kind == "surjectivity"]
    assert any(f.cls.hom == (1, 0) for f in sur)


def test_cy3_exact():
    for name in CONSISTENT:
        rep = toric(name).cy3_check(4)
        assert rep.ok, name
        assert not rep.failures


def test_cy3_requires_algebraic():
    with pytest.raises(DimerError):
        toric("xyloops").cy3_check(2)


def test_cy3_reuses_consistency_report(monkeypatch):
    """cy3_check after algebraic_consistency at the same degree bound does
    not run the consistency pass again."""
    td = toric("memeg")
    calls = []
    original = ToricData._fterm_classes

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ToricData, "_fterm_classes", counting)
    assert td.algebraic_consistency(3).ok
    assert td.cy3_check(3).ok
    assert calls == [(3,)]


def test_first_matching_is_reference():
    """On every model of `all_models` that dualizes and has a perfect
    matching, the first enumerated matching has class (0, 0): classes are
    taken against it, so it is the reference matching pi0 of ToricData."""
    checked = 0
    for name in all_models():
        if zigzag(name) is None:
            continue
        ms = enumerated(name)[3]
        if ms:
            assert ms[0].cls == (0, 0), name
            checked += 1
    assert checked == 374


def test_quiver_strongly_connected():
    """On every model of `all_models` that dualizes, a breadth-first search
    along arrows from any vertex reaches every vertex, so ToricData finds
    a base path for every vertex pair."""
    checked = 0
    for name in all_models():
        if zigzag(name) is None:
            continue
        q = zigzag(name)[0]
        for i in range(q.n_vertices):
            seen, queue = {i}, deque([i])
            while queue:
                for a in q.out_arrows[queue.popleft()]:
                    h = q.arrows[a].head
                    if h not in seen:
                        seen.add(h)
                        queue.append(h)
            assert len(seen) == q.n_vertices, (name, i)
        checked += 1
    assert checked == 376


def test_cy3_lists_each_pair_once(monkeypatch):
    """One cy3_check lists the columns of the lattice points of each vertex
    pair once, and none after algebraic_consistency at the same degree
    bound, whose keys of the lattice points it reads."""
    td, fresh = toric("memeg"), toric("memeg")
    assert td.algebraic_consistency(4).ok
    fresh._reports[4] = td._reports[4]
    calls = []
    original = ToricData._pair_columns

    def counting(self, i, j, max_weight):
        calls.append((i, j, max_weight))
        return original(self, i, j, max_weight)

    monkeypatch.setattr(ToricData, "_pair_columns", counting)
    assert fresh.cy3_check(4).ok
    nv = td.q.n_vertices
    assert sorted(calls) == [(i, j, 4) for i in range(nv) for j in range(nv)]
    calls.clear()
    assert td.cy3_check(4).ok
    assert calls == []


def cy3_oracle(td, max_degree):
    """Oracle: the CY3 report from three global bases per target vertex
    and weight, with one matrix per differential over all their lattice
    points, as the rung computed it before it split the complex into one
    summand per lattice point."""
    pre = td._reports.get(max_degree)
    if pre is None:
        pre = td.algebraic_consistency(max_degree)
    if not pre.ok:
        raise DimerError("algebraic consistency fails up to degree "
                         f"{max_degree}: Calabi-Yau bases undefined")

    def compose(p, m):
        if p.head != m.tail:
            raise DimerError("classes do not compose")
        return PathClass(p.tail, m.head, (p.hom[0] + m.hom[0],
                                          p.hom[1] + m.hom[1]),
                         p.deg + m.deg)

    failures = []
    stats = []
    nv = td.q.n_vertices
    sides = {a: [(sign, p[0], td.path_class(
                 p[1:], at=td.q.arrows[p[0]].head))
                 for sign, p in zip((1, -1), rel)]
             for a, rel in td.rels.items()}
    single = [td.path_class([b]) for b in range(td.q.n_arrows)]
    for j in range(nv):
        into_j = [td._pieces(i, j, max_degree) for i in range(nv)]

        def piece(i, d):
            return into_j[i][d] if d >= 0 else []

        for d in range(max_degree + 1):
            basis1 = [(b.id, m) for b in td.q.arrows
                      for m in piece(b.head, d - td.wts[b.id])]
            basis2 = [(a.id, m) for a in td.q.arrows
                      for m in piece(a.tail, d - (td.lam - td.wts[a.id]))]
            basis3 = [(v, m) for v in range(nv)
                      for m in piece(v, d - td.lam)]
            idx1 = {key: n for n, key in enumerate(basis1)}
            idx2 = {key: n for n, key in enumerate(basis2)}

            def col2(a, m):
                out = {}
                for sign, b, rest in sides[a]:
                    n = idx1[(b, compose(rest, m))]
                    out[n] = out.get(n, 0) + sign
                return {k: v for k, v in out.items() if v}

            def col3(v, m):
                out = {}
                for b in td.q.in_arrows[v]:
                    n = idx2[(b, compose(single[b], m))]
                    out[n] = out.get(n, 0) - 1
                return {k: v for k, v in out.items() if v}

            f2 = [col2(a, m) for a, m in basis2]
            f3 = [col3(v, m) for v, m in basis3]
            for c3 in f3:
                acc = {}
                for n2, coef in c3.items():
                    for n1, coef2 in f2[n2].items():
                        acc[n1] = acc.get(n1, 0) + coef * coef2
                if any(acc.values()):
                    failures.append((j, d, "composite not zero"))
                    break
            r2 = algebra._rank([[c.get(n, 0) for n in range(len(basis1))]
                                for c in f2])
            r3 = algebra._rank([[c.get(n, 0) for n in range(len(basis2))]
                                for c in f3])
            if r3 != len(basis3):
                failures.append((j, d, "third differential not injective"))
            if r2 + r3 != len(basis2):
                failures.append((j, d, "complex not exact at second term"))
            stats.append((j, d, len(basis1), len(basis2), len(basis3),
                          r2, r3))
    return Cy3Report(not failures, max_degree, failures, stats)


def test_cy3_matches_oracle():
    """The per-lattice-point complex gives the report of the global
    matrices: verdict, every failure in order, and the dims and ranks per
    (j, d).  A stub consistency report makes cy3_check run on xyloops,
    which fails algebraic consistency, so failing complexes are compared
    too; at the real report both refuse it alike."""
    failing = 0
    for name in NONDEGENERATE:
        for d in (3, 7, 14):
            new, old = toric(name), toric(name)
            for td in (new, old):
                td._reports[d] = AlgebraReport(True, d, [], [])
            rep = new.cy3_check(d)
            assert rep == cy3_oracle(old, d), (name, d)
            failing += not rep.ok
            new, old = toric(name), toric(name)
            if new.algebraic_consistency(d).ok:
                assert new.cy3_check(d) == cy3_oracle(old, d), (name, d)
            else:
                with pytest.raises(DimerError, match="bases undefined"):
                    new.cy3_check(d)
                with pytest.raises(DimerError, match="bases undefined"):
                    cy3_oracle(old, d)
    assert failing == 2         # xyloops at D = 7 and 14
    for n, ks in ((1, (1, 4)), (2, (1, 4)), (3, (2,))):
        g = pattern_to_dimer(square_pattern(n))
        for k in ks:
            td = ToricData(g)
            d = k * td.lam
            assert td.cy3_check(d) == cy3_oracle(td, d), (n, k)
    # D = 4 below lam = 448 and 26,752: the third term is zero throughout
    for n in (3, 4):
        td = ToricData(pattern_to_dimer(square_pattern(n)))
        assert td.cy3_check(4) == cy3_oracle(td, 4), n


def test_cy3_matches_summand_oracle():
    """On every model of `all_models` that builds ToricData, bar square-4,
    at degree 4, lam and 2 lam up to 40 (790 pairs), both kernels match
    their oracles.  Int keys and deltas give the tuple-keyed kernel's
    paths, F-term classes and F-class of every pair at every lattice
    point.  Ranks from components give the report of the two matrices per
    summand, with a stub consistency report so that failing complexes are
    compared too."""
    pairs = failing = 0
    for name, g in all_models().items():
        if name == "square-4":
            continue
        try:
            td = ToricData(g)
        except DimerError:
            continue
        nv = td.q.n_vertices
        for d in sorted({d for d in (4, td.lam, 2 * td.lam) if d <= 40}):
            got = td._fterm_classes(d)
            r = td._points(d)[0]
            want = {}
            for (i, j, hx, hy, dg), (n, ncls, of_pair) in \
                    fterm_classes_oracle(td, d).items():
                want[point_key(PathClass(i, j, (hx, hy), dg), r, nv)] = (
                    n, ncls, of_pair)
            assert got.keys() == want.keys(), (name, d)
            for k, (n, ncls, base, flat) in got.items():
                ends = [*base.values(), len(flat)][1:]
                of_pair = {(a, c): flat[b + c]
                           for (a, b), end in zip(base.items(), ends)
                           for c in range(end - b)}
                assert (n, ncls, of_pair) == want[k], (name, d, k)
            td._reports[d] = AlgebraReport(True, d, [], [])
            rep = td.cy3_check(d)
            assert rep == cy3_summands_oracle(td, d), (name, d)
            pairs += 1
            failing += not rep.ok
    assert pairs == 790
    assert failing == 76


def lattice_counts(td, max_degree):
    """L[(i, j, d)]: the lattice points of M_ij^+ of weight d, from the
    keys of `_points` (tail i, head j)."""
    nv = td.q.n_vertices
    counts = Counter()
    for d, keys in enumerate(td._points(max_degree)[1]):
        for k in keys:
            counts[(k % nv, k // nv % nv, d)] += 1
    return counts


def hilbert_mismatches(td):
    """The (i, j, d), d <= 2 lam, at which the lattice counts break the
    Calabi-Yau Hilbert series identity L(i,j,d) - L(i,j,d - lam)
    - sum over arrows a into j of L(i, tail a, d - w_a) + sum over arrows a
    out of j of L(i, head a, d - lam + w_a) = [i = j and d = 0]."""
    nv, lam = td.q.n_vertices, td.lam
    counts = lattice_counts(td, 2 * lam)
    bad = []
    for i in range(nv):
        for j in range(nv):
            for d in range(2 * lam + 1):
                total = counts[(i, j, d)] - counts[(i, j, d - lam)]
                for a in td.q.arrows:
                    w = td.wts[a.id]
                    if a.head == j:
                        total -= counts[(i, a.tail, d - w)]
                    if a.tail == j:
                        total += counts[(i, a.head, d - lam + w)]
                if total != (i == j and d == 0):
                    bad.append((i, j, d))
    return bad


def test_lattice_counts_meet_hilbert_identity():
    """The lattice counts the CY3 sizes are read from satisfy the counts
    form of the Calabi-Yau Hilbert series identity up to 2 lam on the
    consistent fixtures and gen-square 1-2, and break it on xyloops, which
    fails algebraic consistency: an independent check of the counts."""
    for name in ("conifold", "examplestp", "hexagonal", "memeg",
                 "nonmin_conifold"):
        assert hilbert_mismatches(toric(name)) == [], name
    for n in (1, 2):
        td = ToricData(pattern_to_dimer(square_pattern(n)))
        assert hilbert_mismatches(td) == [], n
    assert len(hilbert_mismatches(toric("xyloops"))) == 35


def test_relation_rank_matches_matrix_rank():
    """On every model that builds ToricData, at every vertex i, the first
    arrows of the p_a^+ sides over the in-arrows a of i list the out-arrows
    of i once, and so do those of the p_a^- sides; and for every mask of
    the in-arrows, the closed form of `fterm_relations`, popcount less 1
    at the full mask, is `_rank` of the rows e_{col b+} - e_{col b-} of the
    masked relations, b+- the first arrows of their sides and col the
    place among the out-arrows of i; a loop is a zero row."""
    masks = 0
    for name, td in built_models():
        for i in range(td.q.n_vertices):
            out, ins = td.q.out_arrows[i], td.q.in_arrows[i]
            for side in (0, 1):
                assert sorted(td.rels[a][side][0] for a in ins) == sorted(
                    out), (name, i, side)
            full = (1 << len(ins)) - 1
            for mask in range(1 << len(ins)):
                rows = []
                for n, a in enumerate(ins):
                    if mask >> n & 1:
                        row = [0] * len(out)
                        plus, minus = td.rels[a]
                        row[out.index(plus[0])] += 1
                        row[out.index(minus[0])] -= 1
                        rows.append(row)
                want = algebra._rank(rows)
                assert mask.bit_count() - (mask == full) == want, (
                    name, i, mask)
                masks += 1
    assert masks == 16852


def counting_find(monkeypatch) -> list[int]:
    """Route `algebra._find` through a wrapper; return its list of calls."""
    calls = []
    original = algebra._find

    def counting(parent, x):
        calls.append(x)
        return original(parent, x)

    monkeypatch.setattr(algebra, "_find", counting)
    return calls


def test_cy3_rank_work_does_not_grow_with_degree(monkeypatch):
    """The ranks of the relation masks are read from the relation cycle of
    `fterm_relations`, so on a fresh hexagonal ToricData the union-find
    calls of algebraic_consistency and cy3_check together are as many at
    D = 10 as at D = 20 (none at either, against 990 and 7,980 when each
    CY3 summand ran its own union-find), while the lattice points grow
    from 286 to 1,771."""
    calls = counting_find(monkeypatch)
    got = []
    for d in (10, 20):
        td = toric("hexagonal")
        calls.clear()
        assert td.algebraic_consistency(d).ok
        assert td.cy3_check(d).ok
        got.append(len(calls))
    assert got == [0, 0]


def test_fterm_classes_read_kept_ranks(monkeypatch):
    """Where every lighter point has one F-term class, a point's classes
    are read from the rank of its tail's relation cycle, so no point of a
    model that passes the algebraic rung runs the union-find of
    `_fterm_classes`, and `cy3_check` runs none: `algebraic_consistency`
    and `cy3_check` at 2 lam make no `_find` call on the 163 models of
    `all_models` with 2 lam <= 40 that pass the algebraic rung there."""
    calls = counting_find(monkeypatch)
    passed = 0
    for name, td in built_models():
        d = 2 * td.lam
        if d > 40:
            continue
        calls.clear()
        if not td.algebraic_consistency(d).ok:
            continue
        assert td.cy3_check(d).ok, name
        assert calls == [], name
        passed += 1
    assert passed == 163


def test_points_and_report_match_piece_oracle():
    """On every model of `all_models` that builds ToricData, bar square-4,
    at degree 4, lam and 2 lam up to 40, the keys listed from the column
    ranges are those of the `PathClass`es of the graded pieces, at the same
    radix and in the same order, and the report counted per piece from the
    keys is the one read piece by piece: verdict, piece statistics, and
    every failure's kind, class, degree and detail, in order."""
    pairs = failing = 0
    for name, g in all_models().items():
        if name == "square-4":
            continue
        try:
            td = ToricData(g)
        except DimerError:
            continue
        for d in sorted({d for d in (4, td.lam, 2 * td.lam) if d <= 40}):
            assert td._points(d) == points_oracle(td, d), (name, d)
            rep = td.algebraic_consistency(d)
            assert rep == consistency_report_oracle(td, d), (name, d)
            pairs += 1
            failing += not rep.ok
    assert pairs == 790
    assert failing == 115


def test_kernels_build_no_path_class(monkeypatch):
    """Once ToricData is built, the consistency and CY3 kernels build a
    `PathClass` only for a failure record: none on memeg at 2 lam, one per
    failure on xyloops, which fails algebraic consistency there."""
    made = []

    def counting(*args):
        made.append(args)
        return PathClass(*args)

    for name, ok in (("memeg", True), ("xyloops", False)):
        td = toric(name)
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "PathClass", counting)
            made.clear()
            rep = td.algebraic_consistency(2 * td.lam)
            assert rep.ok == ok, name
            if ok:
                assert td.cy3_check(2 * td.lam).ok
            else:
                with pytest.raises(DimerError, match="bases undefined"):
                    td.cy3_check(2 * td.lam)
        assert len(made) == len(rep.failures), name
    assert made and made == [(f.cls.tail, f.cls.head, f.cls.hom, f.cls.deg)
                             for f in rep.failures]


def test_keys_distinct_on_neighbours():
    """At the radix of `_points`, the keys of the lattice points up to
    2 lam and of their neighbours one arrow, relation side or face cycle
    away on either side read back to their coordinates (`decode_key`), so
    they are distinct, the points of extreme hom included, on every
    fixture that builds ToricData; and adding a delta to a key gives the
    neighbour's key."""
    for name in NONDEGENERATE:
        td = toric(name)
        nv, d = td.q.n_vertices, 2 * td.lam
        points = [m for i in range(nv) for j in range(nv)
                  for piece in td._pieces(i, j, d) for m in piece]
        r = td._points(d)[0]
        delta = td._deltas(r)
        # each step as (tail, head, hom, deg, delta)
        steps = [(a.tail, a.head, a.offset, a.id in td.pi0, delta[a.id])
                 for a in td.q.arrows]
        for plus, _ in td.rels.values():
            c = td.path_class(plus)
            steps.append((c.tail, c.head, c.hom, c.deg,
                          sum(delta[x] for x in plus)))
        steps += [(v, v, (0, 0), 1, r * r * nv * nv) for v in range(nv)]
        key_of = {}
        for m in points:
            k = point_key(m, r, nv)
            key_of[(m.tail, m.head, m.hom, m.deg)] = k
            for t, h, (ox, oy), dg, dx in steps:
                if t == m.tail:        # m less the step
                    key_of[(h, m.head, (m.hom[0] - ox, m.hom[1] - oy),
                            m.deg - dg)] = k - dx
                if h == m.tail:        # the step followed by m
                    key_of[(t, m.head, (m.hom[0] + ox, m.hom[1] + oy),
                            m.deg + dg)] = k + dx
        for (t, h, hom, dg), k in key_of.items():
            assert point_key(PathClass(t, h, hom, dg), r, nv) == k
            assert decode_key(k, r, nv) == (t, h, hom, dg), name
        assert len(set(key_of.values())) == len(key_of), name


def closed_points(td, max_weight):
    """All elements of M_o^+ (closed classes nonnegative on every matching)
    of weight at most max_weight, in (hom, deg) order."""
    return sorted((m for piece in td._pieces(0, 0, max_weight)
                   for m in piece), key=lambda m: (m.hom, m.deg))


def closed_points_lp(td, max_weight):
    """Oracle: M_o^+ up to max_weight by bounding (h, dd) jointly with
    three-variable LPs, then listing dd per offset h."""
    # vars: hx+, hx-, hy+, hy-, dd+, dd-
    a_ub = [[-m.cls[0], m.cls[0], -m.cls[1], m.cls[1], -1, 1]
            for m in td.matchings]                      # dd + c.h >= 0
    b_ub = [0] * len(a_ub)
    rx, ry, lam = td.rho[0], td.rho[1], td.lam
    a_ub += [[rx, -rx, ry, -ry, lam, -lam], [-rx, rx, -ry, ry, -lam, lam]]
    b_ub += [max_weight, 0]                     # 0 <= lam*dd + rho.h <= W
    bounds = []
    for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        res = solve_lp([sx, -sx, sy, -sy, 0, 0], [], [], a_ub, b_ub)
        if res.status == "infeasible":
            return []
        assert res.status == "optimal"
        bounds.append(res.objective)
    hx_hi, neg_hx_lo, hy_hi, neg_hy_lo = bounds
    out = []
    for hx in range(math.ceil(-neg_hx_lo), math.floor(hx_hi) + 1):
        for hy in range(math.ceil(-neg_hy_lo), math.floor(hy_hi) + 1):
            lo = max(-(m.cls[0] * hx + m.cls[1] * hy) for m in td.matchings)
            for dd in range(lo, (max_weight - rx * hx - ry * hy) // lam + 1):
                if 0 <= lam * dd + rx * hx + ry * hy <= max_weight:
                    out.append(((hx, hy), dd))
    return out


@pytest.mark.parametrize("model", list(NONDEGENERATE) + ["square-1",
                                                          "square-2"])
def test_closed_points_match_lp_oracle(model):
    if model.startswith("square-"):
        td = ToricData(pattern_to_dimer(square_pattern(int(model[-1]))))
    else:
        td = toric(model)
    lam = td.lam
    for w in (0, 1, lam, 2 * lam, 3 * lam + 1):
        got = [(m.hom, m.deg) for m in closed_points(td, w)]
        assert got == closed_points_lp(td, w), (model, w)


def piece_lp(td, i, j, d):
    """Oracle: the elements of M_ij^+ of weight exactly d, by an LP box on
    z = hom - hom(beta) with one row per matching, then filtering the grid
    points for an integral reference count and for membership in M_ij^+."""
    beta = td._base[(i, j)][0]
    b = td.path_class(beta, at=i)
    wb = td.path_weight(beta)
    lam, (rx, ry) = td.lam, td.rho
    # lam*(value of matching k on beta) + d - wb + (lam*c_k - rho).z >= 0
    rows = [(lam * m.cls[0] - rx, lam * m.cls[1] - ry,
             lam * sum(a in m.support for a in beta) + d - wb)
            for m in td.matchings]
    a_ub = [[-ax, ax, -ay, ay] for ax, ay, _ in rows]
    b_ub = [c for _, _, c in rows]
    bounds = []
    for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        res = solve_lp([sx, -sx, sy, -sy], [], [], a_ub, b_ub)
        if res.status == "infeasible":
            return []
        assert res.status == "optimal"
        bounds.append(res.objective)
    x_hi, neg_x_lo, y_hi, neg_y_lo = bounds
    out = []
    for zx in range(math.ceil(-neg_x_lo), math.floor(x_hi) + 1):
        for zy in range(math.ceil(-neg_y_lo), math.floor(y_hi) + 1):
            num = d - wb - rx * zx - ry * zy
            if num % lam == 0:
                m = PathClass(i, j, (b.hom[0] + zx, b.hom[1] + zy),
                              b.deg + num // lam)
                if in_M_plus(td, m):
                    out.append(m)
    return sorted(out, key=lambda m: (m.hom, m.deg))


@pytest.mark.parametrize("model", list(NONDEGENERATE) + ["square-1"])
def test_pieces_match_lp_oracle(model):
    """Every graded piece up to weight 2*lam equals the per-weight LP scan,
    whether the pieces were listed for a smaller bound first or not; the
    only closed class of weight 0 is zero."""
    if model.startswith("square-"):
        td = ToricData(pattern_to_dimer(square_pattern(int(model[-1]))))
    else:
        td = toric(model)
    top = 2 * td.lam
    nv = td.q.n_vertices
    for i in range(nv):
        td._pieces(i, (i + 1) % nv, td.lam)
    for i in range(nv):
        for j in range(nv):
            pieces = td._pieces(i, j, top)
            assert len(pieces) == top + 1
            for d in range(top + 1):
                assert td._pieces(i, j, d)[d] == pieces[d]
                assert pieces[d] == piece_lp(td, i, j, d), (model, i, j, d)
    assert [(m.hom, m.deg) for m in closed_points(td, 0)] == [((0, 0), 0)]


def column_points(cons):
    """The integer points `algebra._columns` lists."""
    return {(zx, zy) for zx, y0, y1 in algebra._columns(cons)
            for zy in range(y0, y1 + 1)}


def box_points(cons):
    """Oracle: the integer points of the LP bounding box that meet every
    row."""
    box = bounding_box_lp(cons)
    if box is None:
        return set()
    (x0, x1), (y0, y1) = box
    return {(zx, zy) for zx in range(x0, x1 + 1) for zy in range(y0, y1 + 1)
            if all(ax * zx + ay * zy + b >= 0 for ax, ay, b in cons)}


def outcome(points, cons):
    try:
        return points(cons)
    except DimerError as e:
        assert str(e).startswith("graded piece unbounded"), e
        return "unbounded"


def test_columns_match_lp_box():
    """`_columns` lists the integer points of the LP box that meet every
    row wherever the LP finds the region bounded or empty: on a few
    boundary cases (a region with no integer point is empty, also where
    its zx-range is a real interval between two integers) and on 3,000
    seeded random systems of 1-6 rows.  Where the LP finds it unbounded,
    `_columns` is not asked: no graded piece's rows are such
    (`test_graded_piece_rows_bound_every_direction`)."""
    cases = [
        [(0, 2, -1), (0, -2, 1)],              # the line zy = 1/2
        [(2, 0, -1), (-2, 0, 1)],              # the line zx = 1/2
        [(2, 0, -1), (-4, 0, 3)],              # 1/2 <= zx <= 3/4, zy free
        [(2, 0, -1), (-4, 0, 3), (0, 1, 0)],   # the same, zy >= 0
        [(2, 0, -1), (-4, 0, 1)],              # 1/2 <= zx <= 1/4
        [(1, 0, -1), (-1, 0, 0)],              # 1 <= zx <= 0, zy free
        [(0, 0, -1), (1, 1, 0)],               # -1 >= 0
        [(0, 0, 0)],                           # the whole plane
        [(1, 0, 0), (-1, 0, 2), (0, 1, 1), (0, -1, 1), (-1, -1, 2)],
    ]
    want = ["unbounded", "unbounded", "unbounded", "unbounded", set(),
            set(), set(), "unbounded",
            {(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, -1),
             (2, 0)}]
    assert [outcome(box_points, c) for c in cases] == want
    bounded = [(c, w) for c, w in zip(cases, want) if w != "unbounded"]
    assert [column_points(c) for c, _ in bounded] == [w for _, w in bounded]
    rng = random.Random(8)
    seen = Counter()
    for _ in range(3000):
        cons = [(rng.randint(-4, 4),
                 0 if rng.random() < 0.25 else rng.randint(-4, 4),
                 rng.randint(-8, 8)) for _ in range(rng.randint(1, 6))]
        want = outcome(box_points, cons)
        if want != "unbounded":
            assert column_points(cons) == want, cons
        seen["unbounded" if want == "unbounded" else
             "points" if want else "empty"] += 1
    assert min(seen[k] for k in ("empty", "unbounded", "points")) >= 100, \
        seen


def test_graded_piece_rows_bound_every_direction():
    """On every model that builds ToricData the classes span the plane and
    the mean class rho/lam lies inside their hull, so the normals
    lam*c - rho of `_pair_columns`' rows bound every direction, as
    `_columns` needs: each counterclockwise hull edge has the mean
    strictly on its left."""
    models = built_models()
    assert len(models) == 373
    for name, td in models:
        hull = polygon(td.matchings).vertices
        (rx, ry), lam = td.rho, td.lam
        assert len(hull) >= 3, name
        for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
            assert (bx - ax) * (ry - lam * ay) > (by - ay) * (rx - lam * ax), \
                name


def box_columns(cons):
    """The LP box as columns that each span the whole box: the scan the
    graded pieces made before `_columns`."""
    box = bounding_box_lp(cons)
    if box is None:
        return []
    (x0, x1), (y0, y1) = box
    return [(zx, y0, y1) for zx in range(x0, x1 + 1)]


@pytest.mark.parametrize("model", list(NONDEGENERATE) + [
    "square-1", "square-2", "square-3"])
def test_pieces_match_box_scan(model, monkeypatch):
    """The graded pieces of every vertex pair, listed by column ranges,
    equal those listed by scanning the LP bounding box: at lam and 2 lam
    on the fixtures, and at D = 4 and lam on gen-square 1-3."""
    if model.startswith("square-"):
        g = pattern_to_dimer(square_pattern(int(model[-1])))
    else:
        g = load_file(fixture_path(model))
    td, box_td = ToricData(g), ToricData(g)
    lam = td.lam
    bounds = (4, lam) if model.startswith("square-") else (lam, 2 * lam)
    nv = td.q.n_vertices
    for w in bounds:
        got = [td._pieces(i, j, w) for i in range(nv) for j in range(nv)]
        with monkeypatch.context() as mp:
            mp.setattr(algebra, "_columns", box_columns)
            want = [box_td._pieces(i, j, w)
                    for i in range(nv) for j in range(nv)]
        assert got == want, (model, w)


def center_generators_oracle(td, max_weight):
    """Oracle for `ToricData.center_generators`: the closed points that
    are no sum of two nonzero closed points, by testing each point against
    every other one."""
    pts = [m for m in closed_points(td, max_weight)
           if (m.hom, m.deg) != ((0, 0), 0)]
    index = {(m.hom, m.deg) for m in pts}
    gens = []
    for m in pts:
        decomposable = False
        for m1 in pts:
            rest = ((m.hom[0] - m1.hom[0], m.hom[1] - m1.hom[1]),
                    m.deg - m1.deg)
            if rest != ((0, 0), 0) and (m1.hom, m1.deg) != (m.hom, m.deg) \
                    and rest in index:
                decomposable = True
                break
        if not decomposable:
            gens.append(m)
    gens.sort(key=lambda m: (td.weight(m), m.hom, m.deg))
    return gens


def test_center_generators_match_oracle():
    """Testing each point against the generators found before it gives
    the generators of the pair loop, in the same order, on every fixture
    with matchings and on gen-square 1-3, at lam, 2 lam and 3 lam."""
    models = [(name, load_file(fixture_path(name))) for name in NONDEGENERATE]
    models += [(f"square-{n}", pattern_to_dimer(square_pattern(n)))
               for n in (1, 2, 3)]
    for name, g in models:
        td = ToricData(g)
        for k in (1, 2, 3):
            w = k * td.lam
            assert td.center_generators(w) == center_generators_oracle(td, w), \
                (name, k)


def test_center_generators_hexagonal():
    td = toric("hexagonal")
    gens = td.center_generators(8)
    assert len(gens) == 3
    assert all(g.tail == 0 and g.head == 0 for g in gens)


def test_center_generators_conifold():
    td = toric("conifold")
    gens = td.center_generators(2)
    assert len(gens) == 4
    assert all(td.weight(g) == 2 for g in gens)
    # the four generators satisfy one multiplicative relation: two
    # opposite products agree
    keyed = {g.hom: g for g in gens}
    prods = sorted([(0, 0), tuple_add(keyed[(1, 0)], keyed[(-1, 0)]),
                    tuple_add(keyed[(0, 1)], keyed[(0, -1)])][1:])
    assert prods[0] == prods[1]


def tuple_add(a: PathClass, b: PathClass):
    return (a.hom[0] + b.hom[0], a.hom[1] + b.hom[1], a.deg + b.deg)


def test_lattice_points_cover_paths():
    """Every actual path class appears among the computed lattice points."""
    rng = random.Random(5)
    for name in CONSISTENT:
        td = toric(name)
        for path in random_paths(td, rng, 40, 5):
            cls = td.path_class(path)
            d = td.weight(cls)
            pts = td._pieces(cls.tail, cls.head, d)[d]
            assert cls in pts
