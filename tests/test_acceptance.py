"""End-to-end acceptance checks, one test (and one pass/fail line) per
criterion.  Each test prints a summary line; pytest -v adds its own
PASSED/FAILED line per criterion."""

import random
import time
from collections import Counter
from math import comb

from conftest import CONSISTENT, NONDEGENERATE, fixture_path
from dimertools.algebra import ToricData
from dimertools.cli import main as cli_main
from dimertools.fans import (boundary_system, external_matchings,
                             extremal_matching, global_fan, pairing,
                             resonate)
from dimertools.matchings import (bvn_decompose, enumerate_matchings,
                                  hall_check, nondegeneracy_check, polygon,
                                  polygon_normal_form, reference_matching)
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.surface import dualize, load_file
from dimertools.symmetry import find_anomaly_free
from dimertools.zigzag import (ParallelShare, geometric_check,
                               properly_ordered, zigzag_paths)


class stopwatch:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, \
                f"took {self.elapsed:.1f}s, limit {self.limit}s"


def report(n, text):
    print(f"CRITERION {n:2d} PASS: {text}")


def test_criterion_01_hexagonal():
    with stopwatch(5):
        g = load_file(fixture_path("hexagonal"))
        q = dualize(g)
        ms = enumerate_matchings(g, q)
        assert len(ms) == 3
        nf = polygon_normal_form(polygon(ms).points)
        assert nf == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1))
        assert geometric_check(zigzag_paths(q)).verdict
        td = ToricData(g, q)
        rep = td.algebraic_consistency(6)
        assert rep.ok
        sizes = [len(td._pieces(0, 0, d)[d]) for d in range(7)]
        assert sizes == [comb(d + 2, 2) for d in range(7)]
        assert sizes == [1, 3, 6, 10, 15, 21, 28]
        assert td.cy3_check(4).ok
    report(1, "hexagonal: triangle polygon, consistent, CY3 exact to deg 4")


def test_criterion_02_conifold():
    with stopwatch(10):
        g = load_file(fixture_path("conifold"))
        q = dualize(g)
        assert geometric_check(zigzag_paths(q)).verdict
        ms = enumerate_matchings(g, q)
        assert len(ms) == 4
        nf = polygon_normal_form(polygon(ms).points)
        assert nf == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1))
        td = ToricData(g, q)
        assert td.cy3_check(4).ok
        gens = td.center_generators(2)
        assert len(gens) == 4
        # all four generators sit in the lowest positive central degree
        assert {td.weight(c) for c in gens} == {td.lam // 2}
    report(2, "conifold: unit square, CY3 exact, 4 degree-one center "
           "generators")


def test_criterion_03_nonminimal_conifold():
    with stopwatch(30):
        dims = {}
        tds = {}
        for name in ("conifold", "nonmin_conifold"):
            g = load_file(fixture_path(name))
            q = dualize(g)
            td = ToricData(g, q)
            tds[name] = td
            nf = polygon_normal_form(
                polygon(enumerate_matchings(g, q)).points)
            dims[name, "nf"] = nf
            per_degree = Counter()
            for i in range(q.n_vertices):
                for j in range(q.n_vertices):
                    for d in range(2 * 4 + 1):
                        per_degree[d] += len(td._pieces(i, j, d)[d])
            dims[name, "dims"] = per_degree
        assert dims["conifold", "nf"] == dims["nonmin_conifold", "nf"]
        assert tds["conifold"].lam == tds["nonmin_conifold"].lam
        assert dims["conifold", "dims"] == dims["nonmin_conifold", "dims"]
    report(3, "non-minimal conifold: same polygon and graded dimensions "
           "as the conifold")


def test_criterion_04_consistent_but_not_geometric(capsys):
    g = load_file(fixture_path("examplestp"))
    q = dualize(g)
    assert find_anomaly_free(q) is not None
    geo = geometric_check(zigzag_paths(q))
    assert not geo.verdict
    # the failing pairs are parallel-class paths sharing arrows: the
    # flows meet more than once
    assert geo.failures
    assert all(isinstance(f, ParallelShare) for f in geo.failures)
    assert cli_main(["report", str(fixture_path("examplestp"))]) == 1
    capsys.readouterr()
    report(4, "examplestp: anomaly-free R exists, geometric check fails, "
           "report exits 1")


def test_criterion_05_degenerate_witnesses():
    g = load_file(fixture_path("balwnopm"))
    rep = hall_check(g)
    assert not rep.ok
    a, nbrs = rep.witness
    assert len(a) == 2 and len(nbrs) == 1

    g = load_file(fixture_path("degenerate"))
    nd = nondegeneracy_check(g)
    assert not nd.ok
    ms = enumerate_matchings(g)
    (forced,) = set.intersection(*[set(m.support) for m in ms])
    edge = g.edges[forced]
    neighbours = {e.id for e in g.edges if e.id != forced
                  and (e.black == edge.black or e.white == edge.white)}
    assert neighbours <= set(nd.dead_edges)
    report(5, "balwnopm: 2-vertex Hall witness; degenerate model: forced "
           "edge neighbours dead")


def test_criterion_06_memeg():
    g = load_file(fixture_path("memeg"))
    q = dualize(g)
    paths = zigzag_paths(q)
    assert len(paths) == 5
    assert sorted(Counter(p.cls for p in paths).items()) == \
        [((-1, -1), 1), ((0, -1), 1), ((0, 1), 2), ((1, 0), 1)]
    fan = global_fan(paths)
    assert len(fan.rays) == 4
    from dimertools.fans import local_fan
    for f in q.faces:
        lf = local_fan(q, paths, f.id)
        assert len(lf.fan.rays) == len(f.boundary)
        assert len(f.boundary) in (3, 4)
    ref = reference_matching(g)
    ext = extremal_matching(q, paths, ((0, -1), (1, 0)), ref)
    eta_pos = next(p for p in paths if p.cls == (1, 0))
    eta_neg = next(p for p in paths if p.cls == (0, -1))
    assert ext.support == frozenset(eta_pos.zigs) | frozenset(eta_neg.zags)
    exts = external_matchings(q, paths, (0, 1), ref)
    hist = sorted(Counter(m.cls for m in exts).items())
    assert [k for _, k in hist] == [1, 2, 1]
    report(6, "memeg: 5 paths, 4-ray fan, known extremal matching, "
           "externals 1,2,1")


def test_criterion_07_fan_suite():
    for name in CONSISTENT:
        g = load_file(fixture_path(name))
        q = dualize(g)
        paths = zigzag_paths(q)
        ms = enumerate_matchings(g, q)
        poly = polygon(ms)
        fan = global_fan(paths)
        systems = {ray: boundary_system(q, paths, ray) for ray in fan.rays}
        ref = reference_matching(g)
        extremals = {}
        for sigma in fan.cones:
            m = extremal_matching(q, paths, sigma, ref)
            extremals[sigma] = m
            assert pairing(m, systems[sigma[0]]) == 0
            assert pairing(m, systems[sigma[1]]) == 0
            both = [x for x in ms if all(
                pairing(x, systems[r]) == 0 for r in sigma)]
            assert [x.support for x in both] == [m.support]
        classes = sorted(m.cls for m in extremals.values())
        assert classes == sorted(poly.vertices)
        assert all(poly.points[c] == 1 for c in classes)
        n = len(fan.rays)
        for i, gamma in enumerate(fan.rays):
            cw = (gamma, fan.rays[(i + 1) % n])
            ccw = (fan.rays[(i - 1) % n], gamma)
            m = extremals[cw]
            for eta in (p for p in paths if p.cls == gamma):
                m = resonate(q, m, eta, "zag->zig")
            assert m.support == extremals[ccw].support
    report(7, "extremal matchings = polygon vertices; boundary pairings "
           "and ray resonance hold")


def test_criterion_08_bvn_suite():
    rng = random.Random(2024)
    for name in NONDEGENERATE:
        g = load_file(fixture_path(name))
        q = dualize(g)
        ms = enumerate_matchings(g, q)
        for _ in range(200):
            k = rng.randint(1, 5)
            chosen = [rng.choice(ms) for _ in range(k)]
            vec = {e.id: 0 for e in g.edges}
            for m in chosen:
                for e in m.support:
                    vec[e] += 1
            parts = bvn_decompose(g, vec)
            assert len(parts) == k
            back = {e.id: 0 for e in g.edges}
            for m in parts:
                for e in m.support:
                    back[e] += 1
            assert back == vec
    report(8, "200 random matching sums per fixture decompose and re-sum "
           "exactly")


def test_criterion_09_generator_pipeline():
    with stopwatch(60):
        for n in (1, 2, 3):
            g = pattern_to_dimer(square_pattern(n))
            q = dualize(g)
            assert q.n_vertices == 2 * n * n
            assert hall_check(g).ok
            assert nondegeneracy_check(g).ok
            assert find_anomaly_free(q) is not None
            paths = zigzag_paths(q)
            assert geometric_check(paths).verdict
            assert properly_ordered(q, paths)
            nf = polygon_normal_form(
                polygon(enumerate_matchings(g, q)).points)
            pts = [p for p, _ in nf]
            assert set(pts) == {(x, y) for x in range(n + 1)
                                for y in range(n + 1)}
            corner_mults = {p: m for p, m in nf if p in
                            {(0, 0), (n, 0), (0, n), (n, n)}}
            assert set(corner_mults.values()) == {1}
    report(9, "square-grid models n=1..3 pass the full ladder with n x n "
           "square polygons")


def test_criterion_10_uniqueness_spot_check():
    with stopwatch(30):
        rng = random.Random(99)
        for name in ("hexagonal", "conifold"):
            g = load_file(fixture_path(name))
            td = ToricData(g)
            out_arrows = {}
            for a in td.q.arrows:
                out_arrows.setdefault(a.tail, []).append(a.id)
            by_class = {}
            for _ in range(900):
                v = rng.randrange(td.q.n_vertices)
                path = []
                u = v
                for _ in range(rng.randint(1, 5)):
                    a = rng.choice(out_arrows[u])
                    path.append(a)
                    u = td.q.arrows[a].head
                cls = td.path_class(tuple(path), at=v)
                by_class.setdefault(cls, set()).add(tuple(path))
            equal_pairs = unequal_pairs = 0
            classes = list(by_class)
            while equal_pairs < 500:
                cls = rng.choice(classes)
                group = sorted(by_class[cls])
                p1, p2 = rng.choice(group), rng.choice(group)
                assert p2 in td.fterm_closure(p1)
                equal_pairs += 1
            while unequal_pairs < 500:
                c1, c2 = rng.choice(classes), rng.choice(classes)
                if c1 == c2 or c1.tail != c2.tail or c1.head != c2.head:
                    continue
                p1 = rng.choice(sorted(by_class[c1]))
                p2 = rng.choice(sorted(by_class[c2]))
                assert p2 not in td.fterm_closure(p1)
                unequal_pairs += 1
    report(10, "500 equal-class path pairs F-term connected; unequal-class "
           "pairs never")
