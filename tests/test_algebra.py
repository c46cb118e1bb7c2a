"""Graded pieces, F-term classes, bounded-degree consistency and the
one-sided complex."""

import math
import random

import pytest

from conftest import CONSISTENT, NONDEGENERATE
from dimertools.algebra import PathClass, ToricData
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.rationallp import solve_lp
from dimertools.surface import DimerError, load_file
from conftest import fixture_path


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


def test_pm_eval_counts_matched_arrows():
    """Evaluating a matching on a path class counts how often the path
    runs through the matching, for every matching and random path."""
    rng = random.Random(11)
    for name in CONSISTENT:
        td = toric(name)
        for path in random_paths(td, rng, 50, 6):
            cls = td.path_class(path)
            for k, m in enumerate(td.matchings):
                crossed = sum(1 for a in path if a in m.support)
                assert td.pm_eval(k, cls) == crossed


def test_weight_is_grading():
    td = toric("hexagonal")
    rng = random.Random(3)
    for path in random_paths(td, rng, 30, 5):
        cls = td.path_class(path)
        assert td.weight(cls) == td.path_weight(path)
        assert td.weight(cls) == sum(td.wts[a] for a in path)


def test_face_cycle_class():
    """Every face boundary represents the same closed class of weight
    lambda, evaluating to one on each matching."""
    for name in CONSISTENT:
        td = toric(name)
        classes = set()
        for f in td.q.faces:
            start = td.q.arrows[f.boundary[0]].tail
            cyc = td.q.face_cycle_from(f.id, f.boundary[0])
            cls = td.path_class(cyc, at=start)
            assert td.weight(cls) == td.lam
            assert cls.hom == (0, 0)
            classes.add((cls.hom, cls.deg))
            for k in range(len(td.matchings)):
                assert td.pm_eval(k, cls) == 1
        assert len(classes) == 1


def test_hexagonal_piece_sizes():
    td = toric("hexagonal")
    assert [len(td._piece(0, 0, d)) for d in range(7)] == \
        [1, 3, 6, 10, 15, 21, 28]


def test_fterm_closure_small():
    td = toric("hexagonal")
    # two loops commute through the relations
    a, b = 0, 1
    cl = td.fterm_closure((a, b))
    assert (b, a) in cl


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
    original = ToricData.paths_from

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(ToricData, "paths_from", counting)
    assert td.algebraic_consistency(3).ok
    assert td.cy3_check(3).ok
    assert len(calls) == td.q.n_vertices


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
        got = [(m.hom, m.deg) for m in td.closed_points(w)]
        assert got == closed_points_lp(td, w), (model, w)


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
            pts = td._piece(cls.tail, cls.head, td.weight(cls))
            assert cls in pts


def test_avoid_path():
    for name in CONSISTENT:
        td = toric(name)
        pm = td.matchings[0]
        for i in range(td.q.n_vertices):
            # trivial case: empty path at the vertex itself
            assert td.avoid_path(i, i, (0, 0), pm) == ()
        found = 0
        for a in td.q.arrows:
            p = td.avoid_path(a.tail, a.head, a.offset, pm)
            if p is not None:
                found += 1
                assert all(x not in pm.support for x in p)
                cls = td.path_class(p, at=a.tail)
                assert cls.tail == a.tail and cls.head == a.head
                assert cls.hom == a.offset
        assert found > 0
