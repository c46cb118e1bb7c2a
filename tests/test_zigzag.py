"""Zig-zag paths, geometric consistency, proper ordering."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CONSISTENT, NONDEGENERATE
from dimertools.matchings import nondegeneracy_check, polygon
from dimertools.surface import BLACK, DimerError
from dimertools.zigzag import (CosetCount, NonPrimitiveClass, ParallelShare,
                               SelfIntersection, ZeroClass, angular_sort,
                               boundary_flows, coset_reduce,
                               coset_representatives, geometric_check,
                               normal_polygon_twice_area, properly_ordered,
                               wedge, zigzag_paths)
from test_fans import all_models, enumerated

CLASSES = {
    "hexagonal": [(-1, 1), (0, -1), (1, 0)],
    "conifold": [(-1, 0), (0, -1), (0, 1), (1, 0)],
    "memeg": [(-1, -1), (0, -1), (0, 1), (0, 1), (1, 0)],
}


def test_path_structure(load_quiver):
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        paths = zigzag_paths(q)
        assert sum(p.period for p in paths) == 2 * q.n_arrows
        for role in ("zigs", "zags"):
            cover = sorted(a for p in paths for a in getattr(p, role))
            assert cover == list(range(q.n_arrows))
        for p in paths:
            # zig/zag alternation: a zig is followed by its successor in
            # its black face, a zag by its successor in its white face
            for i, a in enumerate(p.arrows):
                nxt = q.next_black if i % 2 == 0 else q.next_white
                assert nxt[a] == p.arrows[(i + 1) % p.period]
        # the successor maps are the face boundaries, read cyclically
        for f in q.faces:
            nxt = q.next_black if f.color == BLACK else q.next_white
            for i, a in enumerate(f.boundary):
                assert nxt[a] == f.boundary[(i + 1) % len(f.boundary)]


def test_known_classes(load_quiver):
    for name, classes in CLASSES.items():
        _, q = load_quiver(name)
        assert sorted(p.cls for p in zigzag_paths(q)) == classes


def test_geometric_verdicts(load_quiver):
    for name in CONSISTENT:
        _, q = load_quiver(name)
        assert geometric_check(zigzag_paths(q)).verdict


def test_nonminimal_conifold_double_crossing(load_quiver):
    _, q = load_quiver("nonmin_conifold")
    geo = geometric_check(zigzag_paths(q))
    assert not geo.verdict
    assert len(geo.failures) == 1
    (f,) = geo.failures
    assert isinstance(f, CosetCount) and f.count > 1


def test_parallel_share_failure(load_quiver):
    _, q = load_quiver("examplestp")
    geo = geometric_check(zigzag_paths(q))
    assert not geo.verdict
    assert all(isinstance(f, ParallelShare) for f in geo.failures)
    assert len(geo.failures) == 4
    pairs = {(f.path_a, f.path_b) for f in geo.failures}
    assert len(pairs) == 2      # two antiparallel pairs, two arrows each


def test_degenerate_failures(load_quiver):
    for name in ("three_rhombi", "balwnopm", "degenerate"):
        _, q = load_quiver(name)
        geo = geometric_check(zigzag_paths(q))
        assert not geo.verdict
        kinds = {type(f) for f in geo.failures}
        assert kinds & {SelfIntersection, ZeroClass}


@pytest.mark.parametrize("failure, text", [
    (SelfIntersection(1, 2, 3), "SelfIntersection(path=1, i=2, j=3)"),
    (ZeroClass(4), "ZeroClass(path=4)"),
    (NonPrimitiveClass(5), "NonPrimitiveClass(path=5)"),
    (ParallelShare(1, 2, 3), "ParallelShare(path_a=1, path_b=2, arrow=3)"),
    (CosetCount(0, 1, (1, 0), 2),
     "CosetCount(path_a=0, path_b=1, coset=(1, 0), count=2)"),
])
def test_failure_text(failure, text):
    """`zigzag` prints `str(f)` as a failure's detail.  The kinds are told
    apart by type alone: as tuples, equal fields make equal failures."""
    assert str(failure) == text


def test_properly_ordered(load_quiver):
    for name in CONSISTENT + ("nonmin_conifold", "examplestp"):
        _, q = load_quiver(name)
        paths = zigzag_paths(q)
        assert properly_ordered(q, paths)
        assert q.n_vertices == \
            normal_polygon_twice_area([p.cls for p in paths])


def test_normal_polygon_rejects_zero_class():
    with pytest.raises(DimerError):
        normal_polygon_twice_area([(0, 0), (1, 0), (-1, 0)])
    with pytest.raises(DimerError):
        normal_polygon_twice_area([(1, 0), (0, 1)])   # does not close


def test_boundary_flows(load_quiver):
    """Both flows have class -[eta] on every model; on the consistent ones
    they also avoid the path."""
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        for p in zigzag_paths(q):
            black, white = boundary_flows(q, p)
            for cyc in (black, white):
                assert q.walk_class(cyc) == (-p.cls[0], -p.cls[1])
                if name in CONSISTENT:
                    assert not set(cyc) & set(p.arrows)


def test_angular_sort_is_cyclic_order():
    vecs = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-2, 1), (1, -3)]
    s = angular_sort(vecs)
    assert set(s) == set(vecs)
    assert s[0] == (1, 0)
    # consecutive wedge nonnegative within each half turn
    for u, v in zip(s, s[1:]):
        assert wedge(u, v) > 0 or (u[1] >= 0) != (v[1] >= 0) or u == v


nonzero_vec = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda v: v != (0, 0))


@given(w=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       u=nonzero_vec, v=nonzero_vec)
@settings(max_examples=150, deadline=None)
def test_coset_reduce_properties(w, u, v):
    if wedge(u, v) == 0:
        return
    r = coset_reduce(w, u, v)
    assert coset_reduce(r, u, v) == r
    # w - r lies in the lattice spanned by u and v
    d = wedge(u, v)
    diff = (w[0] - r[0], w[1] - r[1])
    assert wedge(diff, v) % d == 0 and wedge(u, diff) % d == 0
    reps = coset_representatives(u, v)
    assert len(reps) == abs(d)
    assert r in reps


def grid_coset_representatives(u, v):
    """Oracle for `coset_representatives`: reduce the points of a grid
    around the origin until |u ^ v| distinct representatives are found."""
    d = abs(wedge(u, v))
    reps = set()
    bound = abs(u[0]) + abs(u[1]) + abs(v[0]) + abs(v[1]) + 1
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            reps.add(coset_reduce((x, y), u, v))
            if len(reps) == d:
                return sorted(reps)
    return sorted(reps)


def test_coset_representatives_match_grid_oracle():
    """The box 0 <= x < gcd(u_x, v_x), 0 <= y < |u ^ v| / gcd gives the
    same representatives as the grid scan, for every independent pair with
    entries in [-6, 6]."""
    vecs = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    pairs = 0
    for u in vecs:
        for v in vecs:
            if wedge(u, v) != 0:
                pairs += 1
                reps = coset_representatives(u, v)
                assert reps == grid_coset_representatives(u, v), (u, v)
                assert len(reps) == abs(wedge(u, v))
    assert pairs == 27_248


def test_vertex_count_is_twice_polygon_area_iff_properly_ordered():
    """On every non-degenerate model of `all_models`, gen-square 4
    included, |Q0| is twice the area of the matching polygon, the shoelace
    sum over its hull, exactly when the model is properly ordered;
    otherwise |Q0| is larger."""
    seen = Counter()
    for name, g in all_models().items():
        if not nondegeneracy_check(g).ok:
            continue
        _, q, paths, ms = enumerated(name)
        hull = polygon(ms).vertices
        twice = sum(ax * by - ay * bx for (ax, ay), (bx, by)
                    in zip(hull, hull[1:] + hull[:1]))
        ordered = properly_ordered(q, paths)
        assert (q.n_vertices == twice) == ordered, name
        assert q.n_vertices >= twice, name
        seen[ordered] += 1
    assert seen == {True: 300, False: 73}
