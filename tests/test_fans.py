"""Zig-zag fans, extremal and external matchings."""

from collections import Counter
from functools import lru_cache

import pytest

from conftest import CONSISTENT, fixture_path
from dimertools.fans import (Fan2D, boundary_system, external_matchings,
                             extremal_matching, global_fan, local_fan,
                             pairing, resonate)
from dimertools.matchings import enumerate_matchings, polygon
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.surface import DimerError, dualize, load_file
from dimertools.zigzag import zigzag_paths

# the consistent fixtures and the generated square-grid models n = 2..4
# (24, 448 and 26,752 perfect matchings)
WITH_SQUARES = CONSISTENT + ("square-2", "square-3", "square-4")


@lru_cache(maxsize=None)
def enumerated(name):
    """(graph, quiver, zig-zag paths, all perfect matchings) of a fixture
    or of `square-n`."""
    if name.startswith("square-"):
        g = pattern_to_dimer(square_pattern(int(name[len("square-"):])))
    else:
        g = load_file(fixture_path(name))
    q = dualize(g)
    return g, q, zigzag_paths(q), enumerate_matchings(g, q)


def test_fan_cones():
    fan = Fan2D(((1, 0), (0, 1), (-1, -1)))
    assert len(fan.cones) == 3
    assert fan.cone_containing((1, 1)) == ((1, 0), (0, 1))
    assert fan.cone_containing((-1, 0)) == ((0, 1), (-1, -1))
    with pytest.raises(DimerError):
        Fan2D(((1, 0), (-1, 0)))        # degenerate half-plane cone


def test_local_fans(load_quiver):
    for name in CONSISTENT:
        _, q = load_quiver(name)
        paths = zigzag_paths(q)
        for f in q.faces:
            lf = local_fan(q, paths, f.id)
            # one crossing path per boundary arrow pair
            assert len(lf.reps) == len(lf.fan.rays)
            assert len(lf.fan.rays) == len(f.boundary)
            # every tag is a boundary arrow, all distinct
            tags = list(lf.tags.values())
            assert len(set(tags)) == len(tags)
            assert set(tags) <= set(f.boundary)


def test_extremal_vertices_bijective():
    """Cones of the global fan pick out the polygon vertices, one matching
    each, with the class the enumeration gives that matching."""
    for name in WITH_SQUARES:
        g, q, paths, ms = enumerated(name)
        poly = polygon(ms)
        cls_of = {m.support: m.cls for m in ms}
        fan = global_fan(paths)
        picked = {}
        for sigma in fan.cones:
            ext = extremal_matching(q, paths, sigma)
            assert cls_of[ext.matching.support] == ext.matching.cls
            picked[sigma] = ext.matching
        classes = [m.cls for m in picked.values()]
        assert sorted(classes) == sorted(set(classes))
        assert sorted(classes) == sorted(poly.vertices)
        for cls in classes:
            assert poly.points[cls] == 1


def test_boundary_system_pairing(load_quiver):
    """An extremal matching vanishes on the systems of its own rays and is
    strictly positive on every other ray; no other matching vanishes on
    both rays."""
    for name in CONSISTENT:
        g, q = load_quiver(name)
        paths = zigzag_paths(q)
        ms = enumerate_matchings(g, q)
        fan = global_fan(paths)
        systems = {ray: boundary_system(q, paths, ray) for ray in fan.rays}
        for sigma in fan.cones:
            m = extremal_matching(q, paths, sigma).matching
            for ray in fan.rays:
                p = pairing(m, systems[ray])
                if ray in sigma:
                    assert p == 0
                else:
                    assert p > 0
            both = [x for x in ms
                    if pairing(x, systems[sigma[0]]) == 0
                    and pairing(x, systems[sigma[1]]) == 0]
            assert [x.support for x in both] == [m.support]


def test_adjacent_cone_resonance(load_quiver):
    """Resonating through every representative of a shared ray carries one
    cone's extremal matching to the other's."""
    for name in CONSISTENT:
        _, q = load_quiver(name)
        paths = zigzag_paths(q)
        fan = global_fan(paths)
        n = len(fan.rays)
        for i, gamma in enumerate(fan.rays):
            cw = (gamma, fan.rays[(i + 1) % n])      # gamma clockwise ray
            ccw = (fan.rays[(i - 1) % n], gamma)     # gamma ccw ray
            start = extremal_matching(q, paths, cw).matching
            target = extremal_matching(q, paths, ccw).matching
            m = start
            for eta in (p for p in paths if p.cls == gamma):
                m = resonate(q, m, eta, "zag->zig")
            assert (m.support, m.cls) == (target.support, target.cls)


def test_resonate_precondition(load_quiver):
    g, q = load_quiver("hexagonal")
    paths = zigzag_paths(q)
    ms = enumerate_matchings(g, q)
    eta = paths[0]
    missing = next(m for m in ms if not set(eta.zigs) <= m.support)
    with pytest.raises(DimerError):
        resonate(q, missing, eta, "zig->zag")
    with pytest.raises(ValueError):
        resonate(q, ms[0], eta, "sideways")


def test_external_multiplicities():
    """Matchings on a polygon facet count binomially in the number of ray
    representatives, and are exactly the enumerated matchings vanishing on
    the ray's boundary system, with the enumeration's classes."""
    from math import comb
    for name in WITH_SQUARES:
        g, q, paths, ms = enumerated(name)
        for gamma in global_fan(paths).rays:
            r = sum(1 for p in paths if p.cls == gamma)
            ext = external_matchings(q, paths, gamma)
            assert len(ext) == 2 ** r
            s = boundary_system(q, paths, gamma)
            vanishing = {m.support: m.cls for m in ms if pairing(m, s) == 0}
            assert vanishing == {m.support: m.cls for m in ext}
            hist = sorted(Counter(m.cls for m in ext).items())
            assert [k for _, k in hist] == [comb(r, i) for i in range(r + 1)]
