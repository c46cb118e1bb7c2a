"""Zig-zag fans, extremal and external matchings."""

import random
import re
import sys
from collections import Counter
from functools import lru_cache

import pytest

from conftest import ALL_FIXTURES, CONSISTENT, fixture_path
from dimertools.fans import (Fan2D, LocalFan, boundary_system,
                             external_matchings, extremal_matching,
                             global_fan, local_fan, pairing, resonate)
from dimertools.matchings import (PerfectMatching, enumerate_matchings,
                                  listing_order, pm_class, polygon,
                                  reference_matching)
from dimertools.polygen import merging_move, pattern_to_dimer, square_pattern
from dimertools.surface import (BLACK, DimerError, dualize, load_file,
                                split_vertex, vadd)
from dimertools.zigzag import (angular_sort, crossing_paths, geometric_check,
                               wedge, zigzag_paths)

# the consistent fixtures and the generated square-grid models n = 2..4
# (24, 448 and 26,752 perfect matchings)
WITH_SQUARES = CONSISTENT + ("square-2", "square-3", "square-4")


@lru_cache(maxsize=None)
def all_models():
    """name -> dimer graph: every fixture that loads, gen-square 1-4, the
    models of one to three seeded merging moves on the square patterns of
    size 1-3 (of 400 tries, those that load), and every vertex split of
    hexagonal, conifold, memeg and gen-square 1-2."""
    out = {}
    for name in ALL_FIXTURES:
        try:
            out[name] = load_file(fixture_path(name))
        except DimerError:
            continue                # cube does not load
    for n in (1, 2, 3, 4):
        out[f"square-{n}"] = pattern_to_dimer(square_pattern(n))
    rng = random.Random(1)
    for k in range(400):
        p = square_pattern(rng.choice((1, 2, 3)))
        try:
            for _ in range(rng.randint(1, 3)):
                p = merging_move(p, rng.randrange(p.n_crossings))
            out[f"merged-{k}"] = pattern_to_dimer(p)
        except DimerError:
            continue
    for name in ("hexagonal", "conifold", "memeg", "square-1", "square-2"):
        g = out[name]
        for v, rot in enumerate(g.rotation):
            for pos in range(len(rot)):
                out[f"{name}-split-{v}-{pos}"] = split_vertex(g, v, pos)
    return out


@lru_cache(maxsize=None)
def zigzag(name):
    """(quiver, zig-zag paths, geometrically consistent?) of a model of
    `all_models`, or None if it does not dualize."""
    try:
        q = dualize(all_models()[name])
    except DimerError:
        return None
    paths = zigzag_paths(q)
    return q, paths, geometric_check(paths).verdict


def consistent_models():
    return [name for name in all_models()
            if zigzag(name) is not None and zigzag(name)[2]]


@lru_cache(maxsize=None)
def enumerated(name):
    """(graph, quiver, zig-zag paths, all perfect matchings) of a model of
    `all_models`."""
    g = all_models()[name]
    q, paths, _ = zigzag(name)
    return g, q, paths, enumerate_matchings(g, q)


def local_fan_oracle(q, paths, fid):
    """Oracle for `local_fan`: each path crossing the face enters and
    leaves it through two consecutive boundary arrows (zig then zag in a
    black face, zag then zig in a white one); each cone is tagged by the
    one arrow its two representatives share."""
    zig_of, zag_of = crossing_paths(paths)
    f = q.faces[fid]
    lookup, nxt = ((zig_of, q.next_black) if f.color == BLACK
                   else (zag_of, q.next_white))
    cross = {}
    for a in f.boundary:
        p = lookup[a]
        if p in cross:
            raise DimerError("path crosses a face twice (inconsistent model)")
        cross[p] = (a, nxt[a])
    reps = {}
    for p in cross:
        cls = paths[p].cls
        if cls in reps:
            raise DimerError("two parallel paths cross one face")
        reps[cls] = p
    fan = Fan2D(tuple(angular_sort(list(reps))))
    tags = {}
    for u, v in fan.cones:
        shared = set(cross[reps[u]]) & set(cross[reps[v]])
        if len(shared) != 1:
            raise DimerError("adjacent representatives must chain")
        tags[(u, v)] = shared.pop()
    return LocalFan(fid, fan, reps, tags)


def extremal_matching_oracle(q, paths, sigma):
    """Oracle for `extremal_matching`: every face donates the tag of the
    first cone of its local fan whose closed span holds the ray-sum of
    sigma."""
    probe = vadd(*sigma)
    chosen = []
    for f in q.faces:
        lf = local_fan_oracle(q, paths, f.id)
        cone = next((c for c in lf.fan.cones
                     if wedge(c[0], probe) >= 0 and wedge(probe, c[1]) >= 0
                     and wedge(*c) > 0), None)
        if cone is None:
            raise DimerError(f"no cone contains {probe}: fan not complete")
        chosen.append(lf.tags[cone])
    support = frozenset(chosen)
    for f in q.faces:
        if sum(a in support for a in f.boundary) != 1:
            raise DimerError("cone tags do not form a perfect matching")
    return PerfectMatching.from_support(support, pm_class(
        support, reference_matching(q.graph), q.graph))


def outcome(f, *args):
    """f(*args), or "raises" if it raises a DimerError."""
    try:
        return f(*args)
    except DimerError:
        return "raises"


def test_fan_cones():
    """Fans refuse a degenerate cone; a gamma that is not a ray of the
    global fan, or a sigma that is not one of its cones (in either order),
    is a DimerError naming it."""
    fan = Fan2D(((1, 0), (0, 1), (-1, -1)))
    assert len(fan.cones) == 3
    with pytest.raises(DimerError):
        Fan2D(((1, 0), (-1, 0)))        # degenerate half-plane cone
    q, paths, _ = zigzag("hexagonal")
    ref = reference_matching(q.graph)
    assert global_fan(paths).rays == ((1, 0), (-1, 1), (0, -1))
    with pytest.raises(DimerError, match=re.escape("(0, 1)")):
        external_matchings(q, paths, (0, 1), ref)
    for sigma in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, -1))):
        with pytest.raises(DimerError, match=re.escape(str(sigma))):
            extremal_matching(q, paths, sigma, ref)


def test_extremal_names_geometric_rung():
    """On `examplestp`, which is algebraically consistent but not
    geometrically consistent, every cone is refused as a failure of the
    geometric rung, not as an inconsistent model."""
    q, paths, consistent = zigzag("examplestp")
    assert not consistent
    ref = reference_matching(q.graph)
    for sigma in global_fan(paths).cones:
        with pytest.raises(DimerError, match=re.escape(
                "arrow 8 do not turn counterclockwise (not geometrically "
                "consistent)")):
            extremal_matching(q, paths, sigma, ref)


def test_fan_matchings_run_no_reference_search(load_quiver, monkeypatch):
    """Given a reference found beforehand, the matchings of every cone and
    every ray come out the same while `reference_matching` raises in each
    module that imports it: no function of `fans` searches for it."""
    def refuse(g):
        raise AssertionError("reference_matching called")

    for name in CONSISTENT:
        g, q = load_quiver(name)
        paths = zigzag_paths(q)
        ref = reference_matching(g)
        fan = global_fan(paths)

        def fan_matchings():
            return ([extremal_matching(q, paths, s, ref) for s in fan.cones],
                    [external_matchings(q, paths, r, ref) for r in fan.rays])
        want = fan_matchings()
        with monkeypatch.context() as mp:
            for mod_name, module in list(sys.modules.items()):
                if (mod_name.startswith("dimertools")
                        and hasattr(module, "reference_matching")):
                    mp.setattr(module, "reference_matching", refuse)
            assert fan_matchings() == want, name


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


def test_local_fan_matches_oracle():
    """On every face of every model that dualizes, the tags read from the
    (zig path, zag path) pair of each boundary arrow give the oracle's fan,
    representatives and tags, or both raise."""
    raised = 0
    for name in all_models():
        if zigzag(name) is None:
            continue
        q, paths, _ = zigzag(name)
        for f in q.faces:
            want = outcome(local_fan_oracle, q, paths, f.id)
            assert outcome(local_fan, q, paths, f.id) == want, (name, f.id)
            raised += want == "raises"
    assert raised > 0


def test_extremal_matches_oracle():
    """On every cone of every geometrically consistent model, the
    per-arrow rule picks the oracle's matching with the oracle's class.
    On the other models it raises wherever the oracle raises, and agrees
    where neither does; on 9 of their cones only the per-arrow rule
    raises, because the two paths through an arrow turn clockwise."""
    cones = only_new = 0
    for name in all_models():
        if zigzag(name) is None:
            continue
        q, paths, consistent = zigzag(name)
        fan = outcome(global_fan, paths)
        if fan == "raises":
            continue
        ref = reference_matching(q.graph)
        for sigma in fan.cones:
            got = outcome(extremal_matching, q, paths, sigma, ref)
            want = outcome(extremal_matching_oracle, q, paths, sigma)
            if consistent:
                assert got == want != "raises", (name, sigma)
                cones += 1
            elif want == "raises":
                assert got == "raises", (name, sigma)
            else:
                assert got in ("raises", want), (name, sigma)
                only_new += got == "raises"
    assert (cones, only_new) == (840, 9)


def test_extremal_vertices_bijective():
    """On every geometrically consistent model, cones of the global fan
    pick out the polygon vertices, one matching each, with the class the
    enumeration gives that matching.  The two paths through every arrow
    turn counterclockwise from its zag path to its zig path, and each
    cone's matching holds the zigs of the paths on its counterclockwise
    ray and the zags of those on its clockwise ray."""
    for name in consistent_models():
        g, q, paths, ms = enumerated(name)
        zig_of, zag_of = crossing_paths(paths)
        for a in range(q.n_arrows):
            assert wedge(paths[zag_of[a]].cls, paths[zig_of[a]].cls) > 0
        poly = polygon(ms)
        cls_of = {m.support: m.cls for m in ms}
        fan = global_fan(paths)
        ref = reference_matching(g)
        picked = {}
        for sigma in fan.cones:
            m = extremal_matching(q, paths, sigma, ref)
            assert cls_of[m.support] == m.cls
            for p in paths:
                if p.cls == sigma[1]:
                    assert set(p.zigs) <= m.support, (name, sigma)
                if p.cls == sigma[0]:
                    assert set(p.zags) <= m.support, (name, sigma)
            picked[sigma] = m
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
        ref = reference_matching(g)
        for sigma in fan.cones:
            m = extremal_matching(q, paths, sigma, ref)
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
        g, q = load_quiver(name)
        paths = zigzag_paths(q)
        ref = reference_matching(g)
        fan = global_fan(paths)
        n = len(fan.rays)
        for i, gamma in enumerate(fan.rays):
            cw = (gamma, fan.rays[(i + 1) % n])      # gamma clockwise ray
            ccw = (fan.rays[(i - 1) % n], gamma)     # gamma ccw ray
            start = extremal_matching(q, paths, cw, ref)
            target = extremal_matching(q, paths, ccw, ref)
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


def test_resonance_steps_class_by_quarter_turn():
    """Resonating along a zig-zag path of class c moves the class by the
    quarter turn (c_y, -c_x) of c: zag->zig adds it, zig->zag subtracts
    it.  Checked from the first 20 matchings in `listing_order` of every
    model of `all_models` but gen-square 4, along every path that can
    resonate."""
    done = 0
    for name in all_models():
        if name == "square-4" or zigzag(name) is None:
            continue
        _, q, paths, ms = enumerated(name)
        for m in listing_order(ms)[:20]:
            for eta in paths:
                turn = (eta.cls[1], -eta.cls[0])
                for direction, sign in (("zag->zig", 1), ("zig->zag", -1)):
                    try:
                        out = resonate(q, m, eta, direction)
                    except DimerError:
                        continue
                    step = (out.cls[0] - m.cls[0], out.cls[1] - m.cls[1])
                    assert step == (sign * turn[0], sign * turn[1]), name
                    done += 1
    assert done == 4574


def test_external_multiplicities():
    """Matchings on a polygon facet count binomially in the number of ray
    representatives, and are exactly the enumerated matchings vanishing on
    the ray's boundary system, with the enumeration's classes."""
    from math import comb
    for name in WITH_SQUARES:
        g, q, paths, ms = enumerated(name)
        ref = reference_matching(g)
        for gamma in global_fan(paths).rays:
            r = sum(1 for p in paths if p.cls == gamma)
            ext = external_matchings(q, paths, gamma, ref)
            assert len(ext) == 2 ** r
            s = boundary_system(q, paths, gamma)
            vanishing = {m.support: m.cls for m in ms if pairing(m, s) == 0}
            assert vanishing == {m.support: m.cls for m in ext}
            hist = sorted(Counter(m.cls for m in ext).items())
            assert [k for _, k in hist] == [comb(r, i) for i in range(r + 1)]
