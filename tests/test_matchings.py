"""Perfect matchings, the matching polygon, BvN decomposition."""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain, groupby

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (ALL_FIXTURES, FIXTURES, NONDEGENERATE,
                      _extend_matchings_oracle, closed_walk_oracle,
                      enumerate_matchings_oracle,
                      fixture_path, matching_counts_oracle,
                      nondegeneracy_oracle, polygon_normal_form_oracle)
from dimertools import matchings
from dimertools.cli import main
from dimertools.matchings import (PerfectMatching, bvn_decompose,
                                  coboundary, enumerate_matchings,
                                  hall_check, listing_order,
                                  nondegeneracy_check, pm_class, polygon,
                                  polygon_normal_form, reference_matching)
from dimertools.polygen import merging_move, pattern_to_dimer, square_pattern
from dimertools.surface import (BLACK, WHITE, DimerError, TorusGraph,
                                dualize, dump, load_file)
from dimertools.symmetry import default_r_symmetry
from test_fans import all_models, enumerated, zigzag

MATCHING_COUNTS = {"hexagonal": 3, "conifold": 4, "memeg": 6,
                   "examplestp": 9, "xyloops": 6}


def test_matching_counts(load_quiver):
    for name, count in MATCHING_COUNTS.items():
        g, q = load_quiver(name)
        ms = enumerate_matchings(g, q)
        assert len(ms) == count, name
        for m in ms:
            cb = coboundary(g, {e: 1 for e in m.support})
            assert set(cb.values()) == {1}


def test_hall_passes(load_fixture):
    for name in NONDEGENERATE:
        assert hall_check(load_fixture(name)).ok


def test_hall_witness(load_fixture):
    g = load_fixture("balwnopm")
    rep = hall_check(g)
    assert not rep.ok
    a, nbrs = rep.witness
    assert len(a) == 2 and len(nbrs) == 1
    # the witness really violates the marriage condition
    actual_nbrs = {e.white for e in g.edges if e.black in a}
    assert actual_nbrs == nbrs


def test_degenerate_forced_edge(load_fixture):
    g = load_fixture("degenerate")
    rep = nondegeneracy_check(g)
    assert not rep.ok
    ms = enumerate_matchings(g)
    forced = set.intersection(*[set(m.support) for m in ms])
    assert len(forced) == 1
    (f,) = forced
    edge = g.edges[f]
    neighbours = {e.id for e in g.edges if e.id != f
                  and (e.black == edge.black or e.white == edge.white)}
    assert neighbours <= set(rep.dead_edges)


def test_nondegenerate_fixtures(load_fixture):
    for name in NONDEGENERATE:
        assert nondegeneracy_check(load_fixture(name)).ok


def test_polygon_shapes(load_quiver):
    g, q = load_quiver("hexagonal")
    poly = polygon(enumerate_matchings(g, q))
    assert len(poly.points) == 3 and set(poly.points.values()) == {1}
    assert len(poly.vertices) == 3

    g, q = load_quiver("memeg")
    poly = polygon(enumerate_matchings(g, q))
    assert len(poly.vertices) == 4
    assert all(poly.is_external(p) for p in poly.points)
    # one facet midpoint carries two matchings, everything else one
    mids = [p for p in poly.points if not poly.is_vertex(p)]
    assert len(mids) == 1 and poly.points[mids[0]] == 2
    assert all(poly.points[p] == 1 for p in poly.vertices)

    g, q = load_quiver("examplestp")
    poly = polygon(enumerate_matchings(g, q))
    # square with a quintuple interior point
    interior = [p for p in poly.points if not poly.is_external(p)]
    assert len(interior) == 1 and poly.points[interior[0]] == 5


UNIMODULAR = [(1, 0, 0, 1), (0, -1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
              (-1, 0, 0, -1), (2, 1, 1, 1), (1, -1, 0, 1), (3, 2, 1, 1)]
POINT_SETS = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                             st.integers(1, 12), min_size=1, max_size=9)


@given(points=POINT_SETS, mat=st.sampled_from(UNIMODULAR),
       shift=st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
@example(points={(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 12, (2, 1): 1,
                 (1, 2): 1, (2, 2): 1}, mat=(3, 2, 1, 1), shift=(1, -2))
@settings(max_examples=200, deadline=None)
def test_normal_form_invariance(points, mat, shift):
    """The polygon normal form does not change under a lattice symmetry."""
    a, b, c, d = mat
    moved = {(a * x + b * y + shift[0], c * x + d * y + shift[1]): m
             for (x, y), m in points.items()}
    assert polygon_normal_form(points) == polygon_normal_form(moved)


def random_point_sets(rng, count):
    """Weighted point sets with coordinates in [-2, 2]: every fifth is
    collinear along a random primitive direction, every tenth a single
    point."""
    out = []
    for k in range(count):
        if k % 10 == 9:
            pts = [(rng.randint(-2, 2), rng.randint(-2, 2))]
        elif k % 5 == 0:
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2),
                                 (2, 1), (1, -2), (2, -1)])
            pts = [(t * dx, t * dy) for t in range(-2, 3)
                   if abs(t * dx) <= 2 and abs(t * dy) <= 2]
            pts = rng.sample(pts, rng.randint(2, len(pts)))
        else:
            pts = [(rng.randint(-2, 2), rng.randint(-2, 2))
                   for _ in range(rng.randint(2, 8))]
        out.append({p: rng.randint(1, 3) for p in pts})
    return out


def test_normal_form_matches_oracle():
    """The hull-edge normal form equals the bounded matrix search of
    `conftest` on the polygon of every model of `all_models` that has a
    perfect matching, and on seeded random weighted point sets."""
    for name in all_models():
        ms = enumerated(name)[3]
        if ms:
            points = polygon(ms).points
            assert (polygon_normal_form(points)
                    == polygon_normal_form_oracle(points)), name
    for points in random_point_sets(random.Random(18), 400):
        assert (polygon_normal_form(points)
                == polygon_normal_form_oracle(points)), points


def test_normal_form_of_nothing_raises():
    with pytest.raises(DimerError, match="empty"):
        polygon_normal_form({})


def test_bvn_round_trip():
    rng = random.Random(7)
    for name in NONDEGENERATE:
        g = load_file(fixture_path(name))
        q = dualize(g)
        ms = enumerate_matchings(g, q)
        for _ in range(25):
            k = rng.randint(1, 5)
            chosen = [rng.choice(ms) for _ in range(k)]
            vec = {e.id: 0 for e in g.edges}
            for m in chosen:
                for e in m.support:
                    vec[e] += 1
            parts = bvn_decompose(g, vec)
            assert len(parts) == k
            assert set(parts) <= set(ms)        # supports and classes
            back = {e.id: 0 for e in g.edges}
            for m in parts:
                for e in m.support:
                    back[e] += 1
            assert back == vec


def _loadable_models():
    """(name, graph) for every fixture that loads and gen-square 1-4."""
    graphs = []
    for name in ALL_FIXTURES:
        try:
            graphs.append((name, load_file(fixture_path(name))))
        except DimerError:
            continue                # cube does not load
    return graphs + [(f"square-{n}", pattern_to_dimer(square_pattern(n)))
                     for n in (1, 2, 3, 4)]


def test_reference_matching_without_enumeration():
    """The greedy search finds the first matching of the oracle list on
    every model of `all_models`, and None where there is no perfect
    matching."""
    with_matchings = 0
    for name, g in all_models().items():
        ms = enumerate_matchings_oracle(g)
        want = ms[0].support if ms else None
        assert reference_matching(g) == want, name
        with_matchings += bool(ms)
    assert with_matchings == 374


def test_join_packs_edge_bits_only(monkeypatch):
    """On every model of `all_models`, each packed value `_join` returns
    is a matching's edge bits alone, below 2^|E|, and the values are the
    bits of the listed matchings."""
    join = matchings._join
    out = []
    monkeypatch.setattr(matchings, "_join",
                        lambda nbrs, middle: out.append(join(nbrs, middle))
                        or out[-1])
    for name, g in all_models().items():
        out.clear()
        ms = enumerate_matchings(g)
        (by_cls,) = out
        packed = sorted(chain.from_iterable(by_cls.values()))
        assert all(p < 1 << len(g.edges) for p in packed), name
        assert packed == sorted(m.bits for m in ms), name


def test_enumeration_searches_reference_once(monkeypatch):
    """`enumerate_matchings` calls `reference_matching` once on every
    fixture that has perfect matchings and on gen-square 1-3, and never on
    balwnopm and three_rhombi, which have none."""
    search = matchings.reference_matching
    calls = []
    monkeypatch.setattr(matchings, "reference_matching",
                        lambda g: calls.append(g) or search(g))
    for name, g in _loadable_models():
        if name == "square-4":
            continue
        calls.clear()
        ms = enumerate_matchings(g)
        assert (ms == []) == (name in ("three_rhombi", "balwnopm")), name
        assert calls == ([g] if ms else []), name


def _merged_models(count, seed):
    """count models from up to three seeded merging moves on the square
    patterns of size 1 and 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = square_pattern(rng.choice((1, 2)))
        try:
            for _ in range(rng.randint(1, 3)):
                p = merging_move(p, rng.randrange(p.n_crossings))
            out.append(pattern_to_dimer(p))
        except DimerError:
            continue
    return out


def assert_listed(ms, want, where):
    """ms holds the matchings of the oracle list want as
    `enumerate_matchings` lists them: in `listing_order` they are want,
    the first is want's first, and each class is one run."""
    assert listing_order(ms) == want, where
    assert ms[:1] == want[:1], where
    runs = [c for c, _ in groupby(m.cls for m in ms)]
    assert len(runs) == len(set(runs)), where


def test_enumeration_matches_oracle():
    """The oracle's matchings and classes, the reference first and each
    class contiguous, on every fixture that loads, gen-square 1-4 and a
    sample of merged square patterns; both lists are empty on
    three_rhombi and balwnopm."""
    models = _loadable_models()
    models += [(f"merged-{k}", g)
               for k, g in enumerate(_merged_models(16, seed=5))]
    for name, g in models:
        q = dualize(g)
        ms = enumerate_matchings(g, q)
        assert_listed(ms, enumerate_matchings_oracle(g), name)
        assert (ms == []) == (name in ("three_rhombi", "balwnopm")), name


def test_enumeration_at_every_split(monkeypatch):
    """The oracle's matchings, the reference first and each class
    contiguous, whatever the depth at which prefixes meet suffixes, from 0
    (the suffix memo alone) to |B| (the prefix layers alone): at every
    depth on every fixture that loads, gen-square 1-3 and the merged
    models of `test_enumeration_matches_oracle`, and at 0, |B|/2 and |B|
    on gen-square 4."""
    join = matchings._join
    depth = 0           # read by the stand-in at each call
    monkeypatch.setattr(matchings, "_join", lambda nbrs, _: join(nbrs, depth))
    models = _loadable_models()
    models += [(f"merged-{k}", g)
               for k, g in enumerate(_merged_models(16, seed=5))]
    for name, g in models:
        q = dualize(g)
        want = enumerate_matchings_oracle(g)
        b = len(g.colors) // 2
        depths = (0, b // 2, b) if name == "square-4" else range(b + 1)
        for depth in depths:
            assert_listed(enumerate_matchings(g, q), want, (name, depth))


def test_enumeration_lists_classes_in_runs():
    """On every model of `all_models`, gen-square 4 included, the list
    starts with `reference_matching` and holds each class in one run,
    whose length is the class's multiplicity in the matching polygon."""
    with_matchings = 0
    for name, g in all_models().items():
        ms = enumerate_matchings(g)
        if not ms:
            assert reference_matching(g) is None, name
            continue
        assert ms[0].support == reference_matching(g), name
        runs = [(c, len(list(run))) for c, run in groupby(m.cls for m in ms)]
        assert dict(runs) == polygon(ms).points, name
        assert len(dict(runs)) == len(runs), name
        with_matchings += 1
    assert with_matchings == 374


def test_polygon_counts_ungrouped_matchings():
    """`polygon` counts a class met in several runs once per matching: on
    a shuffled copy of each nondegenerate fixture's matchings and of
    gen-square 2's, the points are the classes' multiplicities and the
    hull is that of the grouped list.  The four lists with a class of
    several matchings hold it in several runs."""
    rng = random.Random(3)
    graphs = [load_file(fixture_path(name)) for name in NONDEGENERATE]
    graphs.append(pattern_to_dimer(square_pattern(2)))
    split = 0
    for g in graphs:
        ms = enumerate_matchings(g)
        shuffled = rng.sample(ms, len(ms))
        want = {}
        for m in ms:
            want[m.cls] = want.get(m.cls, 0) + 1
        got = polygon(shuffled)
        assert got.points == want
        assert got.vertices == polygon(ms).vertices
        split += len(list(groupby(m.cls for m in shuffled))) > len(want)
    assert split == 4          # each list with a class of several matchings


def test_perfect_matching_has_no_dict():
    m = PerfectMatching.from_support(frozenset({0, 2}), (1, -1))
    assert not hasattr(m, "__dict__")


def test_enumerated_matchings_are_records():
    """A matching that enumeration builds with `tuple.__new__` equals and
    hashes like the one the constructor builds, has no __dict__, refuses
    assignment, and `e in m` is the bit test of edge e, not a search of
    the tuple's fields."""
    g = load_file(fixture_path("memeg"))
    for m in enumerate_matchings(g):
        made = PerfectMatching(m.bits, m.cls)
        assert m == made and hash(m) == hash(made)
        assert type(m) is PerfectMatching
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.bits = 0
        with pytest.raises(AttributeError):
            m.cls = (0, 0)
        assert [e in m for e in range(len(g.edges) + 2)] == [
            m.bits >> e & 1 == 1 for e in range(len(g.edges) + 2)]


def test_classes_match_walk_pairing():
    """A matching's class is by definition the pairing of the cocycle
    m - pi0 with closed walks of class (1, 0) and (0, 1), here those of
    `closed_walk_oracle`.  It equals `pm_class`, read from the edge
    offsets, and the enumerated class, for every matching of every model
    of `all_models` that has one."""
    checked = 0
    for name in all_models():
        if zigzag(name) is None:
            continue
        _, q, _, ms = enumerated(name)
        if not ms:
            continue
        walks = [closed_walk_oracle(q, t) for t in ((1, 0), (0, 1))]
        pi0 = ms[0].bits
        for m in ms:
            pairing = tuple(sum((m.bits >> a & 1) - (pi0 >> a & 1)
                                for a in walk) for walk in walks)
            assert m.cls == pairing == pm_class(m, ms[0], q.graph), name
        checked += 1
    assert checked == 374


def reoffset(g, v, t):
    """g with the lift of vertex v moved: t added to the offsets of its
    edges if v is black, subtracted if v is white."""
    sign = 1 if g.colors[v] == BLACK else -1
    edges = [e._replace(offset=(e.offset[0] + sign * t[0],
                                e.offset[1] + sign * t[1]))
             if v in (e.black, e.white) else e for e in g.edges]
    return TorusGraph(g.colors, edges, g.rotation)


@pytest.mark.parametrize("name", ["memeg", "square-3"])
def test_classes_ignore_vertex_lifts(name, tmp_path, capsys):
    """Moving one vertex's lift by t = (5, -3) moves every matching's
    offset sum by the same t, so every class, the order of the matchings
    and the `polygon` output stay: every class key moves by the same
    amount, and the keys' digit width with the sum of |y| offsets.
    `enumerate_matchings` reads the offsets and no quiver."""
    g = all_models()[name]
    want = enumerate_matchings(g)

    def polygon_output(model):
        path = tmp_path / "model.dimer"
        path.write_text(dump(model))
        outs = []
        for fmt in ("text", "json-lines"):
            assert main(["polygon", str(path), "--format", fmt]) == 0
            outs.append(capsys.readouterr())
        return outs

    shown = polygon_output(g)
    for color in (BLACK, WHITE):
        moved = reoffset(g, g.colors.index(color), (5, -3))
        assert moved.edges != g.edges
        assert enumerate_matchings(moved) == want, color
        assert polygon_output(moved) == shown, color


def test_enumerated_classes_match_pm_class():
    """Every enumerated class is `pm_class` of the matching against
    `reference_matching`, on every model of `all_models`: each class key
    difference reads back exactly."""
    for name, g in all_models().items():
        _, q, _, ms = enumerated(name)
        pi0 = reference_matching(g)
        assert all(m.cls == pm_class(m, pi0, g) for m in ms), name


@pytest.mark.parametrize("kernel", ["enumerate", "nondegeneracy",
                                    "r_symmetry"])
def test_kernels_match_oracles(kernel):
    """Enumeration (in `listing_order`, the reference first and each class
    contiguous), the non-degeneracy check and the weights of the default
    R-symmetry equal their oracles in `conftest` on every model of
    `all_models`; the R-symmetry raises exactly where some arrow is in no
    matching."""
    for name, g in all_models().items():
        if kernel == "nondegeneracy":
            assert nondegeneracy_check(g) == nondegeneracy_oracle(g), name
            continue
        _, q, _, ms = enumerated(name)
        if kernel == "enumerate":
            assert_listed(ms, enumerate_matchings_oracle(g), name)
            continue
        counts = matching_counts_oracle(ms, q.n_arrows)
        if not ms or 0 in counts:
            with pytest.raises(DimerError, match="degenerate"):
                default_r_symmetry(ms, q)
        else:
            assert default_r_symmetry(ms, q).weights == tuple(counts), name


def test_components_match_reachability():
    """Two vertices get one component label iff each reaches the other: on
    300 seeded random digraphs of 1-12 vertices, and on a 20,000-vertex
    cycle and path, far deeper than the recursion limit."""
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = [[w for w in range(n) if rng.random() < 0.2] for _ in range(n)]
        reach = []
        for v in range(n):
            seen, todo = {v}, [v]
            while todo:
                new = set(succ[todo.pop()]) - seen
                seen |= new
                todo += new
            reach.append(seen)
        comp = matchings._components(succ)
        assert all((comp[v] == comp[w]) == (w in reach[v] and v in reach[w])
                   for v in range(n) for w in range(n)), succ
    n = 20000
    cycle = [[(v + 1) % n] for v in range(n)]
    assert len(set(matchings._components(cycle))) == 1
    path = [[v + 1] for v in range(n - 1)] + [[]]
    assert len(set(matchings._components(path))) == n


def test_bits_decode_to_support():
    """from_support(s, c) decodes back to s, and an edge is in a matching
    exactly when it is in its support: for every oracle support and every
    enumerated matching of each fixture that loads and of gen-square 1-3."""
    for name, g in _loadable_models():
        if name == "square-4":
            continue
        supports = []
        _extend_matchings_oracle(g, 0, [False] * len(g.colors), [], supports)
        for s in supports:
            pm = PerfectMatching.from_support(s, (1, -1))
            assert (pm.support, pm.cls) == (s, (1, -1)), name
            assert [e.id in pm for e in g.edges] == \
                [e.id in s for e in g.edges], name
        for m in enumerate_matchings(g):
            assert [e.id in m for e in g.edges] == \
                [e.id in m.support for e in g.edges], name


def test_enumeration_peak_memory():
    """Enumerating the 26,752 matchings of gen-square 4 allocates at most
    6 MiB at its peak (it took 23 MiB with a frozenset per matching and
    4.9 MiB with a 4-tuple per partial matching)."""
    g = pattern_to_dimer(square_pattern(4))
    q = dualize(g)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ms = enumerate_matchings(g, q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(ms) == 26752
    assert peak < 6 * 2**20, peak


def test_bvn_rejects_bad_input(load_quiver):
    g, q = load_quiver("memeg")
    with pytest.raises(DimerError):
        bvn_decompose(g, {0: 1})                  # non-constant coboundary
    g, q = load_quiver("hexagonal")
    with pytest.raises(DimerError):
        bvn_decompose(g, {0: -1, 1: -1, 2: -1})


# Decomposes one perfect matching of hexagonal plus an entry for an edge id
# the model does not have, and prints what the decomposition does.
UNKNOWN_EDGE = """
from dimertools.matchings import bvn_decompose, reference_matching
from dimertools.surface import DimerError, load_file
from conftest import fixture_path

g = load_file(fixture_path("hexagonal"))
vec = dict.fromkeys(reference_matching(g), 1)
vec[999] = 1
try:
    print(len(bvn_decompose(g, vec)), "matchings")
except DimerError as e:
    print(type(e).__name__, e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_bvn_rejects_unknown_edge(flags):
    """An entry for an edge the model does not have raises DimerError,
    also under `python -O`, which strips asserts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(FIXTURES.parents[1]), os.path.dirname(__file__))))
    out = subprocess.run([sys.executable, *flags, "-c", UNKNOWN_EDGE],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["DimerError decomposition input names unknown edges "
                   "[999]"]


def test_matching_kernels_leave_no_cycles():
    """Enumeration, the Hall check and the non-degeneracy check free
    everything they allocate when they return, without the cyclic garbage
    collector."""
    g = pattern_to_dimer(square_pattern(3))
    q = dualize(g)
    gc.collect()
    gc.disable()
    try:
        for check in (lambda: enumerate_matchings(g, q),
                      lambda: hall_check(g),
                      lambda: nondegeneracy_check(g)):
            check()
            assert gc.collect() == 0
    finally:
        gc.enable()
