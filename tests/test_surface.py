"""Torus graph loading, duality, and local moves."""

import os
import subprocess
import sys

import pytest

from conftest import (ALL_FIXTURES, FIXTURES, NONDEGENERATE,
                      face_records_oracle, fixture_path)
from dimertools.matchings import enumerate_matchings, polygon, \
    polygon_normal_form
from dimertools.surface import (BLACK, WHITE, Edge, ParseError,
                                TopologyError, TorusGraph, contract_bivalent,
                                dualize, dump, fterm_relations, load,
                                load_file, split_vertex, superpotential, vadd)
from test_fans import all_models, zigzag


def test_round_trip(load_fixture):
    for name in ("hexagonal", "conifold", "memeg", "examplestp"):
        g = load_fixture(name)
        g2 = load(dump(g))
        assert dump(g2) == dump(g)


def test_missing_header():
    with pytest.raises(ParseError):
        load("vertex 0 B\n")


def test_bad_records():
    base = "DIMER 1\nvertex 0 B\nvertex 1 W\nedge 0 0 1 0 0\n"
    with pytest.raises(ParseError):
        load(base + "rot 0 0\n")                 # missing rot for vertex 1
    with pytest.raises(ParseError):
        load(base + "rot 0 0\nrot 1 0\nrot 1 0\n")   # duplicate rot
    with pytest.raises(ParseError):
        load(base.replace("edge 0 0 1", "edge 0 1 0") +
             "rot 0 0\nrot 1 0\n")               # colors swapped
    with pytest.raises(ParseError):
        load(base + "frob 1 2\n")                # unknown record


def test_sphere_rejected():
    # the cube fixture is a valid rotation system of genus 0
    with pytest.raises(TopologyError):
        load_file(fixture_path("cube"))


def test_duality_counts(load_quiver):
    for name in NONDEGENERATE:
        g, q = load_quiver(name)
        assert q.n_vertices == len(g.faces)
        assert q.n_arrows == len(g.edges)
        assert len(q.faces) == len(g.colors)
        # every arrow in exactly one face of each color: the successor map
        # of a color is a permutation of the arrows whose cycles are the
        # boundaries of the faces of that color
        for color, nxt in ((BLACK, q.next_black), (WHITE, q.next_white)):
            assert sorted(nxt) == sorted(nxt.values()) == \
                list(range(q.n_arrows))
            faces = [f.boundary for f in q.faces if f.color == color]
            assert sum(map(len, faces)) == q.n_arrows
            for cyc in faces:
                for i, a in enumerate(cyc):
                    assert nxt[a] == cyc[(i + 1) % len(cyc)]


def test_face_offsets_vanish(load_quiver):
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        for f in q.faces:
            assert q.walk_class(f.boundary) == (0, 0)


def test_face_records_match_oracle():
    """On every model of `all_models` that dualizes, the per-dart (face,
    lift) records of the one face tracing equal the oracle's: the faces
    traced again with `list.index` successors."""
    checked = 0
    for name, g in all_models().items():
        if zigzag(name) is None:
            continue
        got = {d: (g.face_of[d], g.lift[d]) for d in g.face_of}
        assert got == face_records_oracle(g), name
        checked += 1
    assert checked == 376


def scaled(g, sx, sy):
    """g with every edge offset scaled by sx in x and sy in y."""
    edges = [Edge(e.id, e.black, e.white,
                  (sx * e.offset[0], sy * e.offset[1])) for e in g.edges]
    return TorusGraph(g.colors, edges, g.rotation)


def test_cycle_classes_must_generate_z2(load_fixture):
    """Every fixture that loads dualizes; scaling the offsets by 2 and 3
    leaves a sublattice of index 6, which is refused, and so are other
    proper sublattices."""
    for name in ALL_FIXTURES:
        if name != "cube":
            dualize(load_fixture(name))
    g = load_fixture("hexagonal")
    for (sx, sy), size in (((2, 3), "index 6"), ((3, 1), "index 3"),
                           ((0, 1), "rank < 2")):
        with pytest.raises(TopologyError, match=size):
            dualize(scaled(g, sx, sy))
    dualize(scaled(g, -1, 1))               # a reflection keeps index 1


# Builds a quiver with one arrow offset moved by (1, 0), so that the
# boundary of face 0 no longer closes, and prints what the construction
# check does.
WRONG_OFFSET = """
from dimertools.surface import DimerError, Quiver, load_file, vadd
from conftest import fixture_path

build = Quiver._build


def perturbed(self):
    build(self)
    self.arrows[0] = self.arrows[0]._replace(
        offset=vadd(self.arrows[0].offset, (1, 0)))


Quiver._build = perturbed
try:
    Quiver(load_file(fixture_path("conifold")))
    print("built")
except DimerError as e:
    print(type(e).__name__, e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_quiver_check_raises_without_asserts(flags):
    """The construction check of the quiver raises TopologyError, also
    under `python -O`, which strips asserts."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(FIXTURES.parents[1]), os.path.dirname(__file__))))
    out = subprocess.run([sys.executable, *flags, "-c", WRONG_OFFSET],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["TopologyError face 0 offset sum (1, 0)"]


def test_superpotential_terms(load_quiver):
    _, q = load_quiver("hexagonal")
    w = superpotential(q)
    signs = sorted(s for s, _ in w.terms)
    assert signs == [-1, 1]
    assert all(len(cyc) == 3 for _, cyc in w.terms)


def test_fterm_offset_invariance(load_quiver):
    """Substituting one side of a relation for the other in a closed cycle
    keeps the offset sum."""
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        for a, plus, minus in fterm_relations(q):
            assert q.walk_class(plus) == q.walk_class(minus)
            # both complete arrow a to a face boundary
            assert q.walk_class([a] + list(plus)) == (0, 0)


def test_split_vertex_polygon_preserved(load_fixture):
    g = load_fixture("conifold")
    q = dualize(g)
    nf = polygon_normal_form(polygon(enumerate_matchings(g, q)).points)
    g2 = split_vertex(g, 0, 0)
    q2 = dualize(g2)
    nf2 = polygon_normal_form(polygon(enumerate_matchings(g2, q2)).points)
    assert nf == nf2


def test_split_then_contract(load_fixture):
    g = load_fixture("conifold")
    g2 = split_vertex(g, 0, 0)
    assert len(g2.colors) == len(g.colors) + 2
    new_bivalent = [v for v in range(len(g2.colors))
                    if len(g2.rotation[v]) == 2]
    g3 = contract_bivalent(g2, new_bivalent[0])
    assert len(g3.colors) == len(g.colors)
