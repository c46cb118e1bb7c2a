"""Torus graph loading, duality, and local moves."""

import pytest

from conftest import (ALL_FIXTURES, NONDEGENERATE, face_records_oracle,
                      fixture_path)
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


def dualizing_models():
    """(name, graph, quiver) of every model of `all_models` that
    dualizes."""
    return [(name, g, zigzag(name)[0]) for name, g in all_models().items()
            if zigzag(name) is not None]


def test_duality_counts():
    """On every model that dualizes, the dual counts match, every arrow is
    in one face of each color, each face composes and |Q0| - |Q1| + |Q2|
    is 0."""
    models = dualizing_models()
    assert len(models) == 376
    for name, g, q in models:
        assert q.n_vertices == len(g.faces)
        assert q.n_arrows == len(g.edges)
        assert len(q.faces) == len(g.colors)
        assert q.n_vertices - q.n_arrows + len(q.faces) == 0, name
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
                    b = cyc[(i + 1) % len(cyc)]
                    assert nxt[a] == b
                    assert q.arrows[a].head == q.arrows[b].tail, name


def test_face_offsets_vanish():
    for name, _, q in dualizing_models():
        for f in q.faces:
            assert q.walk_class(f.boundary) == (0, 0), name


def test_face_records_match_oracle():
    """On every model of `all_models` that dualizes, the per-dart (face,
    lift) records of the one face tracing equal the oracle's: the faces
    traced again with `list.index` successors."""
    for name, g, _ in dualizing_models():
        got = {d: (g.face_of[d], g.lift[d]) for d in g.face_of}
        assert got == face_records_oracle(g), name


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
