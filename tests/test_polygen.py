"""Curve patterns, the square-grid generator, and the merging move."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import FIXTURES
from dimertools.cli import main
from dimertools.matchings import (enumerate_matchings, nondegeneracy_check,
                                  polygon, polygon_normal_form)
from dimertools.polygen import (CurvePattern, Segment, dump_pattern,
                                load_pattern, merging_move,
                                pattern_to_dimer, square_pattern,
                                trace_cells, validate_pattern)
from dimertools.surface import DimerError, ParseError, dualize, vadd
from dimertools.symmetry import find_anomaly_free, find_rhombic
from dimertools.zigzag import geometric_check, properly_ordered, \
    zigzag_paths


def test_validate_pattern_lists_each_defect_once():
    """A one-crossing pattern whose curves have classes (0, 0) and (2, 0)
    fails with each defect listed once: the zero and the non-primitive
    class are reported by the intersection check alone."""
    p = CurvePattern(1, [Segment(0, 0, 0, 0, 0, 2, (0, 0)),
                         Segment(1, 1, 0, 1, 0, 3, (2, 0))], [(0,), (1,)])
    report = validate_pattern(p)
    assert not report.ok
    assert report.failures == [
        "cell 0 boundary neither oriented nor alternating",
        "intersection failure: ZeroClass(path=0)",
        "intersection failure: NonPrimitiveClass(path=1)",
        "intersection failure: ParallelShare(path_a=0, path_b=1, arrow=0)"]


def test_square_pattern_structure():
    for n in (1, 2, 3):
        p = square_pattern(n)
        assert p.n_crossings == 4 * n * n
        assert len(p.curves) == 4 * n
        classes = Counter(p.curve_class(c) for c in range(len(p.curves)))
        assert classes == {(0, 1): n, (0, -1): n, (1, 0): n, (-1, 0): n}
        kinds = Counter(c.kind for c in trace_cells(p))
        assert kinds == {"black": n * n, "white": n * n,
                         "quiver": 2 * n * n}
        assert validate_pattern(p).ok


# sha256 of `gen-square n` stdout and of dump_pattern(square_pattern(n))
SQUARE_SHA256 = {
    1: ("2bd00d67d8a7c4b60444f7af58e337eca9575531d45e62a993bf728debc1a213",
        "dcbd5f8ab512a8df825ffe0d89d5f0a08272bfb7cf932d2bedec5aa2655d7c30"),
    2: ("249f14686c12f331f75f9b144d425283e6caac137ea22ceb51cd0cb408c43e0e",
        "3ad26e21da6a3cb8798c1d560d972c43acd8e86460f4405e91dcd347167db8ed"),
    3: ("9e26a68cd6d4580e85e1b9e426da206e5da84d83f7f3f62974b61ee693e3e2d2",
        "cf31e63d4c1a24266574a6a5d0a7a740a898ed94dc96ffb2b03d88dfe3d09176"),
    4: ("3d55a0d2092ebdc9d25ac1c2b3ab53699c9d655bae20e483a33c4659d8b14b1c",
        "86712851d53671593150afaa845a3cd364212207fbf5ac803ed74ac6025b3cdc"),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_bytes_pinned(n, capsys):
    """The generated model and the square pattern keep their bytes: the
    crossing, segment and curve numbering of the grid is part of the
    output."""
    assert main(["gen-square", str(n)]) == 0
    model = capsys.readouterr().out
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (model, dump_pattern(square_pattern(n))))
    assert digests == SQUARE_SHA256[n]


def test_square_pattern_rejects_zero():
    with pytest.raises(ValueError):
        square_pattern(0)


def test_generated_models_consistent():
    for n in (1, 2, 3):
        g = pattern_to_dimer(square_pattern(n))
        q = dualize(g)
        assert q.n_vertices == 2 * n * n
        assert nondegeneracy_check(g).ok
        assert find_anomaly_free(q) is not None
        paths = zigzag_paths(q)
        assert geometric_check(paths).verdict
        assert properly_ordered(q, paths)
        # zig-zag classes reproduce the curve classes
        assert Counter(p.cls for p in paths) == \
            {(0, 1): n, (0, -1): n, (1, 0): n, (-1, 0): n}


def satisfies_r_equations(q, weights):
    """Every face sums to 2, every vertex v has arrow weights summing to
    2(|H_v| - 1) over its in- and out-arrows, and every weight is
    positive."""
    return (all(sum(weights[a] for a in f.boundary) == 2 for f in q.faces)
            and all(sum(weights[a] for a in inc + out) == 2 * (len(inc) - 1)
                    for inc, out in zip(q.in_arrows, q.out_arrows))
            and all(w > 0 for w in weights))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generated_anomaly_free_and_rhombic(n):
    """The anomaly-free and the rhombic R on gen-square 1-6 give every
    arrow the right angle pi/2, and solve their equations."""
    q = dualize(pattern_to_dimer(square_pattern(n)))
    for find in (find_anomaly_free, find_rhombic):
        r = find(q)
        assert r is not None
        assert r.weights == (Fraction(1, 2),) * (4 * n * n)
        assert r.degree == 2
        assert satisfies_r_equations(q, r.weights)


def test_generated_polygon_is_square():
    for n in (1, 2):
        g = pattern_to_dimer(square_pattern(n))
        q = dualize(g)
        nf = polygon_normal_form(polygon(enumerate_matchings(g, q)).points)
        corners = {p for p, _ in nf if p in
                   {(0, 0), (n, 0), (0, n), (n, n)}}
        assert len(corners) == 4
        assert all(0 <= x <= n and 0 <= y <= n for (x, y), _ in nf)
        assert dict(nf)[(0, 0)] == 1


def test_unit_square_model_matches_known_small_model():
    """The smallest generated model has the combinatorics of the two-face
    square tiling: 2 dimer vertices, 4 edges, 4 matchings, unit square."""
    g = pattern_to_dimer(square_pattern(1))
    assert len(g.colors) == 2 and len(g.edges) == 4
    q = dualize(g)
    ms = enumerate_matchings(g, q)
    assert len(ms) == 4
    nf = polygon_normal_form(polygon(ms).points)
    assert nf == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1))


def test_round_trip():
    for n in (1, 2):
        p = square_pattern(n)
        text = dump_pattern(p)
        assert dump_pattern(load_pattern(text)) == text


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_pattern("nope\n")
    with pytest.raises(ParseError):
        load_pattern("PATTERN 1\nsegment 0 0 0 0 0 0 0 0\n")
    good = dump_pattern(square_pattern(1))
    with pytest.raises(ParseError):
        load_pattern(good + "weird 1 2 3\n")
    with pytest.raises(ParseError, match="curve 4 has no segments"):
        load_pattern(good + "curve 4\n")


# loads a pattern with one id out of order; prints the outcome
LOAD_MISNUMBERED = """
from dimertools.polygen import dump_pattern, load_pattern, square_pattern
from dimertools.surface import ParseError
good = dump_pattern(square_pattern(1))
for old, new in (("crossing 1", "crossing 7"),
                 ("segment 1 ", "segment 5 ")):
    try:
        print(load_pattern(good.replace(old, new, 1)).n_crossings)
    except ParseError as e:
        print("ParseError", e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_load_rejects_misnumbered_ids(flags):
    """Out-of-order crossing and segment ids raise ParseError, also under
    `python -O`, which strips asserts."""
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parents[1]))
    out = subprocess.run([sys.executable, *flags, "-c", LOAD_MISNUMBERED],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert len(out) == 2
    for line in out:
        assert line.startswith("ParseError bad line")
        assert line.endswith("ids must be in order")


def test_merging_move():
    p = square_pattern(1)
    m = merging_move(p, 1)
    assert m.n_crossings == p.n_crossings - 1
    assert len(m.curves) == len(p.curves) - 1
    # classes of the merged pair add; total class stays zero
    merged = sorted(m.curve_class(c) for c in range(len(m.curves)))
    assert (1, 0) in merged and (0, -1) in merged and (-1, 1) in merged
    assert validate_pattern(m).ok


def test_merging_move_splices_curves():
    """Merging square_pattern(n), n = 1-3, at any crossing drops that
    crossing, puts the two curves' class sum in the place of the curve
    entering at the lower port, and numbers the segments curve by
    curve."""
    for n in (1, 2, 3):
        p = square_pattern(n)
        classes = [p.curve_class(c) for c in range(len(p.curves))]
        for c in range(p.n_crossings):
            (_, ca), (_, cb) = sorted((s.to_port, s.curve)
                                      for s in p.segments
                                      if s.to_crossing == c)
            want = list(classes)
            want[ca] = vadd(classes[ca], classes[cb])
            del want[cb]
            m = merging_move(p, c)
            assert m.n_crossings == p.n_crossings - 1
            assert [m.curve_class(k) for k in range(len(m.curves))] == want
            assert [sid for segs in m.curves for sid in segs] == \
                list(range(len(m.segments)))


# two crossings: curve 0 is one horizontal segment through crossing 0,
# curve 1 runs vertically through both, curve 2 is one horizontal segment
# through crossing 1
ONE_SEGMENT_PATTERN = """PATTERN 1
crossing 0
crossing 1
segment 0 0 0 0 0 2 1 0
segment 1 1 0 1 1 3 0 0
segment 2 1 1 1 0 3 0 1
segment 3 2 1 0 1 2 1 0
curve 0 0
curve 1 1 2
curve 2 3
"""


def test_merging_move_fuses_one_segment_curve():
    """Where one of the two curves is a single segment s through the
    crossing, the other curve's incoming segment, s and its outgoing
    segment fuse into one; where both are, the move is refused."""
    p = load_pattern(ONE_SEGMENT_PATTERN)
    m = merging_move(p, 0)
    assert m.n_crossings == 1
    # 1 -> (0, 1) -> 0 fused with s: from crossing 0 (was 1) port 1 back to
    # its port 3, offset (0, 1) + (1, 0) + (0, 0)
    assert m.segments[:1] == [(0, 0, 0, 1, 0, 3, (1, 1))]
    assert [m.curve_class(c) for c in range(len(m.curves))] == \
        [(1, 1), (1, 0)]
    assert m.curves == [(0,), (1,)]
    # the one-segment curve enters at the higher port: curve 1 of the
    # vertical mirror image is merged with the one-segment curve 0
    mirror = load_pattern(ONE_SEGMENT_PATTERN.replace(
        "segment 0 0 0 0 0 2 1 0", "segment 0 0 0 1 0 3 0 1").replace(
        "segment 1 1 0 1 1 3 0 0", "segment 1 1 0 0 1 2 0 0").replace(
        "segment 2 1 1 1 0 3 0 1", "segment 2 1 1 0 0 2 1 0").replace(
        "segment 3 2 1 0 1 2 1 0", "segment 3 2 1 1 1 3 0 1"))
    m = merging_move(mirror, 0)
    assert m.segments[0] == (0, 0, 0, 0, 0, 2, (1, 1))
    assert [m.curve_class(c) for c in range(len(m.curves))] == \
        [(1, 1), (0, 1)]
    for pattern in (p, mirror):
        with pytest.raises(DimerError, match="both curves are one segment"):
            merging_move(merging_move(pattern, 0), 0)

def test_merged_unit_square_gives_triangle():
    p = square_pattern(1)
    m = merging_move(p, 1)
    g = pattern_to_dimer(m)
    q = dualize(g)
    assert q.n_vertices == 1
    paths = zigzag_paths(q)
    assert geometric_check(paths).verdict
    nf = polygon_normal_form(polygon(enumerate_matchings(g, q)).points)
    assert nf == (((0, 0), 1), ((0, 1), 1), ((1, 0), 1))


def test_merging_move_refusals():
    p = square_pattern(2)
    # vertical curve at x=0 meets horizontal at y=0 twice? no: each pair
    # crosses once on the 2x2-per-pair grid; instead check the self test
    with pytest.raises(DimerError):
        merging_move(p, 999)


def test_merging_move_rejects_multiple_crossings():
    # after one merge the combined curve crosses others more than once
    p = square_pattern(2)
    m = merging_move(p, 0)
    flows = m.as_flows()
    multi = None
    for a in range(len(m.curves)):
        for b in range(a + 1, len(m.curves)):
            shared = set(flows[a].arrows) & set(flows[b].arrows)
            if len(shared) > 1:
                multi = sorted(shared)[0]
    if multi is not None:
        with pytest.raises(DimerError):
            merging_move(m, multi)


def test_pattern_invariants_enforced():
    p = square_pattern(2)
    # reversing a curve's segment order breaks transversality
    with pytest.raises(ParseError):
        CurvePattern(p.n_crossings, p.segments,
                     [tuple(reversed(c)) for c in p.curves])
    # dropping a segment leaves unused ports
    with pytest.raises(ParseError):
        CurvePattern(p.n_crossings, p.segments[:-1],
                     p.curves[:-1])


def test_pattern_segment_ids_are_positions():
    """A segment's id is its position in the list, so two swapped segments
    are refused even though every curve still names existing ids."""
    p = square_pattern(1)
    segments = list(p.segments)
    segments[0], segments[1] = segments[1], segments[0]
    with pytest.raises(ParseError, match="segment 1 listed at position 0"):
        CurvePattern(p.n_crossings, segments, p.curves)
