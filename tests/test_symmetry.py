"""Weight functions, R-symmetries, exact rational feasibility."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (CONSISTENT, FIXTURES, NONDEGENERATE,
                      enumerate_matchings_oracle)
from dimertools import symmetry
from dimertools.matchings import enumerate_matchings
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.surface import DimerError, dualize, split_vertex
from dimertools.symmetry import (WeightFunction, default_r_symmetry,
                                 euler_check, find_anomaly_free,
                                 find_rhombic)
from test_algebra import built_models
from test_fans import all_models


def test_euler(load_quiver):
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        assert euler_check(q)


def test_default_r_symmetry(load_quiver):
    for name in NONDEGENERATE:
        g, q = load_quiver(name)
        ms = enumerate_matchings(g, q)
        r = default_r_symmetry(ms, q)
        assert all(w > 0 for w in r.weights)
        assert r.degree == len(ms)
        assert r.check(q)
        assert all(type(w) is int for w in r.weights + (r.degree,))
        assert r.weights == tuple(sum(a in m.support for m in ms)
                                  for a in range(q.n_arrows))


def test_default_r_symmetry_constant_on_faces():
    """On every model of `all_models` that builds ToricData, the weights of
    every face's arrows sum to lam: each matching holds one arrow of each
    face, so `default_r_symmetry` checks no face."""
    models = built_models()
    assert len(models) == 373
    for name, td in models:
        for f in td.q.faces:
            assert sum(td.wts[a] for a in f.boundary) == td.lam, name


def test_default_r_symmetry_counts_oracle_matchings(load_quiver):
    """The weight of each arrow is the number of oracle matchings that
    contain it, on every nondegenerate fixture and on gen-square 3 and 4;
    on gen-square 4 every count is 6,688, a 13-bit number."""
    models = [load_quiver(name) for name in NONDEGENERATE]
    for n in (3, 4):
        g = pattern_to_dimer(square_pattern(n))
        models.append((g, dualize(g)))
    for g, q in models:
        oracle = enumerate_matchings_oracle(g)
        counts = Counter(a for m in oracle for a in m.support)
        r = default_r_symmetry(enumerate_matchings(g, q), q)
        assert r.weights == tuple(counts[a] for a in range(q.n_arrows))
        assert r.degree == len(oracle)
    assert max(counts.values()).bit_length() == 13


def test_default_r_symmetry_counts_each_arrow(load_quiver):
    """The weight of arrow a is the number of matchings that hold it, on
    every model of `all_models` (gen-square 1-4 among them) and on a
    vertex split of gen-square 4, whose 66 arrows fill two 64-bit words;
    with no matching at all the R-symmetry is refused as degenerate."""
    models = dict(all_models())
    models["square-4-split"] = split_vertex(models["square-4"], 0, 0)
    for name, g in models.items():
        try:
            q = dualize(g)
        except DimerError:
            continue
        ms = enumerate_matchings(g, q)
        counts = tuple(sum(a in m for m in ms) for a in range(q.n_arrows))
        if not ms or 0 in counts:
            with pytest.raises(DimerError, match="degenerate"):
                default_r_symmetry(ms, q)
        else:
            assert default_r_symmetry(ms, q).weights == counts, name
    assert q.n_arrows == 66
    _, q = load_quiver("three_rhombi")
    with pytest.raises(DimerError, match="degenerate"):
        default_r_symmetry([], q)


def test_default_r_symmetry_degenerate(load_quiver):
    g, q = load_quiver("degenerate")
    ms = enumerate_matchings(g, q)
    with pytest.raises(DimerError):
        default_r_symmetry(ms, q)


def test_hexagonal_angles(load_quiver):
    _, q = load_quiver("hexagonal")
    r = find_anomaly_free(q)
    assert r is not None
    assert set(r.weights) == {Fraction(2, 3)}
    assert r.degree == 2


def test_conifold_angles(load_quiver):
    _, q = load_quiver("conifold")
    r = find_rhombic(q)
    assert r is not None
    assert set(r.weights) == {Fraction(1, 2)}


def test_integral_scaling(load_quiver):
    for name in NONDEGENERATE:
        _, q = load_quiver(name)
        r = find_anomaly_free(q)
        if r is None:
            continue
        # rescaling an anomaly-free solution to degree 2 keeps it valid
        back = WeightFunction(
            tuple(w * Fraction(2, r.degree) for w in r.weights),
            Fraction(2))
        assert back.check(q)


def test_rhombic_follows_geometric(load_quiver):
    """Whenever the geometric check passes, angle data exists."""
    for name in CONSISTENT:
        _, q = load_quiver(name)
        r = find_rhombic(q)
        assert r is not None
        assert all(0 < w < 1 for w in r.weights)


def test_rhombic_not_asserted_conversely(load_quiver):
    """A model can admit an anomaly-free R-symmetry while failing the
    geometric check; the rhombic outcome is recorded but carries no claim
    either way."""
    _, q = load_quiver("examplestp")
    assert find_anomaly_free(q) is not None
    outcome = find_rhombic(q)
    # record only: currently infeasible for this model
    assert outcome is None or all(0 < w < 1 for w in outcome.weights)


# Hands the LP-only finder `_lp_weights` a wrong LP vertex that breaks one
# condition at a time and prints what each answer is.  It calls the LP
# directly: hexagonal would otherwise get its R from the zig-zag angles.
WRONG_VERTEX = """
from fractions import Fraction
from dimertools import symmetry
from dimertools.algebra import ToricData
from dimertools.matchings import enumerate_matchings
from dimertools.rationallp import LPResult
from dimertools.surface import DimerError, dualize, load_file
from conftest import fixture_path

def quiver(name):
    g = load_file(fixture_path(name))
    return g, dualize(g)

g, q = quiver("examplestp")
ms = enumerate_matchings(g, q)
# face sums 2 and positive, but not anomaly-free
combo = [Fraction(2 * (sum(a in m.support for m in ms)
                       + (a in ms[0].support)), len(ms) + 1)
         for a in range(q.n_arrows)]
af = symmetry.find_anomaly_free(q).weights      # has weights equal to 1
cases = [("examplestp", False, [1] * q.n_arrows),
         ("examplestp", False, combo),
         ("hexagonal", False, [2, 0, 0]),
         ("examplestp", True, af)]
for name, rhombic, weights in cases:
    t = Fraction(1, 10)
    symmetry.solve_lp = lambda *lp: LPResult(
        "optimal", t, [Fraction(w) for w in weights] + [t])
    try:
        print("accepted", symmetry._lp_weights(quiver(name)[1], rhombic))
    except DimerError as e:
        print("DimerError", e)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_lp_vertex_rejected(flags):
    """An LP answer that breaks the face, vertex, positivity or rhombic
    condition raises DimerError, also under `python -O`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(FIXTURES.parents[1]), os.path.dirname(__file__))))
    out = subprocess.run([sys.executable, *flags, "-c", WRONG_VERTEX],
                         env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == [
        "DimerError R-symmetry fails a face equation",
        "DimerError R-symmetry fails the anomaly equation at vertex 0",
        "DimerError R-symmetry weight of arrow 1 is 0, not positive",
        "DimerError rhombic R-symmetry weight of arrow 8 is 1, not below 1",
    ]


def least_weight(r, rhombic):
    """The least weight of r, or the least of R and 1 - R for rhombic
    angles: the objective of the LP."""
    return min(min(w, 1 - w) if rhombic else w for w in r.weights)


def face_bound(q, rhombic):
    """min over faces of 2/|f| (and 1 - 2/|f|): every solution of the face
    equations has a least weight at most this."""
    bounds = [Fraction(2, len(f.boundary)) for f in q.faces]
    if rhombic:
        bounds += [1 - b for b in bounds]
    return min(bounds)


def test_angle_path_matches_lp(monkeypatch):
    """On every model of `all_models` that dualizes, both finders give the
    LP-only answer.  Where they answer without the LP, an R meets the face
    bound and a None has a face bound of at most 0."""
    lp_weights = symmetry._lp_weights
    fell_back = []

    def recorded(q, rhombic):
        fell_back.append(lp_weights(q, rhombic))
        return fell_back[-1]

    monkeypatch.setattr(symmetry, "_lp_weights", recorded)
    without_lp = Counter()
    for name, g in all_models().items():
        try:
            q = dualize(g)
        except DimerError:
            continue
        for rhombic, find in ((False, find_anomaly_free),
                              (True, find_rhombic)):
            fell_back.clear()
            got = find(q)
            want = fell_back[0] if fell_back else lp_weights(q, rhombic)
            assert got == want, (name, rhombic)
            if fell_back:
                continue
            without_lp[rhombic, got is None] += 1
            if got is None:
                assert face_bound(q, rhombic) <= 0, name
            else:
                assert least_weight(got, rhombic) == \
                    face_bound(q, rhombic), (name, rhombic)
    assert without_lp == {(False, False): 119, (True, False): 45,
                          (True, True): 146}


def test_angle_path_needs_no_lp(monkeypatch, load_quiver):
    """With the LP disabled, both finders still answer on consistent
    models whose angles meet the face bound, and find_rhombic answers None
    on nonmin_conifold, whose quiver has 2-gons.  examplestp, and the
    rhombic R of memeg, whose equally spaced angles give an arrow the
    angle pi, reach the LP."""
    def no_lp(*lp):
        raise RuntimeError("LP called")

    monkeypatch.setattr(symmetry, "solve_lp", no_lp)
    memeg, nonmin, examplestp = (load_quiver(name)[1] for name in
                                 ("memeg", "nonmin_conifold", "examplestp"))
    models = [load_quiver(name)[1] for name in ("conifold", "hexagonal")]
    models += [dualize(pattern_to_dimer(square_pattern(n)))
               for n in range(1, 7)]
    for q in models:
        for rhombic, find in ((False, find_anomaly_free),
                              (True, find_rhombic)):
            r = find(q)
            assert least_weight(r, rhombic) == face_bound(q, rhombic)
    for q in (memeg, nonmin):
        r = find_anomaly_free(q)
        assert least_weight(r, False) == face_bound(q, False)
    assert find_rhombic(nonmin) is None
    for find, q in ((find_rhombic, memeg), (find_anomaly_free, examplestp)):
        with pytest.raises(RuntimeError, match="LP called"):
            find(q)
