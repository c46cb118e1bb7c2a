"""Weight functions, R-symmetries, exact rational feasibility."""

from fractions import Fraction

import pytest

from conftest import CONSISTENT, NONDEGENERATE
from dimertools.matchings import enumerate_matchings
from dimertools.surface import DimerError
from dimertools.symmetry import (WeightFunction, default_r_symmetry,
                                 euler_check, find_anomaly_free,
                                 find_rhombic)


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
        assert all(type(w) is Fraction for w in r.weights + (r.degree,))
        assert r.weights == tuple(sum(a in m.support for m in ms)
                                  for a in range(q.n_arrows))


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
        ri = r.integral()
        assert all(w.denominator == 1 for w in ri.weights)
        assert ri.check(q)
        # rescaling an anomaly-free solution to degree 2 keeps it valid
        back = WeightFunction(
            tuple(w * Fraction(2, ri.degree) for w in ri.weights),
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
