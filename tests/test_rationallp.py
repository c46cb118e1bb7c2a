"""The integer-row simplex and rank against the Fraction versions they
replaced, kept here as oracles."""

import random
from fractions import Fraction

import pytest

import conftest
from conftest import ALL_FIXTURES, NONDEGENERATE, fixture_path
from dimertools import algebra, rationallp, symmetry
from dimertools.algebra import AlgebraReport, ToricData
from dimertools.polygen import pattern_to_dimer, square_pattern
from dimertools.rationallp import LPResult, solve_lp
from dimertools.surface import DimerError, dualize, load_file

# -- the Fraction simplex and rank, as they were before integer rows -------


def _oracle_pivot(tab, basis, row, col, pivots):
    pivots.append((row, col))
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for r, line in enumerate(tab):
        if r != row and line[col] != 0:
            coef = line[col]
            tab[r] = [x - coef * y for x, y in zip(line, tab[row])]
    basis[row] = col


def _oracle_simplex(tab, basis, ncols, pivots):
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(len(tab) - 1):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return "unbounded"
        _oracle_pivot(tab, basis, best[1], col, pivots)


def oracle_solve_lp(c, a_eq, b_eq, a_ub=(), b_ub=(), pivots=None):
    """The Fraction simplex; appends each pivot (row, col) to `pivots`."""
    pivots = [] if pivots is None else pivots
    c = [Fraction(x) for x in c]
    n = len(c)
    rows, rhs = [], []
    nslack = len(a_ub)
    for i, row in enumerate(a_eq):
        rows.append([Fraction(x) for x in row] + [Fraction(0)] * nslack)
        rhs.append(Fraction(b_eq[i]))
    for i, row in enumerate(a_ub):
        r = [Fraction(x) for x in row] + [Fraction(0)] * nslack
        r[n + i] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b_ub[i]))
    total = n + nslack
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    tab = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    phase1 = [Fraction(0)] * total + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        phase1 = [x - y for x, y in zip(phase1, tab[i])]
    tab.append(phase1)
    basis = list(range(total, total + m))
    assert _oracle_simplex(tab, basis, total + m, pivots) == "optimal"
    if tab[-1][-1] != 0:
        return LPResult("infeasible")
    for r in range(m):
        if basis[r] >= total:
            col = next((j for j in range(total) if tab[r][j] != 0), None)
            if col is not None:
                _oracle_pivot(tab, basis, r, col, pivots)
    keep = [r for r in range(m) if basis[r] < total]
    tab = [[tab[r][j] for j in range(total)] + [tab[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    obj = [-x for x in c] + [Fraction(0)] * nslack + [Fraction(0)]
    for r, line in enumerate(tab):
        if obj[basis[r]] != 0:
            coef = obj[basis[r]]
            obj = [x - coef * y for x, y in zip(obj, line)]
    tab.append(obj)
    if _oracle_simplex(tab, basis, total, pivots) == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * total
    for r, b in enumerate(basis):
        x[b] = tab[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, x[:n]))
    return LPResult("optimal", value, x[:n])


def oracle_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank, col, ncols = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def assert_same(lp):
    """The integer-row simplex makes the oracle's pivots and returns its
    result, in Fractions."""
    pivots, want_pivots = [], []
    pivot = rationallp._pivot

    def record(tab, basis, row, col):
        pivots.append((row, col))
        pivot(tab, basis, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rationallp, "_pivot", record)
        got = solve_lp(*lp)
    want = oracle_solve_lp(*lp, pivots=want_pivots)
    assert pivots == want_pivots, lp
    assert (got.status, got.objective, got.solution) == \
        (want.status, want.objective, want.solution), lp
    assert all(type(x) is Fraction for x in
               [got.objective or Fraction(0)] + (got.solution or []))
    return got.status


# -- every LP the program issues -------------------------------------------


def recorded_lps(monkeypatch, module):
    """Replace module.solve_lp by a recorder; returns the list it fills."""
    lps = []

    def record(*args):
        lps.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(module, "solve_lp", record)
    return lps


def square_quiver(n):
    return dualize(pattern_to_dimer(square_pattern(n)))


def quivers():
    for name in ALL_FIXTURES:
        try:
            yield name, dualize(load_file(fixture_path(name)))
        except DimerError:
            continue                # cube does not load
    for n in (1, 2, 3):
        yield f"square-{n}", square_quiver(n)


def test_symmetry_lps_match_oracle(monkeypatch):
    """The anomaly-free and rhombic LPs on every fixture and on gen-square
    1-3 get the same status, objective and solution as the oracle.  They
    are posed through `_lp_weights`, which skips the zig-zag angle path."""
    lps = recorded_lps(monkeypatch, symmetry)
    for name, q in quivers():
        symmetry._lp_weights(q, rhombic=False)
        symmetry._lp_weights(q, rhombic=True)
    assert len(lps) >= 2 * 4
    statuses = {assert_same(lp) for lp in lps}
    assert statuses == {"optimal", "infeasible"}


def test_bounding_box_lps_match_oracle(monkeypatch):
    """The graded pieces up to weight 2 lam on the six fixtures that build
    a ToricData issue no LP.  The bounding-box LPs that the oracle
    `bounding_box_lp` issues on the rows of the same pieces match the
    Fraction simplex."""
    algebra_lps = recorded_lps(monkeypatch, algebra)
    lps = recorded_lps(monkeypatch, conftest)
    columns = algebra._columns

    def with_box(cons):
        conftest.bounding_box_lp(cons)
        return columns(cons)

    monkeypatch.setattr(algebra, "_columns", with_box)
    for name in NONDEGENERATE:
        td = ToricData(load_file(fixture_path(name)))
        for i in range(td.q.n_vertices):
            for j in range(td.q.n_vertices):
                td._pieces(i, j, 2 * td.lam)
    assert algebra_lps == []
    assert len(lps) >= 4 * 6
    for lp in lps:
        assert_same(lp)


# -- random LPs --------------------------------------------------------------


def random_lp(rng):
    """An LP with Fraction and negative coefficients; some have redundant
    equalities (a combination of the others, right-hand side included)."""
    n = rng.randint(1, 6)

    def val():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))

    a_eq = [[val() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    b_eq = [val() for _ in a_eq]
    if a_eq and rng.random() < 0.4:
        coef = [val() for _ in a_eq]
        pos = rng.randrange(len(a_eq) + 1)
        a_eq.insert(pos, [sum(c * row[j] for c, row in zip(coef, a_eq))
                          for j in range(n)])
        b_eq.insert(pos, sum(c * b for c, b in zip(coef, b_eq)))
    a_ub = [[val() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    b_ub = [val() for _ in a_ub]
    return [val() for _ in range(n)], a_eq, b_eq, a_ub, b_ub


def test_random_lps_match_oracle():
    rng = random.Random(20260501)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(1200):
        statuses[assert_same(random_lp(rng))] += 1
    assert min(statuses.values()) >= 100, statuses


def test_redundant_equalities_dropped():
    """Phase 1 leaves an artificial basic in each redundant row; it is
    driven out where it can be and the row dropped where it cannot."""
    lps = [
        ([1, 1], [[1, 1], [2, 2]], [2, 4]),
        ([1, -1, 0], [[1, 1, 1], [1, 1, 1], [0, 0, 0]], [3, 3, 0]),
        ([Fraction(1, 2), 1], [[1, -1], [-1, 1]], [-1, 1], [[1, 0]], [4]),
        ([0, 0, 1], [[1, 2, 3], [2, 4, 6], [1, 0, 0]], [6, 12, 0]),
    ]
    for lp in lps:
        assert assert_same(lp) == "optimal"
    assert solve_lp(*lps[0]).objective == 2


# -- the rank ----------------------------------------------------------------


def test_rank_matches_oracle_on_cy3_matrices():
    """The CY3 differentials of the three `deep` benchmark models, two per
    lattice point as `conftest.cy3_summands_oracle` builds them, none
    larger than the largest vertex valence.  xyloops fails algebraic
    consistency, so the oracle would refuse it; a stub consistency report
    lets its matrices be built anyway."""
    matrices = []

    def record(rows):
        matrices.append(rows)
        return algebra._rank(rows)

    valence = 0
    for name, d in (("hexagonal", 10), ("nonmin_conifold", 11),
                    ("xyloops", 14)):
        td = ToricData(load_file(fixture_path(name)))
        td._reports[d] = AlgebraReport(True, d, [], [])
        conftest.cy3_summands_oracle(td, d, rank=record)
        valence = max(valence, *map(len, td.q.out_arrows + td.q.in_arrows))
    assert len(matrices) == 2772
    for rows in matrices:
        assert len(rows) <= valence
        assert all(len(r) <= valence for r in rows)
        assert all(type(x) is int for r in rows for x in r)
        assert algebra._rank(rows) == oracle_rank(rows)


def test_rank_matches_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        true_rank = rng.randint(0, min(nrows, ncols))
        basis = [[rng.randint(-4, 4) for _ in range(ncols)]
                 for _ in range(true_rank)]
        rows = []
        for _ in range(nrows):
            coef = [rng.randint(-3, 3) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coef, basis))
                         for j in range(ncols)])
        for j in rng.sample(range(ncols), rng.randint(0, ncols - 1)):
            for r in rows:
                r[j] = 0
        if rows and rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [0] * ncols
        copy = [list(r) for r in rows]
        assert algebra._rank(rows) == oracle_rank(rows)
        assert rows == copy          # the input is left as it was
    assert algebra._rank([]) == 0

