"""Exact linear programming over the rationals.

A small two-phase simplex, sufficient for the feasibility problems in this
package (tens to a few hundred variables).  Each tableau row is a list of
`int`s over one positive denominator, kept in lowest terms, so a pivot
costs integer multiplications and one gcd per row instead of a `Fraction`
per entry; `Fraction`s are built only for the returned result.  Bland's
rule picks the entering column and guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .surface import DimerError

# A row: (entries, denominator); entry j stands for entries[j] / denominator.
Row = tuple[list[int], int]


class LPResult(NamedTuple):
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction] = None
    solution: Optional[list[Fraction]] = None


def _row(values: Sequence) -> Row:
    """The row of the given rationals, in lowest terms."""
    fr = [x if isinstance(x, int) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fr))
    return _reduce([x.numerator * (den // x.denominator) for x in fr], den)


def _reduce(line: list[int], den: int) -> Row:
    g = gcd(den, *line)
    if g == 1:
        return line, den
    return [x // g for x in line], den // g


def _eliminate(line: list[int], den: int, nonzero: list[tuple[int, int]],
               p: int, col: int) -> Row:
    """line - line[col] * prow for a row prow whose entry at col is 1:
    prow's denominator is p and `nonzero` lists its nonzero (j, entry)."""
    lc = line[col]
    new = [x * p for x in line] if p != 1 else line[:]
    for j, y in nonzero:
        new[j] -= lc * y
    return _reduce(new, den * p)


def _nonzero(line: list[int]) -> list[tuple[int, int]]:
    return [(j, y) for j, y in enumerate(line) if y]


def _pivot(tab: list[Row], basis: list[int], row: int, col: int) -> None:
    prow = tab[row][0]
    p = prow[col]
    # divide the pivot row by its entry at col; the row's own denominator
    # cancels
    prow, p = _reduce(prow if p > 0 else [-x for x in prow], abs(p))
    tab[row] = prow, p
    nonzero = _nonzero(prow)
    for r, (line, den) in enumerate(tab):
        if r != row and line[col]:
            tab[r] = _eliminate(line, den, nonzero, p, col)
    basis[row] = col


def _simplex(tab: list[Row], basis: list[int], ncols: int) -> str:
    """Maximize; objective in the last row as  z - c.x = 0  form.

    The ratio of row r is rhs / entry at col; both share the row's
    denominator, so ratios compare by integer cross-multiplication."""
    while True:
        obj = tab[-1][0]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for r in range(len(tab) - 1):
            line = tab[r][0]
            if line[col] > 0:
                num, den = line[-1], line[col]
                if best is None:
                    best = (num, den, r)
                    continue
                lhs, rhs = num * best[1], best[0] * den
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best[2]]):
                    best = (num, den, r)
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best[2], col)


def solve_lp(c: Sequence, a_eq: Sequence[Sequence], b_eq: Sequence,
             a_ub: Sequence[Sequence] = (), b_ub: Sequence = ()
             ) -> LPResult:
    """Maximize c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0."""
    c = [Fraction(x) for x in c]
    n = len(c)
    nslack = len(a_ub)
    rows = [list(row) + [0] * nslack + [b_eq[i]]
            for i, row in enumerate(a_eq)]
    for i, row in enumerate(a_ub):
        r = list(row) + [0] * nslack + [b_ub[i]]
        r[n + i] = 1
        rows.append(r)
    total = n + nslack
    m = len(rows)
    # phase 1: artificial variables; every right-hand side made
    # nonnegative first
    tab: list[Row] = []
    for i, row in enumerate(rows):
        line, den = _row(row)
        if line[-1] < 0:
            line = [-x for x in line]
        tab.append((line[:-1] + [den * (j == i) for j in range(m)]
                    + line[-1:], den))
    # maximize -(sum of artificials): bottom row starts as +1 on the
    # artificial columns, then is reduced against the (artificial) basis
    phase1: Row = ([0] * total + [1] * m + [0], 1)
    for i, (line, _) in enumerate(tab):
        phase1 = _eliminate(*phase1, _nonzero(line), line[total + i],
                            total + i)
    tab.append(phase1)
    basis = list(range(total, total + m))
    if _simplex(tab, basis, total + m) != "optimal":
        raise DimerError("phase 1 of the simplex found no optimum")
    if tab[-1][0][-1] != 0:
        return LPResult("infeasible")
    # drive artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= total:
            line = tab[r][0]
            col = next((j for j in range(total) if line[j] != 0), None)
            if col is not None:
                _pivot(tab, basis, r, col)
    # drop rows still basic in an artificial (redundant constraints)
    keep = [r for r in range(m) if basis[r] < total]
    tab = [_reduce(tab[r][0][:total] + tab[r][0][-1:], tab[r][1])
           for r in keep]
    basis = [basis[r] for r in keep]

    # phase 2
    obj = _row([-x for x in c] + [0] * (nslack + 1))
    for r, (line, den) in enumerate(tab):
        if obj[0][basis[r]] != 0:
            obj = _eliminate(*obj, _nonzero(line), den, basis[r])
    tab.append(obj)
    status = _simplex(tab, basis, total)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * total
    for r, b in enumerate(basis):
        x[b] = Fraction(tab[r][0][-1], tab[r][1])
    value = sum(ci * xi for ci, xi in zip(c, x[:n]))
    return LPResult("optimal", value, x[:n])
