import math
import pathlib

import pytest

import dimertools
from dimertools.rationallp import solve_lp
from dimertools.surface import DimerError, dualize, load_file

FIXTURES = pathlib.Path(dimertools.__file__).parent / "fixtures"

ALL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.dimer"))
# fixtures passing the geometric consistency check
CONSISTENT = ("hexagonal", "conifold", "memeg")
# fixtures with at least one perfect matching
NONDEGENERATE = ("hexagonal", "conifold", "nonmin_conifold", "memeg",
                 "examplestp", "xyloops")


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.dimer"


@pytest.fixture
def load_fixture():
    def _load(name):
        return load_file(fixture_path(name))
    return _load


@pytest.fixture
def load_quiver():
    def _load(name):
        g = load_file(fixture_path(name))
        return g, dualize(g)
    return _load


def bounding_box_lp(cons):
    """Oracle for `algebra._columns`: the integer bounding box
    ((x0, x1), (y0, y1)) of {z : ax*zx + ay*zy + b >= 0 for all rows}, or
    None if it holds no integer point, by four exact simplex solves on
    z = z+ - z-.  Raises if the region is nonempty and unbounded."""
    a_ub = [[-ax, ax, -ay, ay] for ax, ay, _ in cons]
    b_ub = [b for _, _, b in cons]
    vals = []
    for c in ([1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]):
        res = solve_lp(c, [], [], a_ub, b_ub)
        if res.status == "infeasible":
            return None
        if res.status != "optimal":
            raise DimerError("graded piece unbounded; grading not positive "
                             "definite on this model")
        vals.append(res.objective)
    xmax, xminneg, ymax, yminneg = vals
    x0, x1 = math.ceil(-xminneg), math.floor(xmax)
    y0, y1 = math.ceil(-yminneg), math.floor(ymax)
    if x0 > x1 or y0 > y1:
        return None
    return (x0, x1), (y0, y1)
