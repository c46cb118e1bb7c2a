"""In-memory spans around the program's public functions.

Each traced function is replaced, in the module or class its caller looks
it up in, by a wrapper that records (name, start, end, parent, case,
count).  Spans are properly nested because the benchmark runs one case at
a time in one thread, so a span's self time is its duration minus that of
its direct children.  Nothing inside `src/` is changed: the wrappers are
installed for a traced pass and removed afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


def _piece_counts(args, report) -> tuple:
    """(max_degree, pieces, lattice points, classes hit, failures)."""
    stats = report.piece_stats
    return (report.max_degree, len(stats), sum(s[3] for s in stats),
            sum(s[4] for s in stats), len(report.failures))


def _cy3_entries(args, report) -> int:
    """Entries of the two differential matrices handed to the rank."""
    return sum(s[2] * s[3] + s[3] * s[4] for s in report.piece_stats)


def _length(args, result) -> int:
    return len(result)


# (module or "module.Class", attribute, span name, count of the result)
# A function imported by name into several modules is wrapped in each.
POINTS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "cli.main", None),
    ("cli", "load", "surface.load", None),
    ("surface", "load", "surface.load", None),
    ("cli", "dualize", "surface.dualize", None),
    ("surface", "dualize", "surface.dualize", None),
    ("render", "dualize", "surface.dualize", None),
    ("matchings", "hall_check", "matchings.hall", None),
    ("matchings", "nondegeneracy_check", "matchings.nondegeneracy", None),
    ("matchings", "enumerate_matchings", "matchings.enumerate", _length),
    ("algebra", "enumerate_matchings", "matchings.enumerate", _length),
    ("matchings", "polygon", "matchings.polygon", None),
    ("matchings", "polygon_normal_form", "matchings.normal_form", None),
    ("symmetry", "euler_check", "symmetry.euler", None),
    ("symmetry", "default_r_symmetry", "symmetry.default_r", None),
    ("algebra", "default_r_symmetry", "symmetry.default_r", None),
    ("symmetry", "find_anomaly_free", "symmetry.anomaly_free", None),
    ("symmetry", "solve_lp", "rationallp.symmetry", None),
    ("algebra", "solve_lp", "rationallp.algebra", None),
    ("zigzag", "zigzag_paths", "zigzag.paths", None),
    ("zigzag", "geometric_check", "zigzag.geometric", None),
    ("zigzag", "properly_ordered", "zigzag.properly_ordered", None),
    ("fans", "global_fan", "fans.extremal", None),
    ("fans", "boundary_system", "fans.extremal", None),
    ("fans", "extremal_matching", "fans.extremal", None),
    ("fans", "pairing", "fans.extremal", None),
    ("render", "emit_svg", "render.svg", None),
    ("polygen", "square_pattern", "polygen.square", None),
    ("polygen", "pattern_to_dimer", "polygen.square", None),
    ("algebra.ToricData", "__init__", "algebra.init", None),
    ("algebra.ToricData", "algebraic_consistency", "algebra.consistency",
     _piece_counts),
    ("algebra.ToricData", "cy3_check", "algebra.cy3", _cy3_entries),
    ("algebra.ToricData", "paths_from", "algebra.paths_from", _length),
    ("algebra.ToricData", "fterm_closure", "algebra.fterm_closure", _length),
    ("algebra.ToricData", "center_generators", "algebra.center", None),
    ("algebra", "_rank", "algebra.rank", None),
]

LAYERS = ("surface", "matchings", "symmetry", "rationallp", "zigzag", "fans",
          "algebra", "polygen", "render", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 at top level
    case: str
    count: Any = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; `case` names the running case."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str,
              count: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1,
                        self.case)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.count = count(args, result)
            return result
        return traced

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every point in `modules` (layer name -> imported module)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner_path, attr, name, count in POINTS:
            mod, _, cls = owner_path.partition(".")
            owner = getattr(modules[mod], cls) if cls else modules[mod]
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent,
                                     s.case, s.count]) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass

# metric -> the span whose inclusive durations it sums
TIME_METRICS = {
    "surface.load_s": "surface.load",
    "surface.dualize_s": "surface.dualize",
    "matchings.hall_s": "matchings.hall",
    "matchings.nondegeneracy_s": "matchings.nondegeneracy",
    "matchings.enumerate_s": "matchings.enumerate",
    "matchings.normal_form_s": "matchings.normal_form",
    "symmetry.default_r_s": "symmetry.default_r",
    "symmetry.anomaly_free_s": "symmetry.anomaly_free",
    "rationallp.algebra_s": "rationallp.algebra",
    "rationallp.symmetry_s": "rationallp.symmetry",
    "zigzag.paths_s": "zigzag.paths",
    "zigzag.geometric_s": "zigzag.geometric",
    "zigzag.properly_ordered_s": "zigzag.properly_ordered",
    "fans.extremal_s": "fans.extremal",
    "render.svg_s": "render.svg",
    "algebra.init_s": "algebra.init",
    "algebra.consistency_s": "algebra.consistency",
    "algebra.paths_from_s": "algebra.paths_from",
    "algebra.fterm_closure_s": "algebra.fterm_closure",
    "algebra.cy3_s": "algebra.cy3",
    "algebra.rank_s": "algebra.rank",
    "algebra.center_s": "algebra.center",
    "polygen.square_s": "polygen.square",
}

CALL_METRICS = {
    "surface.dualize_calls": "surface.dualize",
    "matchings.enumerate_calls": "matchings.enumerate",
    "rationallp.algebra_calls": "rationallp.algebra",
    "rationallp.symmetry_calls": "rationallp.symmetry",
    "algebra.consistency_calls": "algebra.consistency",
    "algebra.closure_calls": "algebra.fterm_closure",
}

# Counts fixed by the program's outputs: each model (and degree bound) is
# counted once however often a pass computes it, so they are comparable
# across changes that remove repeated work.
EXACT_COUNTS = ("matchings.enumerated", "algebra.pieces",
                "algebra.lattice_points", "algebra.classes_hit",
                "algebra.failures")


def _exact_counts(spans: list[Span], model_of: dict[str, str],
                  problems: list[str]) -> tuple[dict[str, int], dict]:
    """The EXACT_COUNTS, and the matchings enumerated per model."""
    enumerated: dict[str, int] = {}
    pieces: dict[tuple[str, int], tuple] = {}
    for s in spans:
        if s.count is None:
            continue
        model = model_of[s.case]
        if s.name == "matchings.enumerate":
            if enumerated.setdefault(model, s.count) != s.count:
                problems.append(f"{model}: matching counts differ between "
                                f"calls ({enumerated[model]}, {s.count})")
        elif s.name == "algebra.consistency":
            key = (model, s.count[0])
            if pieces.setdefault(key, s.count) != s.count:
                problems.append(f"{model} degree {key[1]}: piece_stats "
                                "differ between calls")
    return {
        "matchings.enumerated": sum(enumerated.values()),
        "algebra.pieces": sum(c[1] for c in pieces.values()),
        "algebra.lattice_points": sum(c[2] for c in pieces.values()),
        "algebra.classes_hit": sum(c[3] for c in pieces.values()),
        "algebra.failures": sum(c[4] for c in pieces.values()),
    }, enumerated


def _lp_share(mine: list[Span], spans: list[Span], first: int,
              model_of: dict[str, str]) -> tuple[float, dict]:
    """LP time under the algebraic-consistency rung: the total, and per
    model its share of that model's consistency time."""
    lp: dict[str, float] = {}
    consistency: dict[str, float] = {}
    for s in mine:
        model = model_of[s.case]
        if s.name == "algebra.consistency":
            consistency[model] = consistency.get(model, 0.0) + s.dur
        if s.name != "rationallp.algebra":
            continue
        p = s.parent
        while p >= first and spans[p].name != "algebra.consistency":
            p = spans[p].parent
        if p >= first:
            lp[model] = lp.get(model, 0.0) + s.dur
    share = {m: round(lp.get(m, 0.0) / t, 4)
             for m, t in consistency.items() if t}
    return sum(lp.values()), share


def pass_metrics(spans: list[Span], first: int, last: int,
                 model_of: dict[str, str], problems: list[str]
                 ) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the spans[first:last] recorded in one pass.

    Returns the metrics, and per model the matchings enumerated and the
    LP share of the consistency rung.
    """
    mine = spans[first:last]
    child_time = [0.0] * len(mine)
    for s in mine:
        if s.parent >= first:
            child_time[s.parent - first] += s.dur
    out: dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = sum(s.dur for s in mine if s.name == name)
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in mine if s.name == name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s.dur - child_time[k] for k, s in enumerate(mine)
            if s.name.split(".", 1)[0] == layer)

    def counts(name: str) -> list:
        """Counts of the spans of `name` that returned."""
        return [s.count for s in mine if s.name == name and
                s.count is not None]

    out["algebra.paths_enumerated"] = sum(counts("algebra.paths_from"))
    out["algebra.closure_largest"] = max(counts("algebra.fterm_closure"),
                                         default=0)
    out["algebra.cy3_matrix_entries"] = sum(counts("algebra.cy3"))
    lp, share = _lp_share(mine, spans, first, model_of)
    out["algebra.lp_in_consistency_s"] = lp
    total = out["algebra.consistency_s"]
    out["algebra.lp_share"] = lp / total if total else 0.0
    out["trace.spans"] = len(mine)
    exact, enumerated = _exact_counts(mine, model_of, problems)
    out.update(exact)
    return out, {"matchings enumerated": enumerated,
                 "algebra.lp_share": share}
