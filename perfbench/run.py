"""Benchmark of the dimertools consistency ladder.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout.  The program is imported from
`src/` into this one process; every case is a closed-loop call into its
public API or `cli.main`, checked against `perfbench/pinned.json`.  With
`--trace 0` the last line of output is a JSON object with the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate and it
carries the per-layer metrics.  Every time reported is given at the
reference speed of `hostspeed`, so that the host's drift cancels.  See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cases as workloads
import hostspeed
import spans
from hostspeed import CaseTimeout

SETUP_REPEATS = 15
CASE_CAP_S = 60.0        # a case running longer is stopped as a timeout
RUN_LIMIT_S = 150.0      # no case starts later than this after set-up
TAIL_SAMPLES = 10        # samples required beyond the reported percentile
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


@dataclass
class PassResult:
    traced: bool
    latencies: dict[str, float] = field(default_factory=dict)   # reference
    raw: dict[str, float] = field(default_factory=dict)         # measured
    statuses: dict[str, str] = field(default_factory=dict)
    first_span: int = 0     # the pass's spans are tracer.spans[first:last]
    last_span: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies.values())


def import_program(src: Path) -> dict:
    """Import the program afresh from `src` (part of the timed set-up)."""
    for name in [n for n in sys.modules
                 if n == "dimertools" or n.startswith("dimertools.")]:
        del sys.modules[name]
    prog = {layer: importlib.import_module(f"dimertools.{layer}")
            for layer in spans.LAYERS}
    origin = Path(prog["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"dimertools imported from {origin}, not {src}")
    return prog


@dataclass
class Timing:
    measured: float     # seconds, less the time spent sampling the host
    reference: float    # the same at the reference speed


def timed(sampler: hostspeed.Sampler, fn, cap: float | None = None):
    """Call fn with the host sampled before and during it; returns
    (Timing, fn's result or the exception it raised).  With `cap`, the
    call is stopped after `cap` seconds with CaseTimeout."""
    first = len(sampler.samples)
    sampler.sample()
    spent = sampler.in_handler
    start = time.perf_counter()
    sampler.deadline = None if cap is None else start + cap
    try:
        try:
            out = fn()
        finally:
            sampler.deadline = None
    except (Exception, CaseTimeout) as e:
        out = e
    elapsed = time.perf_counter() - start - (sampler.in_handler - spent)
    return Timing(elapsed, elapsed * sampler.factor(first)), out


def run_case(case: workloads.Case, cap: float,
             sampler: hostspeed.Sampler) -> tuple[Timing, object]:
    """Time one case; returns (Timing, digest or "timeout")."""
    gc.collect()
    timing, out = timed(sampler, case.run, cap)
    if isinstance(out, CaseTimeout):
        return timing, "timeout"
    if isinstance(out, Exception):  # an uncaught error is the case's output
        return timing, {"raised": type(out).__name__}
    return timing, case.digest(out)


def run_pass(order: list[workloads.Case], pinned: dict,
             tracer: spans.Tracer | None, deadline: float,
             sampler: hostspeed.Sampler,
             digests: dict | None = None) -> PassResult:
    result = PassResult(tracer is not None,
                        first_span=len(tracer.spans) if tracer else 0)
    for case in order:
        left = deadline - time.perf_counter()
        if left <= 0:
            result.statuses[case.id] = "timeout"
            continue
        if tracer:
            tracer.case = case.id
        timing, digest = run_case(case, min(CASE_CAP_S, left), sampler)
        result.latencies[case.id] = timing.reference
        result.raw[case.id] = timing.measured
        if digest == "timeout":
            result.statuses[case.id] = "timeout"
            continue
        if digests is not None:
            digests[case.id] = digest
        result.statuses[case.id] = workloads.verdict(case.id, digest, pinned)
    result.last_span = len(tracer.spans) if tracer else 0
    return result


def tail(passes: list[list[float]]) -> tuple[str, float]:
    """The highest listed percentile of all samples with at least
    TAIL_SAMPLES samples beyond it.  With too few samples for any, the
    median over passes of each pass's slowest case: a maximum of a handful
    of samples mostly measures the host's noise."""
    xs = sorted(x for latencies in passes for x in latencies)
    n = len(xs)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            pos = (n - 1) * p / 100.0
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            return f"p{p:g}", xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return "median of per-pass maxima", statistics.median(
        max(latencies) for latencies in passes if latencies)


def setup(workload: str, root: Path, workdir: Path,
          sampler: hostspeed.Sampler):
    """Import the program and make the workload's inputs SETUP_REPEATS
    times; returns the last program, its cases and the median Timing."""
    timings = []
    for _ in range(SETUP_REPEATS):
        timing, out = timed(sampler, lambda: _setup_once(workload, root,
                                                         workdir))
        if isinstance(out, BaseException):
            raise out
        timings.append(timing)
        prog, cases = out
    return prog, cases, Timing(
        statistics.median(t.measured for t in timings),
        statistics.median(t.reference for t in timings))


def _setup_once(workload: str, root: Path, workdir: Path):
    prog = import_program(root / "src")
    return prog, workloads.prepare(workload, prog, root, workdir)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: Path, pinned: dict, digests: dict | None = None) -> dict:
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    with hostspeed.Sampler() as sampler:
        return _measure(workload, seed, seconds, trace, root, pinned,
                        digests, workdir, sampler)


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             root: Path, pinned: dict, digests: dict | None, workdir: Path,
             sampler: hostspeed.Sampler) -> dict:
    prog, cases, setup_time = setup(workload, root, workdir, sampler)
    model_of = {c.id: c.model for c in cases}
    problems: list[str] = []
    tracer = spans.Tracer() if trace else None
    setup_square_s = 0.0
    if tracer:
        model_of["setup"] = "setup"
        tracer.install(prog)
        tracer.case = "setup"
        try:
            timing, cases = timed(sampler, lambda: workloads.prepare(
                workload, prog, root, workdir))
        finally:
            tracer.uninstall()
        if isinstance(cases, BaseException):
            raise cases
        setup_layers, _ = spans.pass_metrics(
            tracer.spans, 0, len(tracer.spans), model_of, problems)
        setup_square_s = setup_layers["polygen.square_s"] * (
            timing.reference / timing.measured)

    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list[PassResult] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(cases)
        rng.shuffle(order)
        if traced:
            tracer.install(prog)
        try:
            passes.append(run_pass(order, pinned, tracer if traced else None,
                                   deadline, sampler, digests))
        finally:
            if traced:
                tracer.uninstall()
        if trace and len(passes) < 2:
            continue
        now = time.perf_counter()
        if now - start >= seconds or now > deadline:
            break

    statuses = [s for p in passes for s in p.statuses.values()]
    attempted = len(statuses)
    counts = {k: statuses.count(k)
              for k in ("pass", "wrong", "known-defect", "timeout")}
    failed = attempted - counts["pass"]
    wrong = sorted({cid for p in passes for cid, s in p.statuses.items()
                    if s == "wrong"})
    plain = [p for p in passes if not p.traced]
    samples = [x for p in plain for x in p.latencies.values()]
    tail_name, tail_s = tail([list(p.latencies.values()) for p in plain])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(p.wall for p in plain)
    summary = {
        "passes": len(passes),
        "pass_walls": [round(p.wall, 4) for p in passes],
        "pass_walls_measured": [round(sum(p.raw.values()), 4)
                                for p in passes],
        "setup_measured": round(setup_time.measured, 4),
        "host_factor": _spread(sampler),
        "attempted": attempted, "failed": failed,
        "statuses": counts, "wrong": wrong, "problems": problems,
    }
    end_to_end = {
        "setup_s": (setup_time.reference, "s"),
        "wall_s": (wall_s, "s"),
        "case_p50_s": (statistics.median(samples), "s"),
        "case_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (counts["pass"] / attempted, "fraction"),
    }
    summary["tail"] = f"{tail_name} of {len(samples)} samples"
    if len(cases) <= 10:
        by_case: dict[str, list[float]] = {}
        for p in plain:
            for cid, x in p.latencies.items():
                by_case.setdefault(cid, []).append(x)
        summary["case_medians"] = {cid: round(statistics.median(xs), 4)
                                   for cid, xs in sorted(by_case.items())}
    summary["failed_frac"] = f"{failed / attempted:.4f} ({failed} of " \
        f"{attempted})"
    per_layer = {}
    if tracer:
        per_layer, per_model = _layer_metrics(
            tracer, [p for p in passes if p.traced], wall_s, setup_square_s,
            model_of, problems)
        got = {k: per_layer[k][0] for k in spans.EXACT_COUNTS}
        got["enumerated_per_model"] = per_model["matchings enumerated"]
        expected = pinned.get("trace_counts", {}).get(workload)
        if digests is not None:
            digests.setdefault("trace_counts", {})[workload] = got
        elif got != expected:
            problems.append(f"exact counts {got} differ from pinned "
                            f"{expected}")
        summary["per_model"] = per_model
        tracer.write(workdir / f"spans-{workload}-{seed}.jsonl")
    return {"summary": summary, "end_to_end": end_to_end,
            "per_layer": per_layer,
            "correct": not wrong and not problems}


def _spread(sampler: hostspeed.Sampler) -> str:
    """The range of the host's speed over the run, as reference-speed
    factors of one-second windows of samples."""
    xs = sampler.samples
    step = max(1, int(1 / hostspeed.INTERVAL_S))
    factors = [sampler.factor(i, i + step)
               for i in range(0, max(1, len(xs) - step + 1), step)]
    return f"{min(factors):.3f}..{max(factors):.3f} over {len(xs)} samples"


def _layer_metrics(tracer: spans.Tracer, traced: list[PassResult],
                   wall_s: float, setup_square_s: float, model_of: dict,
                   problems: list[str]) -> tuple[dict, dict]:
    """Medians over the traced passes of each per-layer metric, and the
    per-model breakdown of the last traced pass.  Span times are scaled
    to the reference speed by their pass's factor."""
    per_pass = []
    for p in traced:
        m, per_model = spans.pass_metrics(tracer.spans, p.first_span,
                                          p.last_span, model_of, problems)
        measured = sum(p.raw.values())
        factor = p.wall / measured if measured else 1.0
        for name in m:
            if _unit(name) == "s":
                m[name] *= factor
        m["polygen.square_s"] = setup_square_s
        m["trace.overhead_s"] = p.wall - wall_s
        per_pass.append(m)
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in spans.EXACT_COUNTS and len(set(values)) > 1:
            problems.append(f"{name} differs between passes: {values}")
        out[name] = (statistics.median(values), _unit(name))
    return out, per_model


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "fraction"
    return "count"


def _print_report(workload: str, seed: int, trace: bool, res: dict) -> None:
    s = res["summary"]
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{s['passes']} passes, {s['attempted']} cases, statuses "
          f"{s['statuses']}")
    print(f"pass walls (s) {s['pass_walls']}")
    print(f"pass walls as measured (s) {s['pass_walls_measured']}")
    print(f"setup as measured (s) {s['setup_measured']}")
    print(f"host speed factor {s['host_factor']}")
    print(f"failed_frac {s['failed_frac']}")
    if s["wrong"]:
        print("wrong outputs: " + ", ".join(s["wrong"]))
    for problem in s["problems"]:
        print("problem: " + problem)
    metrics = res["per_layer"] if trace else res["end_to_end"]
    for name, (value, unit) in metrics.items():
        note = f"  ({s['tail']})" if name == "case_tail_s" else ""
        print(f"{name} {value:.6g} {unit}{note}")
    if "case_medians" in s:
        print(f"case medians (s) {s['case_medians']}")
    for name, values in s.get("per_model", {}).items():
        print(f"per model, last traced pass: {name} {values}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "dimertools" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/dimertools",
              file=sys.stderr)
        return 2
    pinned_path = Path(__file__).resolve().parent / "pinned.json"
    pinned = json.loads(pinned_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  root, pinned)
    _print_report(args.workload, args.seed, bool(args.trace), res)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["summary"]["attempted"],
        "failed": res["summary"]["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
