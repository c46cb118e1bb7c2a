"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the oracle rejects a wrong output, that a case past the
time cap is recorded as a timeout, that traced child spans stay inside
their parents, that a time at the reference speed is the measured time
scaled by the host samples over it, and that the metrics printed are the
ones BENCHMARK.json declares.  They take about half a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases as workloads  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL_MODELS = ("hexagonal", "memeg", "xyloops", "balwnopm", "cube")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = ROOT / ".perfbench_work"
        cls.workdir.mkdir(exist_ok=True)
        cls.prog = run.import_program(ROOT / "src")
        cls.pinned = json.loads((HERE / "pinned.json").read_text())
        cls.cases = {c.id: c for c in workloads.prepare(
            "fixtures", cls.prog, ROOT, cls.workdir)}

    def setUp(self):
        self.sampler = hostspeed.Sampler()
        self.sampler.start()
        self.addCleanup(self.sampler.stop)

    def small_cases(self):
        return [c for c in self.cases.values() if c.model in SMALL_MODELS]

    def verdict_of(self, case_id, pinned):
        _, digest = run.run_case(self.cases[case_id], run.CASE_CAP_S,
                                 self.sampler)
        return workloads.verdict(case_id, digest, pinned)

    def test_pinned_outputs_pass(self):
        for case in self.small_cases():
            expected = ("known-defect" if case.id in workloads.KNOWN_DEFECTS
                        else "pass")
            self.assertEqual(self.verdict_of(case.id, self.pinned), expected,
                             case.id)

    def test_wrong_pinned_output_fails(self):
        for case_id, path in (
                ("fixtures/report/hexagonal", ("records", 3, "ok")),
                ("fixtures/polygon/memeg", ("records", 0, "multiplicity")),
                ("fixtures/cy3/xyloops", ("exit",)),
                ("fixtures/svg/hexagonal", ("svg", "line"))):
            pinned = copy.deepcopy(self.pinned)
            node = pinned[case_id]
            for key in path[:-1]:
                node = node[key]
            value = node[path[-1]]
            node[path[-1]] = (not value) if isinstance(value, bool) \
                else value + 1
            self.assertEqual(self.verdict_of(case_id, pinned), "wrong",
                             case_id)

    def test_known_defect_rules(self):
        cid = "fixtures/svg/balwnopm"
        self.assertEqual(workloads.verdict(cid, {"raised": "IndexError"},
                                           self.pinned), "known-defect")
        self.assertEqual(workloads.verdict(cid, {"raised": "KeyError"},
                                           self.pinned), "wrong")
        for code in (1, 2):
            self.assertEqual(workloads.verdict(
                cid, {"exit": code, "svg": None}, self.pinned), "pass")
        self.assertEqual(workloads.verdict(
            "fixtures/svg/memeg", {"exit": 2, "svg": None}, self.pinned),
            "wrong")

    def test_r_symmetry_checked_by_its_equations(self):
        surface, symmetry = self.prog["surface"], self.prog["symmetry"]
        g = surface.load((ROOT / "src/dimertools/fixtures/memeg.dimer")
                         .read_text())
        q = surface.dualize(g)
        af = symmetry.find_anomaly_free(q)
        self.assertTrue(workloads.r_equations_hold(af, q, True))
        # moving weight between the two arrows of one face keeps its face
        # sum but breaks another face or a vertex equation
        a, b = q.faces[0].boundary[:2]
        w = list(af.weights)
        w[a], w[b] = w[a] + Fraction(1, 7), w[b] - Fraction(1, 7)
        moved = symmetry.WeightFunction(tuple(w), af.degree)
        self.assertFalse(workloads.r_equations_hold(moved, q, True))

    def test_case_past_cap_is_a_timeout(self):
        def spin():
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass

        slow = workloads.Case("slow", "none", spin, lambda raw: raw)
        timing, digest = run.run_case(slow, 0.2, self.sampler)
        self.assertEqual(digest, "timeout")
        self.assertLess(timing.measured, 1.0)
        deep = workloads.prepare("deep", self.prog, ROOT, self.workdir)[0]
        self.assertEqual(run.run_case(deep, 0.1, self.sampler)[1],
                         "timeout")
        # the program still answers after an interrupted case
        self.assertEqual(self.verdict_of("fixtures/report/hexagonal",
                                         self.pinned), "pass")
        late = run.run_pass([deep], self.pinned, None,
                            time.perf_counter() - 1, self.sampler)
        self.assertEqual(late.statuses, {deep.id: "timeout"})

    def test_child_spans_stay_inside_parents(self):
        tracer = spans.Tracer()
        originals = {attr: getattr(self.prog["algebra"].ToricData, attr)
                     for attr in ("__init__", "fterm_closure")}
        tracer.install(self.prog)
        try:
            result = run.run_pass(self.small_cases(), self.pinned, tracer,
                                  time.perf_counter() + 60, self.sampler)
        finally:
            tracer.uninstall()
        for attr, fn in originals.items():
            self.assertIs(getattr(self.prog["algebra"].ToricData, attr), fn)
        self.assertNotIn("wrong", result.statuses.values())
        children = [0.0] * len(tracer.spans)
        names = {s.name for s in tracer.spans}
        for s in tracer.spans:
            self.assertLessEqual(s.start, s.end)
            if s.parent >= 0:
                parent = tracer.spans[s.parent]
                self.assertLessEqual(parent.start, s.start)
                self.assertLessEqual(s.end, parent.end)
                self.assertEqual(parent.case, s.case)
                children[s.parent] += s.dur
        for s, inner in zip(tracer.spans, children):
            self.assertLessEqual(inner, s.dur)
        for name in ("cli.main", "surface.dualize", "render.svg",
                     "algebra.consistency", "rationallp.algebra",
                     "algebra.cy3", "fans.extremal"):
            self.assertIn(name, names)

    def test_traced_passes_are_measured_apart(self):
        tracer = spans.Tracer()
        model_of = {c.id: c.model for c in self.cases.values()}
        per_pass = []
        for _ in range(2):
            tracer.install(self.prog)
            try:
                p = run.run_pass(self.small_cases(), self.pinned, tracer,
                                 time.perf_counter() + 60, self.sampler)
            finally:
                tracer.uninstall()
            problems = []
            metrics, _ = spans.pass_metrics(tracer.spans, p.first_span,
                                            p.last_span, model_of, problems)
            self.assertEqual(problems, [])
            per_pass.append(metrics)
        for name in list(spans.CALL_METRICS) + list(spans.EXACT_COUNTS):
            self.assertEqual(per_pass[0][name], per_pass[1][name], name)
        self.assertGreater(per_pass[0]["rationallp.algebra_calls"], 0)

    def test_metrics_match_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.sampler.stop()     # measure runs a sampler of its own
        res = run.measure("fixtures", 1, 0, True, ROOT, self.pinned)
        self.assertTrue(res["correct"], res["summary"])
        self.assertEqual(res["summary"]["statuses"]["known-defect"],
                         2 * len(workloads.KNOWN_DEFECTS))
        for kind in ("end_to_end", "per_layer"):
            got = {name: unit for name, (_, unit) in res[kind].items()}
            want = {m["name"]: m["unit"] for m in declared[kind]}
            self.assertEqual(got, want, kind)

    def test_host_speed_cancels(self):
        """A time at the reference speed is the measured time scaled by
        the samples taken over it, and the sampling time is not part of
        the measured time."""
        sampler = hostspeed.Sampler()
        sampler.samples = [0.002, 0.003]
        self.assertAlmostEqual(sampler.factor(0), 0.4)
        self.assertAlmostEqual(sampler.factor(1), 1 / 3)
        self.sampler.stop()
        with hostspeed.Sampler() as sampler:
            timing, _ = run.timed(sampler, lambda: time.sleep(0.5))
            self.assertGreater(len(sampler.samples), 3)
            self.assertGreater(sampler.in_handler, 0)
            self.assertAlmostEqual(timing.measured + sampler.in_handler,
                                   0.5, delta=0.05)
            self.assertAlmostEqual(
                timing.reference,
                timing.measured * sampler.factor(0), places=9)

    def test_tail_percentile(self):
        self.assertEqual(run.tail([[1.0, 5.0], [1.0, 3.0], [2.0, 4.0]]),
                         ("median of per-pass maxima", 4.0))
        self.assertEqual(run.tail([list(range(200))])[0], "p95")
        self.assertEqual(run.tail([list(range(500))] * 2)[0], "p99")

    def test_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as d:
            bare = Path(d)
            (bare / "perfbench").mkdir()
            for f in HERE.iterdir():
                if f.is_file():
                    (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
            (bare / "BENCHMARK.json").write_bytes(
                (ROOT / "BENCHMARK.json").read_bytes())
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "square",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
