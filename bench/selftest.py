"""Self-tests of the benchmark harness, kept out of the repository's test suite.

Run from the repository root (about half a minute):

    python3 bench/selftest.py
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
import unittest
from collections import Counter
from pathlib import Path

from run import HERE, load_bcsys, percentile, read_json, run_pass, tail_percentile
from speed import plain_measure

load_bcsys()

import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

from bcsys import cesys, core, esys  # noqa: E402


def keys(jobs) -> list[str]:
    return [job.key for job in jobs]


class JobListTest(unittest.TestCase):
    def test_same_seed_same_job_list(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                a = workloads.job_list(name, 7, Path(tmp))
                b = workloads.job_list(name, 7, Path(tmp))
                for _ in range(3):
                    self.assertEqual(keys(next(a)), keys(next(b)))

    def test_seed_changes_order_not_work(self):
        with tempfile.TemporaryDirectory() as tmp:
            first = keys(next(workloads.job_list("e-laws", 1, Path(tmp))))
            second = keys(next(workloads.job_list("e-laws", 2, Path(tmp))))
        self.assertNotEqual(first, second)
        self.assertEqual(Counter(first), Counter(second))

    def test_every_pass_draws_every_height_once(self):
        with tempfile.TemporaryDirectory() as tmp:
            passes = workloads.job_list("e-laws", 3, Path(tmp))
            for _ in range(3):
                ks = keys(next(passes))
                self.assertEqual(len(ks), len(set(ks)))
                for h in workloads.E_HEIGHTS:
                    self.assertEqual(sum(k.endswith(f" h{h}") for k in ks), 4)

    def test_chain_steps_stay_in_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            ks = keys(next(workloads.job_list("translate-io", 5, Path(tmp))))
        chain = [k for k in ks if k.endswith("finset-b h7")]
        self.assertEqual([k.split()[1] for k in chain[:6]], ["b>e", "e>ce", "ce>c", "c>ce", "ce>e", "e>b"])
        self.assertEqual([k.split()[0] for k in chain[6:]], ["roundtrip", "check"])


class PercentileTest(unittest.TestCase):
    def test_known_sample_counts(self):
        self.assertEqual(tail_percentile(28), 62)
        self.assertEqual(tail_percentile(48), 78)
        self.assertEqual(tail_percentile(135), 92)
        self.assertEqual(tail_percentile(1001), 99)
        with self.assertRaises(ValueError):
            tail_percentile(11)

    def test_highest_with_ten_beyond(self):
        def beyond(n, p):  # samples past both interpolation points
            return n - 1 - math.ceil((n - 1) * p / 100)

        for n in range(12, 2000):
            p = tail_percentile(n)
            self.assertGreaterEqual(beyond(n, p), 10, n)
            self.assertLess(beyond(n, p + 1), 10, n)

    def test_ten_values_above_the_tail(self):
        rng = random.Random(0)
        for n in range(12, 400, 7):
            values = [rng.random() for _ in range(n)]
            cut = percentile(values, tail_percentile(n))
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)

    def test_interpolation(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertAlmostEqual(percentile([0.0, 10.0], 25), 2.5)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            Span(0, "root", "j", None, 0.0, 10.0),
            Span(1, "a", "j", 0, 1.0, 4.0),
            Span(2, "a.child", "j", 1, 2.0, 3.0),
            Span(3, "b", "j", 0, 5.0, 6.0),
        ]
        self.assertEqual(self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_tracer_spans_and_restore(self):
        originals = (esys.validate_fincat, core.FinCat.hom, core.FinCat.comp)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(esys.validate_fincat, originals[0])
            esys.validate_esystem(esys.build_nat_esystem(3))
        finally:
            tracer.remove()
        self.assertEqual((esys.validate_fincat, core.FinCat.hom, core.FinCat.comp), originals)
        by_name = {s.name: s for s in tracer.spans}
        outer = by_name["esys.validate_esystem"]
        self.assertEqual(by_name["core.validate_fincat"].parent, outer.id)
        self.assertGreater(tracer.calls["core.FinCat.hom"], 0)
        self.assertGreater(tracer.calls["core.FinCat.comp"], 0)
        self.assertLess(tracer.self_seconds()["esys.validate_esystem"], outer.end - outer.start)


class CorruptionTest(unittest.TestCase):
    def test_unit_law_fails_for_every_seed(self):
        for seed in range(1, 9):
            entry = workloads.choose_corruption(seed)
            rep = cesys.validate_cesystem(workloads.corrupted_finset_ce(entry), rooted=True, stratified=True)
            self.assertIn("base:unit", rep.failed_laws(), (seed, entry))


class GoldenTest(unittest.TestCase):
    def job(self, seed: int, key: str):
        with tempfile.TemporaryDirectory() as tmp:
            return next(j for j in next(workloads.job_list("b2c2b", seed, Path(tmp))) if j.key == key)

    def test_missing_golden_copy_fails(self):
        known = read_json(HERE / "known.json")
        job = self.job(1, "casce_iso finset-ce h3")
        out = workloads.Outcome(text="", ok=True)
        self.assertEqual(workloads.check(job, out, known, {}), "no golden copy")
        self.assertIsNone(workloads.check(job, out, known, None))

    def test_only_another_seeds_corruption_has_no_golden_copy(self):
        key = "validate_cesystem finset-ce h3 corrupted"
        golden = read_json(HERE / "golden" / "b2c2b.json")
        self.assertIn(self.job(workloads.DEFAULT_SEED, key).golden, golden)
        self.assertIsNone(self.job(2, key).golden)


class SecondSeedTest(unittest.TestCase):
    def test_known_answers_and_golden_copies_hold(self):
        known = read_json(HERE / "known.json")
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                golden = read_json(HERE / "golden" / f"{name}.json")
                jobs = next(workloads.job_list(name, 2, Path(tmp)))
                for r in run_pass(jobs, known, golden, plain_measure):
                    self.assertIsNone(r.error, f"{name}: {r.key}")


if __name__ == "__main__":
    sys.exit(unittest.main())
