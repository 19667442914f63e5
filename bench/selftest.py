"""Self-tests of the benchmark harness (stdlib unittest, about half a minute).

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))

DETERMINISTIC = (".calls", ".coeff_ops", ".distinct_inputs", ".repeat_calls", ".proven",
                 ".max_degree", ".max_n", ".out_bytes", ".repeat_ratio", ".proven_ratio")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 12345):
                self.assertEqual(workloads.generate(name, seed), workloads.generate(name, seed))
            self.assertNotEqual(workloads.generate(name, 1), workloads.generate(name, 2))

    def test_candidates_follow_the_hypotheses(self):
        for D, _, _ in workloads.SCAN_FIELDS:
            self.assertTrue(D < 0 and D % 4 in (2, 3) and D % 3 != 2)
            self.assertTrue(all(D % (q * q) for q in range(2, abs(D) + 1)))
        for seed in range(200):
            for argv in workloads.generate("certify-deep", seed):
                m, a, b = map(int, checks._flag(argv, "--candidate")[4:].split(","))
                n = int(checks._flag(argv, "--n"))
                self.assertIn(m, (8, 12))
                self.assertTrue(a % 6 == 0 and a % 5 != 0 and n % 5 <= 3 and n >= 2500)
            for argv in workloads.generate("series-exact", seed):
                self.assertIn(argv[0], ("tau", "hurwitz", "poly"))
                self.assertNotIn("--mod", argv)


class OutputCheckTest(unittest.TestCase):
    def test_single_byte_change_is_a_failure(self):
        env = run.child_env()
        recorded = checks.load_reference("scan-grid")
        entry = next(e for e in recorded if "--kind=gauss" in e["argv"])
        good = run.spawn(entry["argv"], env)
        self.assertEqual(checks.check(good.argv, good.code, good.out, good.err, entry["sha256"]), [])
        i = good.out.index(b'"status"') + 1
        bad = run.Result(**{**vars(good), "out": good.out[:i] + b"S" + good.out[i + 1:]})
        self.assertNotEqual(checks.check(bad.argv, bad.code, bad.out, bad.err, entry["sha256"]),
                            [])
        # Across passes: the reference matches the first pass, one byte differs
        # in the second, so exactly one invocation counts as failed.
        invocations = [entry["argv"]]
        attempted, failed, _ = run._check_all("scan-grid", workloads.DEFAULT_SEED, invocations,
                                              [[good], [bad]])
        self.assertEqual((attempted, failed), (2, 1))
        attempted, failed, _ = run._check_all("scan-grid", 7, invocations, [[bad], [good]])
        self.assertEqual((attempted, failed), (2, 1))


class TracerTest(unittest.TestCase):
    def test_every_binding_site_is_wrapped(self):
        # The tracer refuses to run while any module global still holds an
        # unwrapped function; these spans exist only if the names bound by
        # ``from ... import`` in cli and certify were replaced too.
        env = run.child_env()
        cases = [
            (["zmija"], ["certify.check_zmija_conditions", "polymod.factor"]),
            (["certify", "--candidate", "cyc:8,6,1", "--n", "301"],
             ["certify.certify", "polymod.factor", "polymod.reduce_mod"]),
            (["certify", "--candidate", "quad:-2,1,1", "--all-n"], ["certify.certify_all_n"]),
            (["scan", "--kind=gauss", "--a-range=0:1", "--b-range=0:1", "--n-max", "3"],
             ["certify.scan_grid", "polynomial.IntPoly.evaluate"]),
        ]
        for argv, spans in cases:
            r = run.spawn(argv, env, traced=True)
            self.assertIn(r.code, (0, 1), r.err)
            for span in spans:
                self.assertGreater(r.stats["spans"].get(span, {}).get("calls", 0), 0, (argv, span))

    def test_counts_repeat_and_spans_cover_the_wall_time(self):
        env = run.child_env()
        for name in workloads.WORKLOADS:
            invocations = workloads.generate(name, workloads.DEFAULT_SEED)
            passes = [run.run_pass(invocations, env, [], traced=True) for _ in range(2)]
            counts = []
            for results in passes:
                stats = [r.stats for r in results]
                metrics = run.layer_metrics(run.merge_stats(stats))
                counts.append({k: v for k, v in metrics.items() if k.endswith(DETERMINISTIC)})
                wall = sum(s["wall_s"] for s in stats)
                unattributed = sum(s["unattributed_s"] for s in stats)
                self.assertLess(unattributed, 0.05 * wall, name)
            self.assertEqual(counts[0], counts[1], name)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = run.layer_metrics({"spans": {}, "counters": {}, "unattributed_s": 0.0})
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(k, run.layer_unit(k), run.layer_better(k)) for k in per_layer])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
