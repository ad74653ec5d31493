#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/test_perfbench.py

Takes about two minutes on two cores.  tune-scale is left out: three
of its searches would double that, and its determinism at any -j is the
tuner's own tested contract.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Every metric name the benchmark defines, gated or reported.
METRIC_NAMES = set(run.END_TO_END) | set(run.PER_LAYER) | set(run.REPORTED)
DETERMINISTIC = ("winner_us", "emit_ops", "emit_bytes", "legs_skipped",
                 "candidates", "rung_members", "winners", "failed", "known_defects")


def unit(workload, seed=1, jobs=None, plant=False, serve=None):
    args = ["unit", "--workload", workload, "--seed", str(seed),
            "--jobs", str(jobs or run.JOBS[workload])]
    if plant:
        args.append("--plant")
    return run.run_worker(args + (serve.args() if serve else []))[0]


def pick(r):
    return {k: r[k] for k in DETERMINISTIC if k in r}


class Bench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.OUT, exist_ok=True)
        cls.serve = run.Serve()

    def test_tune_default_repeats_across_runs_and_jobs(self):
        a = unit("tune-default", jobs=2)
        b = unit("tune-default", jobs=2)
        c = unit("tune-default", jobs=1)
        self.assertEqual(pick(a), pick(b))
        self.assertEqual(pick(a), pick(c))
        self.assertEqual(a["candidates"], [1569, 1061, 5])
        self.assertEqual(a["failed"], 0)

    def test_compile_verify_repeats_at_another_seed(self):
        # The seed orders a fixed draw, so every count repeats exactly.
        a = unit("compile-verify", seed=1)
        b = unit("compile-verify", seed=2)
        self.assertEqual(pick(a), pick(b))
        self.assertEqual(a["unexplained"], 0)
        self.assertEqual(a["known_defects"], {"composite-genp-reparse": 77})

    def test_serve_mix_repeats_at_another_seed(self):
        # The seed orders a fixed multiset of requests, and each layout's
        # C is checked on the same points, so the verdicts repeat too.
        a = unit("serve-mix", seed=1, serve=self.serve)
        b = unit("serve-mix", seed=2, serve=self.serve)
        self.assertEqual(pick(a), pick(b))
        self.assertEqual(a["shares"], b["shares"])
        self.assertEqual((a["attempted"], a["unexplained"]), (12800, 0))
        self.assertEqual(set(a["known_defects"]), {"c-emitted-past-guard"})

    def test_units_that_disagree_are_unexplained(self):
        same = {"attempted": 10, "failed": 1, "known_defects": {"d": 1}}
        self.assertEqual(run.verdicts([same, dict(same)]), (10, 1, []))
        other = dict(same, failed=2, known_defects={"d": 2})
        attempted, failed, odd = run.verdicts([same, same, other])
        self.assertEqual((attempted, failed, len(odd)), (10, 1, 1))

    def test_planted_wrong_answers_fail(self):
        clean = unit("tune-default")
        bad = unit("tune-default", plant=True)
        self.assertEqual(clean["failed"], 0)
        self.assertEqual(bad["failed"], 3)
        self.assertEqual(bad["unexplained"], 3)
        clean = unit("serve-mix", serve=self.serve)
        bad = unit("serve-mix", plant=True, serve=self.serve)
        self.assertGreater(bad["failed"], clean["failed"])
        self.assertEqual(bad["unexplained"], 1)
        bad = unit("compile-verify", plant=True)
        self.assertGreater(bad["unexplained"], 0)

    def test_metric_names_and_units(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(run.PER_LAYER))
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tune-default",
                 "--seed", "3", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, check=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            for name, m in last["metrics"].items():
                self.assertIn(name, METRIC_NAMES)
                self.assertEqual(m["unit"], declared[name])
            for line in out.splitlines()[:-1]:
                if line.startswith("  "):
                    name, unit_ = line.split()[0], line.split()[-1]
                    self.assertIn(name, METRIC_NAMES)
                    self.assertTrue(unit_)

    def test_fails_without_the_repository(self):
        bare = os.path.join(run.OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-mix",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
