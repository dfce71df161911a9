"""Self-test of the benchmark itself, on tiny workloads (about 10 s).

    python3 bench/test_bench.py        # or: python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORK = run.BENCH_DIR / "work" / "selftest"
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, questions: int = 300) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(
        workload, shape=dataclasses.replace(workload.shape, questions=questions, sentinel_every=50)
    )


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in run.WORKLOADS:
            files = []
            for attempt in range(2):
                work = WORK / f"gen{attempt}"
                shutil.rmtree(work, ignore_errors=True)
                files.append(run.prepare_inputs(tiny(name), 5, work).files)
            self.assertEqual(files[0], files[1], name)
            other = run.prepare_inputs(tiny(name), 6, WORK / "gen2")
            self.assertNotEqual(files[0], other.files, name)
            shutil.rmtree(WORK / "gen2")

    def test_class_counts_follow_the_paper_shares(self):
        shares = gen.paper_shares(run.ROOT)["TRAIN_SHARES"]
        counts = gen.class_counts(shares, 10000)
        self.assertEqual(sum(counts.values()), 10000)
        self.assertEqual(counts["undefined"], 1950)
        self.assertEqual(counts["what"], 5260)

    def test_punctuation_is_punctuation(self):
        import unicodedata

        chars = {ch for pair in gen.ASCII_WRAPS + gen.UNICODE_WRAPS for part in pair for ch in part}
        chars |= {ch for text in gen.EMPTY_ANSWERS for ch in text if not ch.isalpha() and ch != " "}
        for ch in chars:
            self.assertTrue(unicodedata.category(ch).startswith("P"), ch)


class PipelineTest(unittest.TestCase):
    """One repetition of the real CLI on a tiny workload, then tampering."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK / "pipe", ignore_errors=True)
        cls.workload = tiny("dev-multigold")
        cls.inputs = run.prepare_inputs(cls.workload, 3, WORK / "pipe")
        (WORK / "pipe" / "out").mkdir()
        cls.steps = run.pipeline_steps(cls.workload, cls.inputs, WORK / "pipe" / "out", 3)
        tally = run.Tally()
        with open(WORK / "pipe" / "commands.log", "wb") as log:
            cls.procs = run.run_pipeline(cls.steps, WORK / "pipe" / "out", log, run.cli_env(),
                                         tally, None)
        cls.tally = tally

    def step(self, name: str) -> run.Step:
        return next(s for s in self.steps if s.name == name)

    def test_untouched_artifacts_pass(self):
        self.assertEqual(self.tally.errors, [])
        self.assertEqual(self.tally.failed, 0)
        self.assertEqual(self.tally.attempted, len(run.STEPS))

    def tamper(self, path: Path, edit) -> list[str]:
        original = path.read_bytes()
        try:
            data = json.loads(original)
            edit(data)
            path.write_text(json.dumps(data), encoding="utf-8")
            return self.step_of(path).check()
        finally:
            path.write_bytes(original)

    def step_of(self, path: Path) -> run.Step:
        return next(s for s in self.steps if path in s.artifacts)

    def test_planted_wrong_ensemble_answer_is_caught(self):
        path = self.step("ensemble").artifacts[0]
        first = next(iter(json.loads(path.read_text(encoding="utf-8"))))
        errors = self.tamper(path, lambda d: d.__setitem__(first, "planted wrong answer"))
        self.assertTrue(any("no candidate" in e for e in errors), errors)

    def test_flipped_em_in_report_is_caught(self):
        path = self.step("evaluate").artifacts[0]

        def flip(report):
            scores = report["m1"]["per_question"]
            qid = next(iter(scores))
            scores[qid]["em"] = not scores[qid]["em"]

        self.assertTrue(self.tamper(path, flip))

    def test_changed_weight_is_caught(self):
        path = self.step("weights").artifacts[0]
        self.assertTrue(self.tamper(path, lambda t: t["global"].__setitem__("m1", 0.5)))

    def test_wrong_split_is_caught(self):
        path = self.step("split").artifacts[2]
        self.assertTrue(self.tamper(path, lambda m: m["pre_eval_ids"].pop()))

    def test_rerun_with_a_changed_artifact_fails(self):
        out = WORK / "pipe" / "out"
        reference = run.artifact_hashes(self.steps, out)
        reference[str(self.step("compare").artifacts[0].relative_to(out))] = "0" * 64
        tally = run.Tally()
        with open(WORK / "pipe" / "rerun.log", "wb") as log:
            self.assertIsNone(run.run_pipeline(self.steps, out, log, run.cli_env(), tally,
                                               reference))
        self.assertEqual(tally.failed, 1)


class RunTest(unittest.TestCase):
    """Whole runs print every metric BENCHMARK.json names."""

    def test_end_to_end_run(self):
        result = run.run("train-pipeline", 4, 0.1, False, tiny("train-pipeline"), WORK / "e2e")
        self.assertTrue(result["correct"], result)
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)

    def test_traced_run(self):
        work = WORK / "traced"
        result = run.run("variants-8model", 4, 0.1, True, tiny("variants-8model"), work)
        self.assertTrue(result["correct"], result)
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(set(result["metrics"]), names)

        t = tracer.Tracer.read(work / "spans.jsonl", work / "counts.json")
        self_times = t.self_times()
        self.assertGreaterEqual(min(self_times), -1e-9)
        root = next(i for i, s in enumerate(t.spans) if s.name == "pipeline")
        subtree = {root}
        for i, s in enumerate(t.spans):
            if s.parent in subtree:
                subtree.add(i)
        root_s = t.spans[root].end - t.spans[root].start
        self.assertAlmostEqual(sum(self_times[i] for i in subtree), root_s, delta=1e-9)
        layers = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
        self.assertLessEqual(layers, root_s)


if __name__ == "__main__":
    unittest.main()
