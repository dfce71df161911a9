"""``tools/ab.py``: its parser, its digest check and its claim rule, on recorded
``bench/run.py`` output; no benchmark runs here."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = (ROOT / "tests" / "data" / "bench_run_output.txt").read_text(encoding="utf-8")
DIGEST = "f27b20e431b18316abf22043c4068133dcda0af1326efa18610669b6294e1953"

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def run(digest=DIGEST, correct=True) -> dict:
    return {"correct": correct, "failed": 0 if correct else 1, "digest": digest, "metrics": {}}


class TestParseRun:
    def test_recorded_output(self):
        """dev-multigold at seed 701, ``--seconds 1 --trace 0``."""
        parsed = ab.parse_run(RECORDED)
        assert parsed == {"correct": True, "failed": 0, "digest": DIGEST, "metrics": {
            "setup_s": 0.058587000996340066, "pipeline_s": 0.9839339470054256,
            "peak_rss_mb": 40.88671875}}

    def test_a_run_cut_before_its_result_line(self):
        with pytest.raises(ValueError, match="no result line"):
            ab.parse_run(RECORDED.rsplit("\n", 2)[0])

    def test_a_run_without_its_digest_line(self):
        lines = [line for line in RECORDED.splitlines() if "digest" not in line]
        with pytest.raises(ValueError, match="found 0"):
            ab.parse_run("\n".join(lines))


class TestRunErrors:
    def test_equal_digests_and_correct_runs_pass(self):
        assert ab.run_errors([{"seed": 1, "base": run(), "head": run()}]) == []

    def test_one_changed_artifact_fails_its_pair(self):
        changed = DIGEST[:-1] + "0"
        errors = ab.run_errors([{"seed": 1, "base": run(), "head": run()},
                                {"seed": 2, "base": run(), "head": run(changed)}])
        assert errors == [f"seed 2: artifact digests differ, base {DIGEST}, head {changed}"]

    def test_a_run_that_is_not_correct_fails(self):
        errors = ab.run_errors([{"seed": 3, "base": run(correct=False), "head": run()}])
        assert errors == ["seed 3: the base run is not correct (1 failed)"]


class TestClaimRule:
    """A gain is claimed when the head wins at least nine tenths of at least ten
    pairs, ties counting for neither side, and the medians differ, in the better
    direction, by more than the base's interquartile range."""

    BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def summary(self, head, base=None, better="lower"):
        return ab.summarize(base or self.BASE, head, better, 0.25)

    def test_ten_wins_and_a_wide_gap_claim(self):
        m = self.summary([b - 0.1 for b in self.BASE])
        assert (m["wins"], m["pairs"], m["claim_met"]) == (10, 10, True)
        assert m["head"] == pytest.approx(0.9) and m["change"] == pytest.approx(-0.1)
        assert m["base_iqr"] == pytest.approx(0.04)  # quartiles 0.98 and 1.02

    def test_nine_wins_of_ten_still_claim(self):
        head = [b - 0.1 for b in self.BASE]
        head[0] = self.BASE[0]  # a tie counts for neither side
        assert (self.summary(head)["wins"], self.summary(head)["claim_met"]) == (9, True)

    def test_eight_wins_of_ten_claim_nothing(self):
        head = [b - 0.1 for b in self.BASE]
        head[0] = head[1] = 2.0
        assert (self.summary(head)["wins"], self.summary(head)["claim_met"]) == (8, False)

    def test_a_gap_inside_the_base_spread_claims_nothing(self):
        m = self.summary([b - 0.01 for b in self.BASE])
        assert m["wins"] == 10 and m["base"] - m["head"] < m["base_iqr"]
        assert not m["claim_met"]

    def test_nine_pairs_claim_nothing(self):
        assert not self.summary([b - 0.1 for b in self.BASE[:9]], self.BASE[:9])["claim_met"]

    def test_higher_is_better(self):
        m = self.summary([b + 0.1 for b in self.BASE], better="higher")
        assert (m["wins"], m["claim_met"]) == (10, True)

    def test_a_tree_against_itself_claims_nothing_and_stays_in_bound(self):
        m = self.summary(list(self.BASE))
        assert (m["wins"], m["claim_met"], m["worse_than_bound"]) == (0, False, False)

    def test_a_tree_against_itself_is_resolved_when_its_spread_is_within_the_bound(self):
        assert not self.summary(list(self.BASE))["unresolved"]  # IQR 0.04 < 0.25 * 1.0

    def test_worse_than_the_bound(self):
        assert self.summary([b * 1.3 for b in self.BASE])["worse_than_bound"]
        assert not self.summary([b * 1.2 for b in self.BASE])["worse_than_bound"]


def test_report_covers_every_end_to_end_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parsed = ab.parse_run(RECORDED)
    pairs = [{"seed": 1, "base": parsed, "head": parsed}]
    assert list(ab.report(pairs, spec)) == ["setup_s", "pipeline_s", "peak_rss_mb"]


def test_each_workload_keeps_its_own_revisions(tmp_path):
    out = tmp_path / "bench.json"
    ab.add_workload(out, "dev-multigold", {"base": "aaa", "head": "bbb", "seconds": 35})
    ab.add_workload(out, "train-pipeline", {"base": "ccc", "head": None, "seconds": 10})
    ab.add_workload(out, "dev-multigold", {"base": "aaa", "head": "ddd", "seconds": 35})
    assert json.loads(out.read_text(encoding="utf-8")) == {"workloads": {
        "dev-multigold": {"base": "aaa", "head": "ddd", "seconds": 35},
        "train-pipeline": {"base": "ccc", "head": None, "seconds": 10}}}


class TestUnresolved:
    """A metric whose base runs spread wider than its bound (base IQR above the
    bound times the base median) is unresolved, unless every head run is
    better than every base run."""

    WIDE = [1.0, 1.4, 0.8, 1.3, 0.7, 1.2, 0.9, 1.5, 0.6, 1.1]  # IQR 0.5 > 0.25 * 1.05

    def test_recorded_pairs_with_a_wide_base_spread(self):
        """BENCH_32.json's dev-multigold pairs: the base's `pipeline_s` IQR is
        0.375 s against a bound of 0.25 * 1.246 s."""
        recorded = json.loads((ROOT / "BENCH_32.json").read_text(encoding="utf-8"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
        pairs = [{side: {"metrics": pair[side]} for side in ("base", "head")}
                 for pair in recorded["workloads"]["dev-multigold"]["pairs"]]
        unresolved = {name: m["unresolved"] for name, m in ab.report(pairs, spec).items()}
        assert unresolved == {"setup_s": False, "pipeline_s": True, "peak_rss_mb": False}

    def test_a_wide_spread_with_overlapping_runs_is_unresolved(self):
        m = ab.summarize(self.WIDE, [b - 0.05 for b in self.WIDE], "lower", 0.25)
        assert m["base_iqr"] > 0.25 * m["base"]
        assert m["wins"] == 10 and not m["worse_than_bound"] and m["unresolved"]

    @pytest.mark.parametrize("better, shift", [("lower", -1.0), ("higher", 1.0)])
    def test_every_head_run_better_than_every_base_run_resolves_it(self, better, shift):
        head = [b + shift for b in self.WIDE]  # the worst head run beats the best base run
        assert not ab.summarize(self.WIDE, head, better, 0.25)["unresolved"]
        assert ab.summarize(self.WIDE, head, "higher" if better == "lower" else "lower",
                            0.25)["unresolved"]
