from __future__ import annotations

import json
import math
import re

import pytest

from helpers import make_dataset, uniform_counts

from qavote.corpus import Dataset, Paragraph, QaItem, SchemaError, split_pre_eval
from qavote.metrics import evaluate, normalize_answer, score_pair
from qavote.synth import (
    AccuracyProfile,
    Corruption,
    generate_predictions,
    load_profile,
)
from qavote.taxonomy import CLASS_LABELS


def all_classes(p: float) -> dict[str, float]:
    return {label: p for label in CLASS_LABELS}


class TestGeneration:
    def test_probability_one_is_perfect(self, rules, small_dataset):
        profile = AccuracyProfile(per_class=all_classes(1.0), seed=1)
        preds = generate_predictions(small_dataset, profile, "perfect", rules)
        report = evaluate(preds, small_dataset, rules)
        assert report.overall.mean_f1 == 1.0
        assert report.overall.em_rate == 1.0

    def test_probability_zero_disjoint_scores_zero(self, rules, small_dataset):
        profile = AccuracyProfile(
            per_class=all_classes(0.0), corruption=Corruption.DISJOINT_TOKEN, seed=2
        )
        preds = generate_predictions(small_dataset, profile, "hopeless", rules)
        report = evaluate(preds, small_dataset, rules)
        assert report.overall.mean_f1 == 0.0
        assert report.overall.em_rate == 0.0

    def test_coverage_and_determinism(self, rules, small_dataset):
        profile = AccuracyProfile(per_class=all_classes(0.5), seed=3)
        a = generate_predictions(small_dataset, profile, "m", rules)
        b = generate_predictions(small_dataset, profile, "m", rules)
        assert set(a.answers) == set(small_dataset.ids)
        assert a.answers == b.answers

    def test_different_seeds_differ(self, rules, small_dataset):
        p1 = AccuracyProfile(per_class=all_classes(0.5), seed=1)
        p2 = AccuracyProfile(per_class=all_classes(0.5), seed=2)
        a = generate_predictions(small_dataset, p1, "m", rules)
        b = generate_predictions(small_dataset, p2, "m", rules)
        assert a.answers != b.answers

    def test_subset_reproduces_per_question_outcomes(self, rules):
        dataset = make_dataset(uniform_counts(6))
        profile = AccuracyProfile(per_class=all_classes(0.5), seed=5)
        full = generate_predictions(dataset, profile, "m", rules)
        part = split_pre_eval(dataset, 0.3, seed=9).pre_eval
        subset = generate_predictions(part, profile, "m", rules)
        assert subset.answers == {qid: full.answers[qid] for qid in part.ids}

    def test_absent_class_defaults_to_probability_zero(self, rules):
        dataset = make_dataset({"who": 6})
        profile = AccuracyProfile(per_class={"what": 1.0}, seed=1)
        preds = generate_predictions(dataset, profile, "m", rules)
        report = evaluate(preds, dataset, rules)
        assert report.overall.mean_f1 == 0.0

    def test_truncate_gold_between_zero_and_one(self, rules):
        # every synthetic gold has two normalized tokens
        dataset = make_dataset(uniform_counts(3))
        profile = AccuracyProfile(
            per_class=all_classes(0.0), corruption=Corruption.TRUNCATE_GOLD, seed=4
        )
        preds = generate_predictions(dataset, profile, "m", rules)
        for item in dataset.items:
            assert len(normalize_answer(item.gold_answers[0])) >= 2
            f1, em_flag = score_pair(preds.answers[item.id], item.gold_answers)
            assert 0.0 < f1 < 1.0
            assert not em_flag

    def test_random_span_comes_from_context(self, rules, small_dataset):
        profile = AccuracyProfile(
            per_class=all_classes(0.0), corruption=Corruption.RANDOM_SPAN, seed=6
        )
        preds = generate_predictions(small_dataset, profile, "m", rules)
        for paragraph in small_dataset.paragraphs:
            for item in paragraph.items:
                assert preds.answers[item.id] in paragraph.context

    def test_sentinel_fallback_when_context_offers_no_span(self, rules):
        # context tokens are a subset of the gold tokens: no disjoint span exists
        item = QaItem(
            id="q0",
            question="Who wrote it?",
            gold_answers=("alpha beta",),
            answer_starts=(0,),
        )
        dataset = Dataset((Paragraph("p0", "t", "alpha beta", (item,)),))
        profile = AccuracyProfile(per_class=all_classes(0.0), seed=7)
        preds = generate_predictions(dataset, profile, "m", rules)
        assert preds.meta["sentinel_fallback_ids"] == ("q0",)
        f1, em_flag = score_pair(preds.answers["q0"], item.gold_answers)
        assert f1 == 0.0 and not em_flag

    def test_empty_dataset_rejected(self, rules):
        empty = Dataset(())
        profile = AccuracyProfile(per_class=all_classes(1.0), seed=1)
        with pytest.raises(ValueError, match="empty"):
            generate_predictions(empty, profile, "m", rules)

    def test_binomial_interval_at_p06(self, rules):
        # class-level EM rate should sit inside a central 99% binomial band
        n = 200
        dataset = make_dataset({"who": n})
        profile = AccuracyProfile(per_class={"who": 0.6}, seed=8)
        preds = generate_predictions(dataset, profile, "m", rules)
        report = evaluate(preds, dataset, rules)
        hits = round(report.per_class["who"].em_rate * n)
        lo, hi = _binomial_central_interval(n, 0.6, 0.99)
        assert lo <= hits <= hi


def _binomial_central_interval(n: int, p: float, mass: float) -> tuple[int, int]:
    """Smallest [lo, hi] hit-count window centered at the mode holding >= mass."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    lo = hi = max(range(n + 1), key=lambda k: pmf[k])
    total = pmf[lo]
    while total < mass:
        left = pmf[lo - 1] if lo > 0 else -1.0
        right = pmf[hi + 1] if hi < n else -1.0
        if right > left:
            hi += 1
            total += pmf[hi]
        else:
            lo -= 1
            total += pmf[lo]
    return lo, hi


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        profile = AccuracyProfile(
            per_class={"what": 0.9, "who": 0.1},
            corruption=Corruption.TRUNCATE_GOLD,
            seed=12,
        )
        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps({"per_class": {"what": 0.9, "who": 0.1},
                        "corruption": "truncate_gold", "seed": 12}),
            encoding="utf-8",
        )
        assert load_profile(path) == profile

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="out of"):
            AccuracyProfile(per_class={"what": 1.2}, seed=0)

    @pytest.mark.parametrize("seed", ["1", 1.0, True, None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            AccuracyProfile({"who": 0.5}, seed=seed)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("per_class"), "$.per_class"),
            (lambda d: d.update(per_class=[["what", 0.5]]), "$.per_class"),
            (lambda d: d["per_class"].update(what="0.5"), "$.per_class.what"),
            (lambda d: d["per_class"].update(what=True), "$.per_class.what"),
            (lambda d: d["per_class"].update(what=10**400), "$.per_class.what"),
            (lambda d: d["per_class"].update(what=None), "$.per_class.what"),
            (lambda d: d.pop("corruption"), "$.corruption"),
            (lambda d: d.update(corruption="shuffle"), "$.corruption"),
            (lambda d: d.update(seed="12"), "$.seed"),
            (lambda d: d.update(seed=12.0), "$.seed"),
            (lambda d: d.update(seed=False), "$.seed"),
        ],
        ids=[
            "no-per_class", "per_class-list", "probability-str", "probability-bool",
            "probability-huge-int", "probability-null", "no-corruption", "unknown-corruption",
            "seed-str", "seed-float", "seed-bool",
        ],
    )
    def test_malformed_profile_names_field(self, tmp_path, mutate, field):
        data = {"per_class": {"what": 0.5, "who": 1}, "corruption": "truncate_gold", "seed": 12}
        mutate(data)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(field)):
            load_profile(path)

    def test_profile_must_be_an_object(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(SchemaError, match="must be an object"):
            load_profile(path)
