from __future__ import annotations

import json
import string
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_dataset

from qavote.corpus import PredictionSet
from qavote.metrics import (
    EvalReport,
    MissingPolicy,
    QuestionScore,
    em,
    evaluate,
    normalize_answer,
    report_from_scores,
    score_pair,
    token_f1,
)

ORACLE_PATH = Path(__file__).parent / "data" / "metric_oracle.json"


def load_oracle():
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# Reference normalization and scoring: a per-character punctuation filter,
# and EM and F1 that each normalize the prediction and the golds themselves.
# The library's translate table and shared token path must agree with it.
_REF_ASCII_PUNCT = frozenset(string.punctuation)


def reference_normalize(text: str) -> list[str]:
    cleaned = "".join(
        ch
        for ch in text.lower()
        if ch not in _REF_ASCII_PUNCT and not unicodedata.category(ch).startswith("P")
    )
    return [tok for tok in cleaned.split() if tok not in {"a", "an", "the"}]


def reference_f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return (2 * precision * recall) / (precision + recall)


def reference_score_pair(prediction: str, golds: list[str]) -> tuple[float, bool]:
    f1 = max(
        reference_f1_single(reference_normalize(prediction), reference_normalize(g))
        for g in golds
    )
    em_flag = any(reference_normalize(prediction) == reference_normalize(g) for g in golds)
    return f1, em_flag


# Any code point but surrogates, astral planes included.
any_char_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30)
# Every drawn tricky text holds one piece of each kind: a character whose
# lower() is longer than itself, ASCII punctuation, Unicode P* (U+10100 is
# astral), and an article token.
LOWER_GROWS = ("\u0130",)  # "İ".lower() is "i" + U+0307
UNICODE_PUNCT = tuple("\u00bf\u00ab\u00bb\u2026\u300c\u300d") + ("\U00010100",)
ARTICLES = ("a", "an", "the", "The", "AN", "A")


@st.composite
def tricky_text(draw) -> str:
    pieces = draw(st.lists(any_char_text, max_size=3)) + [
        draw(st.sampled_from(LOWER_GROWS)),
        draw(st.sampled_from(string.punctuation)),
        draw(st.sampled_from(UNICODE_PUNCT)),
        draw(st.sampled_from(ARTICLES)),
    ]
    pieces = draw(st.permutations(pieces))
    text = pieces[0]
    for piece in pieces[1:]:
        text += draw(st.sampled_from(["", " ", "\t", "\u3000"])) + piece
    return text


class TestNormalize:
    def test_documented_examples(self):
        assert normalize_answer("The Cat!") == ["cat"]
        assert normalize_answer("") == []
        assert normalize_answer("a an the") == []

    def test_article_only_as_whole_tokens(self):
        assert normalize_answer("Theatre another theme") == ["theatre", "another", "theme"]

    @settings(max_examples=300, deadline=None)
    @given(tricky_text())
    def test_matches_reference_filter(self, text):
        assert normalize_answer(text) == reference_normalize(text)

    @settings(max_examples=300, deadline=None)
    @given(any_char_text)
    def test_matches_reference_filter_on_any_text(self, text):
        assert normalize_answer(text) == reference_normalize(text)

    @pytest.mark.parametrize(
        "text", ["\u0130stanbul", "\u00bfQu\u00e9?", "\u00abthe\u00bb end\u2026",
                 "\u300cA\u300d", "x\U00010100y", "don't", "The. an, a"]
    )
    def test_matches_reference_filter_on_examples(self, text):
        assert normalize_answer(text) == reference_normalize(text)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=60))
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(" ".join(once)) == once


answer_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


class TestScores:
    def test_frozen_oracle_table_exactly(self):
        rows = load_oracle()
        assert len(rows) >= 100
        for row in rows:
            f1 = token_f1(row["prediction"], row["golds"])
            assert f1 == row["f1"], (row, f1)
            assert em(row["prediction"], row["golds"]) == row["em"], row

    @settings(max_examples=300, deadline=None)
    @given(
        prediction=st.one_of(tricky_text(), answer_text),
        golds=st.lists(st.one_of(tricky_text(), answer_text), min_size=1, max_size=4),
        copy_gold=st.booleans(),
    )
    def test_score_pair_matches_reference(self, prediction, golds, copy_gold):
        if copy_gold:  # make exact matches common
            prediction = golds[-1].upper()
        expected = reference_score_pair(prediction, golds)
        assert score_pair(prediction, golds) == expected
        assert (token_f1(prediction, golds), em(prediction, golds)) == expected

    def test_em_examples(self):
        assert em("Denver Broncos", ["Denver Broncos"])
        assert em("the Denver Broncos", ["Denver Broncos"])
        assert not em("Broncos", ["Denver Broncos"])

    def test_f1_examples(self):
        assert token_f1("cat sat", ["cat"]) == pytest.approx(2 / 3)
        assert token_f1("exact words", ["exact words"]) == 1.0
        assert token_f1("dog", ["cat"]) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            em("x", [])
        with pytest.raises(ValueError):
            token_f1("x", [])

    @settings(max_examples=150, deadline=None)
    @given(prediction=answer_text, golds=st.lists(answer_text, min_size=1, max_size=4))
    def test_range_and_em_implies_f1(self, prediction, golds):
        f1, em_flag = score_pair(prediction, golds)
        assert 0.0 <= f1 <= 1.0
        if em_flag:
            assert f1 == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        prediction=answer_text,
        golds=st.lists(answer_text, min_size=1, max_size=3),
        extra=answer_text,
    )
    def test_gold_monotonicity(self, prediction, golds, extra):
        f1_before, em_before = score_pair(prediction, golds)
        f1_after, em_after = score_pair(prediction, golds + [extra])
        assert f1_after >= f1_before
        assert em_after or not em_before


class TestQuestionScore:
    def test_em_true_requires_f1_one(self):
        with pytest.raises(ValueError):
            QuestionScore(id="q", f1=0.5, em=True)

    def test_f1_range_enforced(self):
        with pytest.raises(ValueError):
            QuestionScore(id="q", f1=1.5, em=False)


class TestEvaluate:
    def test_perfect_predictor(self, rules, small_dataset):
        preds = PredictionSet("perfect", gold_map(small_dataset))
        report = evaluate(preds, small_dataset, rules)
        assert report.overall.mean_f1 == 1.0
        assert report.overall.em_rate == 1.0
        assert report.overall.count == len(small_dataset)

    def test_empty_predictions_default_policy(self, rules, small_dataset):
        report = evaluate(PredictionSet("empty", {}), small_dataset, rules)
        assert report.overall.mean_f1 == 0.0
        assert report.overall.em_rate == 0.0
        assert report.overall.count == len(small_dataset)

    def test_exclude_policy_drops_missing(self, rules, small_dataset):
        answers = gold_map(small_dataset)
        kept = dict(list(answers.items())[:10])
        report = evaluate(
            PredictionSet("partial", kept), small_dataset, rules, MissingPolicy.EXCLUDE
        )
        assert report.overall.count == 10
        assert report.overall.mean_f1 == 1.0

    def test_one_hit_one_miss(self, rules):
        dataset = make_dataset({"who": 2})
        ids = list(dataset.ids)
        answers = {ids[0]: dataset.items[0].gold_answers[0], ids[1]: "granite bronze"}
        report = evaluate(PredictionSet("half", answers), dataset, rules)
        assert report.overall.mean_f1 == 0.5
        assert report.overall.em_rate == 0.5

    def test_aggregation_consistency(self, rules, small_dataset):
        answers = gold_map(small_dataset)
        # corrupt a third of the answers to spread scores around
        for i, qid in enumerate(answers):
            if i % 3 == 0:
                answers[qid] = "granite bronze marble"
        report = evaluate(PredictionSet("mixed", answers), small_dataset, rules)
        per_question_mean = sum(s.f1 for s in report.per_question.values()) / len(
            report.per_question
        )
        assert abs(report.overall.mean_f1 - per_question_mean) < 1e-12
        assert sum(s.count for s in report.per_class.values()) == report.overall.count
        weighted = sum(s.mean_f1 * s.count for s in report.per_class.values())
        assert abs(weighted / report.overall.count - report.overall.mean_f1) < 1e-12

    def test_per_class_buckets_follow_classifier(self, rules, small_dataset):
        report = evaluate(PredictionSet("empty", {}), small_dataset, rules)
        assert set(report.per_class) == {
            label for label in report.per_class
        } and len(report.per_class) == 14
        assert all(stats.count == 4 for stats in report.per_class.values())


class TestReportExports:
    def make_report(self, rules, dataset) -> EvalReport:
        preds = PredictionSet("m", gold_map(dataset))
        return evaluate(preds, dataset, rules)

    def test_json_dict_round_trips_through_json(self, rules, small_dataset):
        report = self.make_report(rules, small_dataset)
        blob = json.loads(json.dumps(report.to_json_dict()))
        assert blob["overall"]["count"] == len(small_dataset)
        assert len(blob["per_question"]) == len(small_dataset)

    def test_report_from_scores_fixed_order(self):
        scores = {
            "b": QuestionScore("b", 1.0, True),
            "a": QuestionScore("a", 0.0, False),
        }
        labels = {"a": "who", "b": "who"}
        r1 = report_from_scores(scores, labels)
        r2 = report_from_scores(dict(reversed(list(scores.items()))), labels)
        assert r1.per_class == r2.per_class
        assert r1.overall == r2.overall
