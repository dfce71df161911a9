from __future__ import annotations

import io
import json
import re
import string
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_dataset

from qavote.corpus import Dataset, Paragraph, PredictionSet, QaItem
from qavote.metrics import (
    ClassStats,
    EvalReport,
    MissingPolicy,
    QuestionScore,
    ScoreMemo,
    evaluate,
    normalize_answer,
    save_report_json,
    score_pair,
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
            f1, em = score_pair(row["prediction"], row["golds"])
            assert f1 == row["f1"], (row, f1)
            assert em == row["em"], row

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

    def test_em_examples(self):
        assert score_pair("Denver Broncos", ["Denver Broncos"])[1]
        assert score_pair("the Denver Broncos", ["Denver Broncos"])[1]
        assert not score_pair("Broncos", ["Denver Broncos"])[1]

    def test_f1_examples(self):
        assert score_pair("cat sat", ["cat"])[0] == pytest.approx(2 / 3)
        assert score_pair("exact words", ["exact words"])[0] == 1.0
        assert score_pair("dog", ["cat"])[0] == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError):
            score_pair("x", [])

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
        with pytest.raises(ValueError, match="em=True with f1=0.5 for 'q'"):
            EvalReport({"q": QuestionScore("who", f1=0.5, em=True)})

    def test_f1_range_enforced(self):
        with pytest.raises(ValueError, match="f1 out of range for 'q': 1.5"):
            EvalReport({"q": QuestionScore("who", f1=1.5, em=False)})

    @pytest.mark.parametrize("em", ["true", 1, 0, 1.0, None])
    def test_em_must_be_a_bool(self, em):
        with pytest.raises(ValueError, match=f"em must be a bool for 'q': {em!r}"):
            EvalReport({"q": QuestionScore("who", f1=1.0, em=em)})

    @pytest.mark.parametrize("f1", ["1.0", None, True, False, [1.0]])
    def test_f1_must_be_an_int_or_float(self, f1):
        with pytest.raises(ValueError,
                           match=re.escape(f"f1 must be an int or float for 'q': {f1!r}")):
            EvalReport({"q": QuestionScore("who", f1=f1, em=False)})


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

    def test_ids_outside_the_dataset_are_ignored(self, rules, small_dataset):
        """A model file covers the whole corpus; scoring one split slice of it
        reads only that slice's ids."""
        answers = gold_map(small_dataset)
        slice_ = small_dataset.subset(list(answers)[:10])
        report = evaluate(PredictionSet("m", {**answers, "ghost-id": "x"}), slice_, rules)
        assert list(report.per_question) == list(slice_.ids)
        assert report.overall.count == 10 and report.overall.em_rate == 1.0

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

    def test_report_aggregates_in_sorted_id_order(self):
        scores = {
            "b": QuestionScore("who", 1.0, True),
            "a": QuestionScore("who", 0.0, False),
        }
        r1 = EvalReport(scores)
        r2 = EvalReport(dict(reversed(list(scores.items()))))
        assert r1.per_class == r2.per_class
        assert r1.overall == r2.overall
        assert list(r1.per_question) == ["b", "a"]  # kept in the given order

    @settings(max_examples=200, deadline=None)
    @given(scores=st.dictionaries(st.text(max_size=3), st.booleans().flatmap(
        lambda em: st.builds(QuestionScore, st.sampled_from(["who", "what", ""]),
                             st.just(1.0) if em else st.floats(0.0, 1.0), st.just(em))),
        max_size=12))
    def test_aggregates_equal_a_brute_force_mean_over_sorted_ids(self, scores):
        """``per_class`` and ``overall`` are the per-class and overall means of
        the scores, summed in sorted-id order."""
        report = EvalReport(scores)

        def brute(ids):
            if not ids:
                return ClassStats(0.0, 0.0, 0)
            return ClassStats(sum(scores[q].f1 for q in ids) / len(ids),
                              sum(scores[q].em for q in ids) / len(ids), len(ids))

        labels = sorted({score.label for score in scores.values()})
        assert report.per_class == {
            label: brute([q for q in sorted(scores) if scores[q].label == label])
            for label in labels}
        assert list(report.per_class) == labels
        assert report.overall == brute(sorted(scores))


# Strings the JSON encoder must escape or keep raw, and strings equal to the
# report's own keys: ids, model names and class labels are drawn from these.
_KEYS = st.one_of(
    st.sampled_from(['q"1', "back\\slash", "tab\tline\nend", "\x00\x1f\x7f", "\u2028\u2029",
                     "café", "日本語", "\U0001f600", "", "per_question", '"per_question": {}',
                     "f1", "em"]),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_F1S = st.one_of(st.sampled_from([0.0, 1.0, 1e-05, -0.0, 1, 0, 1 / 3, 0.1 + 0.2]),
                 st.floats(0.0, 1.0))


@st.composite
def _reports(draw):
    """{model name: EvalReport}, each built from drawn scores (``per_question``
    may be empty, and then so is ``per_class``) and a drawn model name, which
    need not be its key."""
    reports = {}
    for name in draw(st.lists(_KEYS, max_size=4, unique=True)):
        scores = {}
        for qid in draw(st.lists(_KEYS, max_size=6, unique=True)):
            em = draw(st.booleans())
            scores[qid] = QuestionScore(draw(_KEYS), 1.0 if em else draw(_F1S), em)
        reports[name] = EvalReport(scores, draw(st.one_of(st.just(name), _KEYS)),
                                   draw(st.sampled_from(MissingPolicy)))
    return reports


class TestSaveReportJson:
    """``save_report_json`` builds the per-question block itself; the file must
    be the bytes of the streaming ``json.dump`` of every ``to_json_dict()``."""

    @settings(max_examples=300, deadline=None)
    @given(reports=_reports())
    def test_same_bytes_as_streaming_dump(self, tmp_path_factory, reports):
        path = tmp_path_factory.mktemp("report") / "report.json"
        save_report_json(reports, path)
        streamed = io.StringIO()
        json.dump({name: r.to_json_dict() for name, r in reports.items()}, streamed,
                  ensure_ascii=False, indent=1)
        assert path.read_bytes() == (streamed.getvalue() + "\n").encode("utf-8")

    @pytest.mark.parametrize("f1, em", [(0.0, "a, b"), ("0.5, 1", False), (0.0, [1, 2]),
                                         (0.0, [1]), ({"a": 1}, False), (0.0, 1)])
    def test_a_value_the_columns_cannot_hold_is_rejected(self, f1, em):
        """The writer's columns hold only an int or float f1 and a bool em. A
        report refuses any other value when built, also one whose JSON holds no
        ", " (``json.dump`` would indent a list or dict), so none is written."""
        with pytest.raises(ValueError, match="must be an int or float|must be a bool"):
            EvalReport({"q": QuestionScore("who", f1, em)})


_GOLDS = st.sampled_from([("alpha",), ("beta gamma",), ("Alpha!", "beta"), ("the alpha", "gamma"),
                          ("",)])
_PREDICTIONS = st.sampled_from(["alpha", "beta", "beta gamma", "gamma alpha", "", "the", "..."])


@st.composite
def _scoring_cases(draw):
    """(dataset, prediction sets, missing policy). Questions q0 and q1 have
    other golds, and model m0 gives both the answer that matches q0 alone."""
    golds = [("alpha",), ("beta gamma",)] + draw(st.lists(_GOLDS, max_size=8))
    items = tuple(QaItem(f"q{i}", f"What is thing {i}?", g, (0,) * len(g))
                  for i, g in enumerate(golds))
    dataset = Dataset((Paragraph("p0", "", "context", items),))
    predictions = []
    for m in range(draw(st.integers(1, 4))):
        answers = {item.id: draw(_PREDICTIONS) for item in items
                   if draw(st.integers(0, 4))}  # a fifth are missing
        if m == 0:
            answers.update(q0="alpha", q1="alpha")
        predictions.append(PredictionSet(f"m{m}", answers))
    return dataset, predictions, draw(st.sampled_from(MissingPolicy))


class TestScoreMemo:
    @settings(max_examples=200, deadline=None)
    @given(case=_scoring_cases())
    def test_shared_memo_equals_memo_free_scoring(self, rules, case):
        """One memo for every model scores each model as a memo-free call
        (``score_pair`` per question) does."""
        dataset, predictions, policy = case
        memo = ScoreMemo()
        shared = [evaluate(p, dataset, rules, policy, memo=memo) for p in predictions]
        assert shared == [evaluate(p, dataset, rules, policy) for p in predictions]
        assert shared[0].per_question["q1"] == (rules("What is thing 1?"), 0.0, False)


def _decorate(draw, answer: str) -> str:
    """``answer`` with its ASCII letters' case changed, articles added between
    its tokens, and punctuation added at the edges of its tokens."""
    tokens = []
    for token in answer.split():
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(["a", "An", "THE", "the"])))
        edges = st.text(alphabet=st.sampled_from('.,!?"()\u00bf\u2026\u300c'), max_size=2)
        tokens.append(draw(edges) + "".join(
            ch.upper() if draw(st.booleans()) else ch.lower() for ch in token) + draw(edges))
    if draw(st.booleans()):
        tokens.append(draw(st.sampled_from(["a", "an", "The"])))
    return draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


class TestScoringMetamorphicRelation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_articles_edge_punctuation_and_case_change_no_score(self, rules, data):
        """Adding articles, edge punctuation and case changes to a prediction
        changes neither its EM nor its F1."""
        words = st.sampled_from(["alpha", "beta", "gamma", "Delta", "an", "theta", "A"])
        phrases = st.lists(words, min_size=0, max_size=4).map(" ".join)
        items = tuple(QaItem(f"q{i}", "What is it?", golds, (0,) * len(golds))
                      for i, golds in enumerate(data.draw(st.lists(
                          st.lists(phrases, min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=6))))
        dataset = Dataset((Paragraph("p0", "", "context", items),))
        plain = {item.id: data.draw(phrases) for item in items}
        decorated = {qid: _decorate(data.draw, answer) for qid, answer in plain.items()}
        memo = ScoreMemo()
        before = evaluate(PredictionSet("plain", plain), dataset, rules, memo=memo)
        after = evaluate(PredictionSet("decorated", decorated), dataset, rules, memo=memo)
        assert after.per_question == before.per_question
