from __future__ import annotations

import csv
import io
import json
import random

from helpers import gold_map, make_dataset

import pytest

from qavote.analysis import (
    SimTriple,
    eval_breakdown_csv,
    pairwise_similarity,
    save_similarity_json,
    similarity_csv,
)
from qavote.corpus import PredictionSet, dataset_from_squad_dict
from qavote.metrics import MissingPolicy, evaluate, score_pair
from qavote.taxonomy import LengthClassifier, default_rules


def compare(preds_a, preds_b, dataset, classifier, missing_policy=MissingPolicy.SCORE_AS_EMPTY):
    """Pair report of two prediction sets, each evaluated once."""
    return pairwise_similarity(
        evaluate(preds_a, dataset, classifier, missing_policy),
        evaluate(preds_b, dataset, classifier, missing_policy),
        getattr(classifier, "labels", ()),
    )


class TestPairwiseSimilarity:
    def test_identical_sets_saturate(self, rules, small_dataset):
        answers = gold_map(small_dataset)
        for i, qid in enumerate(answers):  # spread of scores, incl. non-gold
            if i % 3 == 0:
                answers[qid] = "granite bronze"
        a = PredictionSet("a", answers)
        b = PredictionSet("b", dict(answers))
        report = compare(a, b, small_dataset, rules)
        for triple in report.per_class.values():
            assert triple.equal_f1 == triple.equal_em == triple.total
        assert report.overall.total == len(small_dataset)
        eval_a = evaluate(a, small_dataset, rules)
        assert report.mean_of_equal_f1s == pytest.approx(eval_a.overall.mean_f1)

    def test_reflexive_comparison(self, rules, small_dataset):
        a = PredictionSet("a", gold_map(small_dataset))
        report = compare(a, a, small_dataset, rules)
        assert report.overall.equal_f1 == report.overall.total
        assert report.overall.equal_em == report.overall.total

    def test_three_gold_one_disjoint(self, rules):
        dataset = make_dataset({"who": 4})
        golds = gold_map(dataset)
        ids = list(golds)
        b_answers = dict(golds)
        b_answers[ids[0]] = "granite bronze"  # disjoint from every gold
        report = compare(
            PredictionSet("a", golds), PredictionSet("b", b_answers), dataset, rules
        )
        assert report.overall.equal_f1 == 3
        assert report.overall.equal_em == 3
        assert report.overall.total == 4
        assert report.equal_em_true_count == 3
        assert report.mean_of_equal_f1s == 1.0

    def test_empty_versus_perfect(self, rules, small_dataset):
        report = compare(
            PredictionSet("a", {}),
            PredictionSet("b", gold_map(small_dataset)),
            small_dataset,
            rules,
        )
        assert report.overall.equal_f1 == 0
        assert report.overall.equal_em == 0
        assert report.overall.total == len(small_dataset)
        assert report.equal_em_true_rate == 0.0

    def test_symmetry(self, rules, small_dataset):
        rng = random.Random(11)
        golds = gold_map(small_dataset)
        a_answers, b_answers = {}, {}
        for qid, gold in golds.items():
            a_answers[qid] = rng.choice([gold, "granite bronze", gold.split()[0]])
            b_answers[qid] = rng.choice([gold, "granite bronze", gold.split()[0]])
        ab = compare(
            PredictionSet("a", a_answers), PredictionSet("b", b_answers), small_dataset, rules
        )
        ba = compare(
            PredictionSet("b", b_answers), PredictionSet("a", a_answers), small_dataset, rules
        )
        assert ab.per_class == ba.per_class
        assert ab.overall == ba.overall
        assert ab.mean_of_equal_f1s == ba.mean_of_equal_f1s
        assert ab.equal_em_true_count == ba.equal_em_true_count

    def test_exclude_policy_shrinks_totals(self, rules, small_dataset):
        golds = gold_map(small_dataset)
        half = dict(list(golds.items())[::2])
        report = compare(
            PredictionSet("a", half),
            PredictionSet("b", golds),
            small_dataset,
            rules,
            missing_policy=MissingPolicy.EXCLUDE,
        )
        assert report.overall.total == len(half)
        assert report.overall.equal_f1 == len(half)

    def test_overall_is_per_class_sum(self, rules, small_dataset):
        golds = gold_map(small_dataset)
        report = compare(
            PredictionSet("a", golds), PredictionSet("b", golds), small_dataset, rules
        )
        assert report.overall.equal_f1 == sum(t.equal_f1 for t in report.per_class.values())
        assert report.overall.equal_em == sum(t.equal_em for t in report.per_class.values())
        assert report.overall.total == sum(t.total for t in report.per_class.values())


class TestExports:
    def similarity_report(self, rules, dataset):
        golds = gold_map(dataset)
        return compare(
            PredictionSet("a", golds), PredictionSet("b", golds), dataset, rules
        )

    def test_single_class_csv(self, rules):
        dataset = make_dataset({"why": 3})
        csv_text = similarity_csv(self.similarity_report(rules, dataset))
        lines = csv_text.strip().splitlines()
        assert lines[0] == "class,equal_f1,equal_em,total"
        assert len(lines) == 3  # header + why + SUM
        assert lines[1].split(",")[0] == "why"
        assert lines[2].startswith("SUM,")
        # SUM equals the single class row apart from the label
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_full_class_csv_shape_and_sums(self, rules, small_dataset):
        report = self.similarity_report(rules, small_dataset)
        lines = similarity_csv(report).strip().splitlines()
        assert len(lines) == 1 + 14 + 1
        # count-with-percentage cells: "4 (100.0%)"
        cell = lines[1].split(",")[1]
        assert "(" in cell and cell.endswith("%)")
        sum_row = lines[-1].split(",")
        assert sum_row[0] == "SUM"
        assert sum_row[3] == str(len(small_dataset))

    def test_eval_breakdown_csv(self, rules, small_dataset):
        golds = gold_map(small_dataset)
        r1 = evaluate(PredictionSet("m1", golds), small_dataset, rules)
        bad = {qid: "granite" for qid in golds}
        r2 = evaluate(PredictionSet("m2", bad), small_dataset, rules)
        lines = eval_breakdown_csv([r1, r2]).strip().splitlines()
        assert lines[0] == "class,m1_count,m1_f1,m1_em,m2_count,m2_f1,m2_em"
        assert len(lines) == 1 + 14 + 1
        n = str(len(small_dataset))
        assert lines[-1].split(",") == ["SUM", n, "100.00", "100.00", n, "0.00", "0.00"]

    def test_eval_breakdown_shows_each_models_count_under_exclude(self, rules, small_dataset):
        golds = gold_map(small_dataset)
        r1 = evaluate(PredictionSet("m1", golds), small_dataset, rules)
        half = dict(list(golds.items())[::2])
        r2 = evaluate(
            PredictionSet("m2", half), small_dataset, rules, MissingPolicy.EXCLUDE
        )
        rows = list(csv.reader(io.StringIO(eval_breakdown_csv([r1, r2]))))
        assert rows[0] == ["class", "m1_count", "m1_f1", "m1_em", "m2_count", "m2_f1", "m2_em"]
        for row in rows[1:-1]:
            label = row[0]
            assert row[1] == str(r1.per_class[label].count)
            assert row[4] == str(r2.per_class[label].count if label in r2.per_class else 0)
        assert [rows[-1][1], rows[-1][4]] == [str(len(golds)), str(len(half))]
        assert len(half) < len(golds)

    def test_json_mirror(self, rules, small_dataset, tmp_path):
        report = self.similarity_report(rules, small_dataset)
        save_similarity_json(report, tmp_path / "pair.json")
        blob = json.loads((tmp_path / "pair.json").read_text(encoding="utf-8"))
        assert blob["model_a"] == "a" and blob["model_b"] == "b"
        assert blob["overall"]["total"] == len(small_dataset)
        assert len(blob["per_class"]) == 14
        # each SimTriple is an object of its fields, not a JSON array
        assert all(list(t) == list(SimTriple._fields) for t in blob["per_class"].values())


PHRASES = ["What", "Who", "When did", "How many", "Why", "Name", "On what date", "Where"]
WORDS = ["granite", "bronze", "marble", "copper", "alpha", "beta", "gamma", "delta"]


def random_pair_instance(rng):
    """(dataset, answers_a, answers_b): ids go missing, answers go empty or junk."""
    qas = []
    for i in range(rng.randint(1, 40)):
        words = [rng.choice(WORDS) for _ in range(rng.randint(0, 16))]
        question = " ".join([rng.choice(PHRASES)] + words) + "?"
        golds = rng.sample(["alpha beta", "the gamma", "delta", "Alpha, beta!", "..."],
                           k=rng.randint(1, 3))
        qas.append({"id": f"q{i}", "question": question,
                    "answers": [{"text": g, "answer_start": 0} for g in golds]})
    data = {"data": [{"title": "t", "paragraphs": [{"context": "c", "qas": qas}]}]}
    dataset = dataset_from_squad_dict(data)

    def answers():
        out = {}
        for item in dataset.items:
            if rng.random() < 0.2:
                continue  # missing id
            out[item.id] = rng.choice(
                [item.gold_answers[0], "", "the", "alpha", "beta gamma", "granite"]
            )
        return out

    return dataset, answers(), answers()


def brute_force_pair(answers_a, answers_b, dataset, classifier, policy):
    """Every pair-report field recounted question by question with score_pair."""
    counts, first_seen = {}, []
    equal_f1s, equal_em_true = [], 0
    for item in dataset.items:
        raw_a, raw_b = answers_a.get(item.id), answers_b.get(item.id)
        if policy is MissingPolicy.EXCLUDE and (raw_a is None or raw_b is None):
            continue
        f1_a, em_a = score_pair(raw_a or "", item.gold_answers)
        f1_b, em_b = score_pair(raw_b or "", item.gold_answers)
        label = classifier(item.question)
        if label not in counts:
            counts[label] = [0, 0, 0]
            first_seen.append(label)
        counts[label][2] += 1
        if f1_a == f1_b:
            counts[label][0] += 1
            equal_f1s.append(f1_a)
        if em_a == em_b:
            counts[label][1] += 1
            equal_em_true += em_a
    known = getattr(classifier, "labels", ())
    order = [label for label in known if label in counts]
    order += [label for label in first_seen if label not in order]
    return counts, order, equal_f1s, equal_em_true


class TestPairReportProperty:
    CLASSIFIERS = [
        default_rules(),
        LengthClassifier(range(1, 13)),  # len_10..len_12 must not sort before len_2
        lambda question: f"w{len(question.split()) % 4}",  # no labels: first-seen order
    ]

    @pytest.mark.parametrize("policy", list(MissingPolicy))
    @pytest.mark.parametrize("classifier", CLASSIFIERS, ids=["rules", "length", "plain"])
    def test_matches_brute_force(self, classifier, policy):
        rng = random.Random(f"{policy.value}-{getattr(classifier, 'labels', ('plain',))[0]}")
        for _ in range(60):
            dataset, answers_a, answers_b = random_pair_instance(rng)
            report = compare(
                PredictionSet("a", answers_a), PredictionSet("b", answers_b), dataset,
                classifier, policy,
            )
            counts, order, equal_f1s, equal_em_true = brute_force_pair(
                answers_a, answers_b, dataset, classifier, policy
            )
            assert list(report.per_class) == order
            assert {label: tuple(c) for label, c in counts.items()} == {
                label: (t.equal_f1, t.equal_em, t.total) for label, t in report.per_class.items()
            }
            equal_em = sum(c[1] for c in counts.values())
            assert report.overall == SimTriple(
                len(equal_f1s), equal_em, sum(c[2] for c in counts.values())
            )
            assert report.mean_of_equal_f1s == (
                sum(equal_f1s) / len(equal_f1s) if equal_f1s else 0.0
            )
            assert report.equal_em_true_count == equal_em_true
            assert report.equal_em_true_rate == (
                equal_em_true / equal_em if equal_em else 0.0
            )
