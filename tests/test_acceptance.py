"""Acceptance suite: one test per numbered criterion, printing a PASS line each.

Criteria needing the real SQuAD v1.1 files (1, 2, and the real-data half of
6) look for train-v1.1.json / dev-v1.1.json under $SQUAD_DATA_DIR (default
./data/squad) and skip with a message when the files are absent; everything
else runs on deterministic synthetic corpora. Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""
from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import gold_map, make_dataset, uniform_counts
from vote_oracle import (
    ALL_CONFIGS, build_table, ensemble_vote, oracle_vote, random_instance, table_for,
)

from qavote.analysis import pairwise_similarity
from qavote.corpus import PredictionSet, dataset_to_squad_dict, load_dataset, split_pre_eval
from qavote.metrics import EvalReport, QuestionScore, evaluate, score_pair
from qavote.synth import AccuracyProfile, generate_predictions
from qavote.taxonomy import CLASS_LABELS, class_distribution, default_rules
from qavote.voting import Combine, VoteConfig, run_ensemble
from qavote.weighting import compute_class_weights, compute_global_weights

RULES = default_rules()


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def squad_file(name: str) -> Path:
    base = Path(os.environ.get("SQUAD_DATA_DIR", Path(__file__).parent.parent / "data" / "squad"))
    path = base / name
    if not path.exists():
        pytest.skip(
            f"real SQuAD file {name} not present under {base} "
            f"(place it there or set SQUAD_DATA_DIR to run this criterion)"
        )
    return path


# table of published per-class shares (percent) the classifier must approach
TRAIN_SHARES = {
    "date": 0.9, "during": 1.8, "how_are": 0.2, "how_big_size": 0.1,
    "how_much_many": 5.9, "how_old": 0.1, "undefined": 19.5, "what": 52.6,
    "what_time": 0.2, "when": 6.2, "where": 1.0, "who": 9.7, "whom": 0.4,
    "why": 1.4,
}
DEV_SHARES = {
    "date": 0.5, "during": 1.4, "how_are": 0.3, "how_big_size": 0.1,
    "how_much_many": 6.4, "how_old": 0.2, "undefined": 17.6, "what": 53.6,
    "what_time": 0.1, "when": 6.5, "where": 0.9, "who": 10.5, "whom": 0.4,
    "why": 1.4,
}


class TestCriterion1DatasetCounts:
    def test_real_squad_counts(self):
        train_path = squad_file("train-v1.1.json")
        dev_path = squad_file("dev-v1.1.json")
        start = time.monotonic()
        train = load_dataset(train_path)
        dev = load_dataset(dev_path)
        elapsed = time.monotonic() - start
        assert len(train) == 87599
        assert len(dev) == 10570
        assert elapsed < 30.0
        _pass(1, f"loaded 87599 train / 10570 dev questions in {elapsed:.1f}s")


class TestCriterion2TaxonomyDistribution:
    @pytest.mark.parametrize(
        "filename,expected", [("train-v1.1.json", TRAIN_SHARES), ("dev-v1.1.json", DEV_SHARES)]
    )
    def test_real_squad_distribution(self, filename, expected):
        dataset = load_dataset(squad_file(filename))
        hist = class_distribution(dataset, RULES)
        for label, expected_pct in expected.items():
            got_pct = 100 * hist.share(label)
            assert abs(got_pct - expected_pct) <= 2.0, (label, got_pct, expected_pct)
        assert 100 * hist.share("what") >= 50.0
        assert 15.0 <= 100 * hist.share("undefined") <= 22.0
        _pass(2, f"{filename}: every class within 2.0pp of the published breakdown")


class TestCriterion3MetricOracle:
    def test_frozen_oracle_corpus(self):
        path = Path(__file__).parent / "data" / "metric_oracle.json"
        rows = json.loads(path.read_text(encoding="utf-8"))
        assert len(rows) >= 100
        for row in rows:
            assert score_pair(row["prediction"], row["golds"]) == (row["f1"], row["em"]), row
        _pass(3, f"{len(rows)} scored pairs match the pre-computed oracle table exactly")


class TestCriterion4VotingBruteForce:
    def test_randomized_instances_match_enumeration_oracle(self):
        rng = random.Random(20240210)
        instances = 1000
        comparisons = 0
        for _ in range(instances):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            table = build_table(models, class_fracs, global_fracs, qclass)
            for config in ALL_CONFIGS:
                trace = ensemble_vote(answers, qclass, table, config)
                want = oracle_vote(
                    [(m, answers[m], class_fracs[m]) for m in models],
                    qclass, models, table.best_overall, config,
                )
                assert (trace.winner.model, trace.winner.answer) == want
                comparisons += 1
        _pass(4, f"{instances} instances x {len(ALL_CONFIGS)} configs = {comparisons} exact matches")


class TestCriterion5GlobalDegeneracy:
    def test_class_aware_on_degenerate_table_equals_global_path(self):
        rng = random.Random(31337)
        report_sets = 100
        for _ in range(report_sets):
            ids = [f"q{i}" for i in range(rng.randint(5, 20))]
            labels = ["what", "who", "when", "undefined"]
            reports = {}
            for m in [f"m{i}" for i in range(1, rng.randint(2, 4) + 1)]:
                scores = {}
                for qid in ids:
                    em_flag = rng.random() < 0.4
                    f1 = 1.0 if em_flag else rng.choice([0.0, 0.25, 0.5, 0.75])
                    scores[qid] = QuestionScore(rng.choice(labels), f1, em_flag)
                reports[m] = EvalReport(scores)
            table = compute_global_weights(reports)
            no_class_rows = table._replace(class_weights={})  # every label falls back
            for _ in range(5):
                answers = {m: rng.choice(["x", "y", "z", ""]) for m in reports}
                qclass = rng.choice(labels)
                for combine in (Combine.SUM, Combine.MAX):
                    config = VoteConfig(combine=combine, undefined_special_case=False)
                    win_a = ensemble_vote(answers, qclass, table, config).winner
                    win_b = ensemble_vote(answers, qclass, no_class_rows, config).winner
                    assert (win_a.model, win_a.answer) == (win_b.model, win_b.answer)
        _pass(5, f"{report_sets} randomized report sets: decisions identical on both paths")


SPLIT_CORPUS_COUNTS = {
    "what": 61800, "undefined": 24000, "who": 12000, "when": 7200,
    "how_much_many": 7200, "during": 2400, "why": 1800, "where": 1440,
    "date": 1080, "whom": 480, "how_are": 240, "what_time": 240,
    "how_big_size": 60, "how_old": 60,
}


class TestCriterion6SplitDeterminismAndDistribution:
    def test_synthetic_corpus(self):
        corpus = make_dataset(SPLIT_CORPUS_COUNTS, per_paragraph=5)
        assert len(corpus) == 120_000

        # determinism: identical seeds yield byte-identical splits
        split_a = split_pre_eval(corpus, 0.05, seed=1)
        split_b = split_pre_eval(corpus, 0.05, seed=1)
        assert json.dumps(split_a.manifest()) == json.dumps(split_b.manifest())
        assert json.dumps(dataset_to_squad_dict(split_a.pre_eval)) == json.dumps(
            dataset_to_squad_dict(split_b.pre_eval)
        )
        assert json.dumps(dataset_to_squad_dict(split_a.train)) == json.dumps(
            dataset_to_squad_dict(split_b.train)
        )

        label_of = {item.id: RULES(item.question) for item in corpus.items}
        full = Counter(label_of.values())
        total = len(corpus)
        worst = 0.0
        for seed in range(1, 11):
            split = split_pre_eval(corpus, 0.05, seed)
            pre = Counter(label_of[qid] for qid in split.pre_eval.ids)
            n_pre = len(split.pre_eval)
            for label, count in full.items():
                share = count / total
                if share >= 0.01:
                    deviation = abs(pre.get(label, 0) / n_pre - share) * 100
                    worst = max(worst, deviation)
                    assert deviation <= 1.5, (seed, label, deviation)
        _pass(
            6,
            "byte-identical re-split; 10 seeds on a 120k corpus within "
            f"1.5pp for every class >= 1% (worst {worst:.2f}pp)",
        )

    def test_real_squad_train(self):
        dataset = load_dataset(squad_file("train-v1.1.json"))
        label_of = {item.id: RULES(item.question) for item in dataset.items}
        full = Counter(label_of.values())
        total = len(dataset)
        for seed in range(1, 11):
            split = split_pre_eval(dataset, 0.05, seed)
            pre = Counter(label_of[qid] for qid in split.pre_eval.ids)
            n_pre = len(split.pre_eval)
            for label, count in full.items():
                share = count / total
                if share >= 0.01:
                    deviation = abs(pre.get(label, 0) / n_pre - share) * 100
                    assert deviation <= 1.5, (seed, label, deviation)
        _pass(6, "real SQuAD train: 10 seeds within 1.5pp for every class >= 1%")


DISJOINT_SUBSETS = {
    "m1": ("when", "who", "why"),
    "m2": ("what", "where"),
    "m3": tuple(c for c in CLASS_LABELS if c not in {"when", "who", "why", "what", "where"}),
}


def build_disjoint_construction():
    """Three perfect-on-disjoint-classes models over a flat 2800-item corpus."""
    corpus = make_dataset(uniform_counts(200))
    preds = {}
    for i, (name, classes) in enumerate(DISJOINT_SUBSETS.items(), start=1):
        profile = AccuracyProfile(per_class={c: 1.0 for c in classes}, seed=100 + i)
        preds[name] = generate_predictions(corpus, profile, name, RULES)
    split = split_pre_eval(corpus, 0.05, seed=2024)
    reports = {m: evaluate(preds[m], split.pre_eval, RULES) for m in preds}
    return corpus, preds, split, reports


class TestCriterion7SyntheticEnsembleWin:
    def test_class_aware_ensemble_beats_every_standalone(self):
        corpus, preds, split, reports = build_disjoint_construction()
        pre_classes = Counter(RULES(item.question) for item in split.pre_eval.items)
        assert len(pre_classes) == 14  # every class weight is measured, none falls back

        table = compute_class_weights(reports)
        assert table.best_overall == "m3"  # owns undefined, so the fallback stays correct
        for name, classes in DISJOINT_SUBSETS.items():
            for label in classes:
                assert table.class_weights[label][name] == 1.0
                for other in preds:
                    if other != name:
                        assert table.class_weights[label][other] == 0.0

        ensemble, _ = run_ensemble(split.train, preds, table, RULES)
        report = evaluate(ensemble, split.train, RULES)
        standalone_em = {m: evaluate(preds[m], split.train, RULES).overall.em_rate for m in preds}
        for model, em_rate in standalone_em.items():
            assert report.overall.em_rate > em_rate, (model, em_rate)

        # no class-best ambiguity exists in this construction, so EM is exactly 100%
        assert report.overall.em_rate == 1.0
        assert report.overall.mean_f1 == 1.0
        _pass(
            7,
            "class-aware ensemble EM 100.0% vs standalone "
            + ", ".join(f"{m} {100 * v:.1f}%" for m, v in standalone_em.items()),
        )

    def test_brute_force_recheck_of_every_train_vote(self):
        corpus, preds, split, reports = build_disjoint_construction()
        table = compute_class_weights(reports)
        golds = gold_map(split.train)
        config = VoteConfig()
        for item in split.train.items:
            label = RULES(item.question)
            cands = [
                (m, preds[m].answers.get(item.id, ""), Fraction(table.class_weights[label][m]))
                for m in table.models
            ]
            want_model, want_answer = oracle_vote(
                cands, label, list(table.models), table.best_overall, config
            )
            assert want_answer == golds[item.id], (item.id, label, want_model)
        _pass(7, "independent enumeration reproduces the gold answer for all 2660 train votes")


class TestCriterion8StructuralClaims:
    def test_class_aware_beats_non_class_aware_on_construction(self):
        corpus, preds, split, reports = build_disjoint_construction()
        class_table = compute_class_weights(reports)
        global_table = compute_global_weights(reports)

        class_ensemble, _ = run_ensemble(split.train, preds, class_table, RULES)
        cfg_global = VoteConfig(undefined_special_case=False)
        global_ensemble, _ = run_ensemble(split.train, preds, global_table, RULES, cfg_global)

        em_class = evaluate(class_ensemble, split.train, RULES).overall.em_rate
        em_global = evaluate(global_ensemble, split.train, RULES).overall.em_rate
        assert em_class >= em_global
        assert em_class > em_global  # strict on this construction
        _pass(8, f"class-aware EM {100 * em_class:.1f}% >= non-class-aware {100 * em_global:.1f}%")

    def test_sum_combine_beats_max_combine_on_planted_duplicates(self):
        # two weaker models agree on gold, the strongest model is wrong
        dataset = make_dataset({"who": 20})
        golds = gold_map(dataset)
        weights = {"A": 0.8, "B": 0.7, "C": 0.6}
        table = table_for(weights, weights, label="who", models=("A", "B", "C"))
        preds = {
            "A": PredictionSet("A", {qid: "granite bronze" for qid in golds}),
            "B": PredictionSet("B", dict(golds)),
            "C": PredictionSet("C", dict(golds)),
        }
        em_by_combine = {}
        for combine in (Combine.SUM, Combine.MAX):
            config = VoteConfig(combine=combine)
            ensemble, _ = run_ensemble(dataset, preds, table, RULES, config)
            em_by_combine[combine] = evaluate(ensemble, dataset, RULES).overall.em_rate
        assert em_by_combine[Combine.SUM] >= em_by_combine[Combine.MAX]
        assert em_by_combine[Combine.SUM] == 1.0
        assert em_by_combine[Combine.MAX] == 0.0
        _pass(
            8,
            f"sum-combine EM {100 * em_by_combine[Combine.SUM]:.0f}% >= "
            f"max-combine EM {100 * em_by_combine[Combine.MAX]:.0f}% on planted duplicates",
        )


class TestCriterion9SimilarityCounts:
    def test_planted_counts_reproduced_exactly(self):
        per_class = 5
        dataset = make_dataset(uniform_counts(per_class))
        golds = gold_map(dataset)
        by_label: dict[str, list[str]] = {}
        for item in dataset.items:
            by_label.setdefault(RULES(item.question), []).append(item.id)
        assert all(len(ids) == per_class for ids in by_label.values())

        disjoint = "granite bronze"
        a_answers, b_answers = {}, {}
        for ids in by_label.values():
            truncated = {qid: golds[qid].split()[0] for qid in ids}
            # q0, q1: both gold          -> equal f1, equal em (True)
            # q2: gold vs disjoint       -> unequal f1, unequal em
            # q3: disjoint vs truncated  -> unequal f1 (0 vs 2/3), equal em (False)
            # q4: truncated vs truncated -> equal f1 (2/3), equal em (False)
            a_answers[ids[0]], b_answers[ids[0]] = golds[ids[0]], golds[ids[0]]
            a_answers[ids[1]], b_answers[ids[1]] = golds[ids[1]], golds[ids[1]]
            a_answers[ids[2]], b_answers[ids[2]] = golds[ids[2]], disjoint
            a_answers[ids[3]], b_answers[ids[3]] = disjoint, truncated[ids[3]]
            a_answers[ids[4]], b_answers[ids[4]] = truncated[ids[4]], truncated[ids[4]]

        report_a = evaluate(PredictionSet("a", a_answers), dataset, RULES)
        report_b = evaluate(PredictionSet("b", b_answers), dataset, RULES)
        report = pairwise_similarity(report_a, report_b, RULES.labels)
        for label, triple in report.per_class.items():
            assert (triple.equal_f1, triple.equal_em, triple.total) == (3, 4, 5), label
        assert (report.overall.equal_f1, report.overall.equal_em, report.overall.total) == (
            42, 56, 70,
        )
        assert report.equal_em_true_count == 28
        assert report.equal_em_true_rate == 0.5
        # equal-F1 values per class: 1.0, 1.0, 2/3
        assert report.mean_of_equal_f1s == pytest.approx((2 + 2 / 3) / 3, rel=1e-12)

        reflexive = pairwise_similarity(report_a, report_a, RULES.labels)
        assert reflexive.overall.equal_f1 == reflexive.overall.total == len(dataset)
        assert reflexive.overall.equal_em == len(dataset)
        _pass(9, "planted per-class equal counts (3,4,5) x 14 reproduced; reflexive saturates")
