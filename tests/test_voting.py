from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_dataset, uniform_counts
from trace_reference import trace_json_dict
from vote_oracle import (
    ALL_CONFIGS,
    build_table,
    oracle_vote,
    random_instance,
    table_for,
)

from qavote.corpus import Dataset, PredictionSet
from qavote.metrics import QuestionScore, report_from_scores
from qavote.voting import (
    Combine,
    Equality,
    Reason,
    VoteConfig,
    VoteError,
    run_ensemble,
    save_traces,
    vote,
)
from qavote.weighting import compute_global_weights


class TestVoteAgainstOracle:
    def test_randomized_equivalence(self):
        rng = random.Random(20240210)
        checked = 0
        for _ in range(1000):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            table = build_table(models, class_fracs, global_fracs, qclass)
            for config in ALL_CONFIGS:
                trace = vote(answers, qclass, table, config)
                assert [(c.model, c.weight) for c in trace.candidates] == [
                    (m, float(class_fracs[m])) for m in models
                ]
                oracle_cands = [(m, answers[m], class_fracs[m]) for m in models]
                want_model, want_answer = oracle_vote(
                    oracle_cands, qclass, models, table.best_overall, config
                )
                assert (trace.winner.model, trace.winner.answer) == (want_model, want_answer), (
                    models, answers, class_fracs, qclass, config,
                )
                checked += 1
        assert checked == 8000


class TestVoteConfig:
    def test_defaults_are_the_headline_configuration(self):
        config = VoteConfig()
        assert config.combine is Combine.SUM
        assert config.undefined_special_case is True
        assert config.duplicate_equality is Equality.NORMALIZED

    def test_accepts_plain_strings(self):
        config = VoteConfig(combine="max", duplicate_equality="raw")
        assert config.combine is Combine.MAX
        assert config.duplicate_equality is Equality.RAW


class TestVoteSemantics:
    WEIGHTS = {"A": 0.8, "B": 0.7, "C": 0.6}

    def make_table(self, label="what"):
        return table_for(self.WEIGHTS, self.WEIGHTS, label=label)

    def test_distinct_answers_take_class_best(self):
        table = self.make_table()
        answers = {"A": "one", "B": "two", "C": "three"}
        trace = vote(answers, "what", table)
        assert trace.winner.answer == "one"
        assert trace.reason is Reason.HIGHEST_WEIGHT_NO_DUPLICATES

    def test_sum_lets_two_weaker_models_win(self):
        table = self.make_table()
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = vote(answers, "what", table)
        assert trace.winner.answer == "shared"
        assert trace.winner.model == "B"
        assert trace.reason is Reason.MERGED_DUPLICATES

    def test_max_keeps_strongest_single_model(self):
        table = self.make_table()
        config = VoteConfig(combine=Combine.MAX)
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = vote(answers, "what", table, config)
        assert trace.winner.answer == "one"
        assert trace.winner.model == "A"

    def test_undefined_goes_to_best_overall(self):
        table = self.make_table(label="undefined")
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = vote(answers, "undefined", table)
        assert trace.winner.model == "A"  # best overall, despite the duplicate pair
        assert trace.reason is Reason.UNDEFINED_FALLBACK

    def test_undefined_special_case_disabled(self):
        table = self.make_table(label="undefined")
        config = VoteConfig(undefined_special_case=False)
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = vote(answers, "undefined", table, config)
        assert trace.winner.answer == "shared"

    def test_normalized_equality_merges_article_variants(self):
        table = self.make_table()
        answers = {"A": "one", "B": "the shared", "C": "Shared!"}
        trace = vote(answers, "what", table)
        assert trace.winner.model == "B"
        assert trace.reason is Reason.MERGED_DUPLICATES

    def test_raw_equality_keeps_variants_apart(self):
        table = self.make_table()
        config = VoteConfig(duplicate_equality=Equality.RAW)
        answers = {"A": "one", "B": "the shared", "C": "Shared!"}
        trace = vote(answers, "what", table, config)
        assert trace.winner.model == "A"
        assert trace.reason is Reason.HIGHEST_WEIGHT_NO_DUPLICATES

    def test_group_tie_breaks_to_earlier_first_member(self):
        weights = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
        table = table_for(weights, weights, label="what")
        answers = {"a": "x", "b": "y", "c": "x", "d": "y"}
        trace = vote(answers, "what", table)
        assert trace.winner.model == "a"
        assert trace.winner.answer == "x"

    def test_no_duplicate_tie_breaks_to_earlier_model(self):
        weights = {"a": 0.5, "b": 0.5}
        table = table_for(weights, weights, label="what")
        trace = vote({"a": "x", "b": "y"}, "what", table)
        assert trace.winner.model == "a"

    def test_scaling_weights_never_changes_winner(self):
        rng = random.Random(99)
        for _ in range(100):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            for config in (VoteConfig(), VoteConfig(combine=Combine.MAX)):
                tables = [
                    build_table(
                        models,
                        {m: class_fracs[m] / factor for m in models},
                        {m: global_fracs[m] / factor for m in models},
                        qclass,
                    )
                    for factor in (1, 2, 4)
                ]
                winners = {
                    vote(answers, qclass, t, config).winner.model
                    for t in tables
                }
                assert len(winners) == 1

    def test_unanimity(self):
        table = self.make_table()
        answers = {"A": "same", "B": "same", "C": "same"}
        for config in ALL_CONFIGS:
            trace = vote(answers, "what", table, config)
            assert trace.winner.answer == "same"

    def test_winner_is_always_a_candidate_answer(self):
        rng = random.Random(5)
        for _ in range(200):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            table = build_table(models, class_fracs, global_fracs, qclass)
            config = rng.choice(ALL_CONFIGS)
            trace = vote(answers, qclass, table, config)
            assert trace.winner.answer in answers.values()


class TestVoteErrors:
    def test_empty_candidates(self):
        table = table_for({"m": 0.5}, {"m": 0.5})
        with pytest.raises(VoteError, match="empty"):
            vote({}, "what", table)

    def test_unknown_model(self):
        table = table_for({"m": 0.5}, {"m": 0.5})
        with pytest.raises(VoteError, match="unknown"):
            vote({"ghost": "x"}, "what", table)

    def test_candidates_for_unknown_model(self):
        # Building the candidates from an answer mapping rejects any model the
        # table does not know, even next to a known one.
        table = table_for({"m": 0.5}, {"m": 0.5})
        with pytest.raises(VoteError, match="unknown"):
            vote({"m": "x", "ghost": "x"}, "what", table)


class TestModeDegeneracy:
    def test_global_table_class_aware_equals_global_mode(self):
        rng = random.Random(2718)
        labels = ["what", "who", "when", "undefined"]
        for _ in range(60):
            ids = [f"q{i}" for i in range(20)]
            reports = {}
            for m in [f"m{i}" for i in range(1, rng.randint(2, 4) + 1)]:
                rows = {}
                label_of = {}
                for qid in ids:
                    em_flag = rng.random() < 0.4
                    f1 = 1.0 if em_flag else rng.choice([0.0, 0.25, 0.5])
                    rows[qid] = QuestionScore(qid, f1, em_flag)
                    label_of[qid] = rng.choice(labels)
                reports[m] = report_from_scores(rows, label_of)
            table = compute_global_weights(reports)
            no_class_rows = replace(table, class_weights={})  # every label falls back
            for _ in range(10):
                answers = {m: rng.choice(["x", "y", "z", ""]) for m in reports}
                qclass = rng.choice(labels)
                for combine in (Combine.SUM, Combine.MAX):
                    config = VoteConfig(combine=combine, undefined_special_case=False)
                    win_class = vote(answers, qclass, table, config).winner
                    win_global = vote(answers, qclass, no_class_rows, config).winner
                    assert (win_class.model, win_class.answer) == (
                        win_global.model, win_global.answer,
                    )


class TestRunEnsemble:
    def test_unanimous_models_reproduce_their_predictions(self, rules):
        dataset = make_dataset(uniform_counts(2))
        answers = gold_map(dataset)
        preds = {m: PredictionSet(m, dict(answers)) for m in ("a", "b", "c")}
        weights = {"a": 0.5, "b": 0.4, "c": 0.3}
        table = table_for(weights, weights, label="what", models=("a", "b", "c"))
        ensemble, traces = run_ensemble(dataset, preds, table, rules)
        assert ensemble.model_name == "ensemble"
        assert dict(ensemble.answers) == answers
        assert len(traces) == len(dataset)

    def test_single_model_is_identity(self, rules):
        dataset = make_dataset({"who": 5})
        answers = gold_map(dataset)
        table = table_for({"solo": 0.7}, {"solo": 0.7}, label="who", models=("solo",))
        ensemble, _ = run_ensemble(dataset, {"solo": PredictionSet("solo", answers)}, table, rules)
        assert dict(ensemble.answers) == answers

    def test_model_set_mismatch_rejected(self, rules):
        dataset = make_dataset({"who": 2})
        table = table_for({"a": 0.5, "b": 0.4}, {"a": 0.5, "b": 0.4}, models=("a", "b"))
        with pytest.raises(VoteError, match="models"):
            run_ensemble(dataset, {"a": PredictionSet("a", {})}, table, rules)

    def test_missing_predictions_become_empty_candidates(self, rules):
        dataset = make_dataset({"who": 1})
        qid = dataset.ids[0]
        gold = dataset.items[0].gold_answers[0]
        weights = {"big": 0.4, "s1": 0.3, "s2": 0.2}
        table = table_for(weights, weights, label="who", models=("big", "s1", "s2"))
        preds = {
            "big": PredictionSet("big", {}),  # missing -> ""
            "s1": PredictionSet("s1", {qid: gold}),
            "s2": PredictionSet("s2", {qid: gold}),
        }
        ensemble, traces = run_ensemble(dataset, preds, table, rules)
        assert ensemble.answers[qid] == gold  # 0.3 + 0.2 beats 0.4's empty string
        assert traces[0].reason is Reason.MERGED_DUPLICATES

    def test_traces_in_dataset_order_and_jsonl(self, rules, tmp_path):
        dataset = make_dataset(uniform_counts(1))
        answers = gold_map(dataset)
        preds = {m: PredictionSet(m, dict(answers)) for m in ("a", "b")}
        weights = {"a": 0.5, "b": 0.4}
        table = table_for(weights, weights, models=("a", "b"))
        _, traces = run_ensemble(dataset, preds, table, rules)
        assert [t.question_id for t in traces] == list(dataset.ids)
        path = tmp_path / "traces.jsonl"
        save_traces(traces, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == len(dataset)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["question_id"] == dataset.ids[0]
        assert {"question_class", "candidates", "groups", "winner", "reason"} <= set(parsed[0])

    def test_undefined_questions_fall_back_in_full_run(self, rules):
        dataset = make_dataset({"undefined": 3})
        answers = gold_map(dataset)
        wrong = {qid: "granite bronze" for qid in answers}
        preds = {
            "best": PredictionSet("best", dict(answers)),
            "other": PredictionSet("other", wrong),
        }
        weights = {"best": 0.8, "other": 0.2}
        table = table_for(weights, weights, label="undefined", models=("best", "other"))
        ensemble, traces = run_ensemble(dataset, preds, table, rules)
        assert dict(ensemble.answers) == answers
        assert all(t.reason is Reason.UNDEFINED_FALLBACK for t in traces)


# Answers that JSON must escape or that normalize alike, and weights whose
# reprs are long, short, exponent-form or sums. -0.0 and the int 1 are valid
# table weights whose JSON differs from that of the equal 0.0 and 1.0.
_ANSWERS = st.one_of(
    st.sampled_from(["", "alpha", "the Alpha!", "Alpha", 'say "hi"', "back\\slash",
                     "tab\there\nline", "\x00\x1f\x7f", "café", "日本語", "\u2028"]),
    st.text(max_size=6),
)
_WEIGHTS = st.sampled_from([0.1, 1 / 3, 1e-05, 0.0, 1.0, 0.1 + 0.2, 0.25, 2 / 3, -0.0, 1])
_MODELS = ("m1", 'q"2', "é3", "m4")
_LABELS = ("what", "who", "undefined", "no_such_label")
_QUESTIONS = make_dataset(uniform_counts(1))  # 14 questions, one per template


@st.composite
def _ensembles(draw):
    """(dataset, predictions, table, classifier, config) over _QUESTIONS."""
    models = _MODELS[: draw(st.integers(1, len(_MODELS)))]
    weight_rows = {
        label: {m: draw(_WEIGHTS) for m in models} for label in _LABELS[:2]
    }
    global_weights = {m: draw(_WEIGHTS) for m in models}
    table = table_for(weight_rows["what"], global_weights, models=models)
    table = replace(table, class_weights=weight_rows)
    ids = _QUESTIONS.ids
    predictions = {
        m: PredictionSet(m, {qid: draw(_ANSWERS) for qid in ids
                             if draw(st.integers(0, 9))})  # a tenth are missing
        for m in models
    }
    label_of = {item.question: draw(st.sampled_from(_LABELS)) for item in _QUESTIONS.items}
    config = draw(st.sampled_from(ALL_CONFIGS))
    return _QUESTIONS, predictions, table, label_of.__getitem__, config


class TestTraceLines:
    """save_traces writes each line straight from the trace; trace_json_dict is the reference."""

    @given(case=_ensembles(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lines_equal_json_dumps_of_trace_json_dict(self, tmp_path_factory, case, data):
        dataset, predictions, table, classifier, config = case
        _, traces = run_ensemble(dataset, predictions, table, classifier, config)
        # A vote on part of the models has its own candidates and row.
        models = data.draw(st.lists(st.sampled_from(table.models), min_size=1, unique=True))
        answers = {m: data.draw(_ANSWERS) for m in models}
        label = data.draw(st.sampled_from(_LABELS))
        if not (config.undefined_special_case and label == "undefined"
                and table.best_overall not in answers):
            traces.append(vote(answers, label, table, config, question_id='q"\\'))
        path = tmp_path_factory.getbasetemp() / "trace.jsonl"
        save_traces(traces, path)
        want = "".join(json.dumps(trace_json_dict(t), ensure_ascii=False) + "\n" for t in traces)
        assert path.read_text(encoding="utf-8") == want

    @given(case=_ensembles())
    @settings(max_examples=150, deadline=None)
    def test_run_ensemble_traces_equal_vote(self, case):
        dataset, predictions, table, classifier, config = case
        ensemble, traces = run_ensemble(dataset, predictions, table, classifier, config)
        for item, trace in zip(dataset.items, traces, strict=True):
            answers = {m: predictions[m].answers.get(item.id, "") for m in table.models}
            want = vote(answers, classifier(item.question), table, config, question_id=item.id)
            assert trace == want
            assert (trace.candidates, trace.groups, trace.winner) == (
                want.candidates, want.groups, want.winner)
            assert ensemble.answers[item.id] == want.winner.answer


class TestPerQuestionIndependence:
    """Metamorphic: a vote depends on its own question only, so the per-run row
    and normalization memos carry nothing from one question to the next."""

    @given(case=_ensembles(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_shards_concatenate_to_the_whole_run(self, tmp_path_factory, case, data):
        dataset, predictions, table, classifier, config = case
        ids = list(dataset.ids)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(ids) - 1), max_size=4)))
        shards = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
        work = tmp_path_factory.getbasetemp()

        def ensemble(part, name):
            answers, traces = run_ensemble(part, predictions, table, classifier, config)
            save_traces(traces, work / name)
            return list(answers.answers.items()), (work / name).read_bytes()

        whole_answers, whole_lines = ensemble(dataset, "whole.jsonl")
        shard_answers, shard_lines = [], b""
        for n, shard in enumerate(shards):
            answers, lines = ensemble(dataset.subset(shard, f"shard{n}"), f"shard{n}.jsonl")
            shard_answers += answers
            shard_lines += lines
        assert shard_answers == whole_answers
        assert shard_lines == whole_lines

        order = data.draw(st.permutations(dataset.items))
        permuted = Dataset(items=tuple(order), provenance="permuted", groups=dataset.groups)
        answers, traces = run_ensemble(permuted, predictions, table, classifier, config)
        assert dict(answers.answers) == dict(whole_answers)
        winners = {t.question_id: (t.winner, t.reason) for t in traces}
        _, whole_traces = run_ensemble(dataset, predictions, table, classifier, config)
        assert winners == {t.question_id: (t.winner, t.reason) for t in whole_traces}
