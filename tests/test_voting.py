from __future__ import annotations

import ast
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_dataset, package_calls, uniform_counts
from vote_oracle import (
    ALL_CONFIGS,
    build_table,
    ensemble_vote,
    oracle_vote,
    random_instance,
    table_for,
)

from qavote.corpus import Dataset, Paragraph, PredictionSet
from qavote.metrics import EvalReport, QuestionScore, normalize_answer
from qavote.voting import (
    Combine,
    Equality,
    Reason,
    VoteConfig,
    VoteError,
    run_ensemble,
    save_traces,
)
from qavote.taxonomy import UNDEFINED
from qavote.weighting import WeightTable, compute_global_weights


class TestVoteAgainstOracle:
    def test_randomized_equivalence(self):
        rng = random.Random(20240210)
        checked = 0
        for _ in range(1000):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            table = build_table(models, class_fracs, global_fracs, qclass)
            for config in ALL_CONFIGS:
                trace = ensemble_vote(answers, qclass, table, config)
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

    @pytest.mark.parametrize("special_case", ["false", 0, 1, None])
    def test_special_case_must_be_a_bool(self, special_case):
        with pytest.raises(ValueError, match="undefined_special_case must be a bool"):
            VoteConfig(undefined_special_case=special_case)


class TestVoteSemantics:
    WEIGHTS = {"A": 0.8, "B": 0.7, "C": 0.6}

    def make_table(self, label="what"):
        return table_for(self.WEIGHTS, self.WEIGHTS, label=label)

    def test_distinct_answers_take_class_best(self):
        table = self.make_table()
        answers = {"A": "one", "B": "two", "C": "three"}
        trace = ensemble_vote(answers, "what", table)
        assert trace.winner.answer == "one"
        assert trace.reason is Reason.HIGHEST_WEIGHT_NO_DUPLICATES

    def test_sum_lets_two_weaker_models_win(self):
        table = self.make_table()
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = ensemble_vote(answers, "what", table)
        assert trace.winner.answer == "shared"
        assert trace.winner.model == "B"
        assert trace.reason is Reason.MERGED_DUPLICATES

    def test_max_keeps_strongest_single_model(self):
        table = self.make_table()
        config = VoteConfig(combine=Combine.MAX)
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = ensemble_vote(answers, "what", table, config)
        assert trace.winner.answer == "one"
        assert trace.winner.model == "A"

    def test_undefined_goes_to_best_overall(self):
        table = self.make_table(label="undefined")
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = ensemble_vote(answers, "undefined", table)
        assert trace.winner.model == "A"  # best overall, despite the duplicate pair
        assert trace.reason is Reason.UNDEFINED_FALLBACK

    def test_undefined_special_case_disabled(self):
        table = self.make_table(label="undefined")
        config = VoteConfig(undefined_special_case=False)
        answers = {"A": "one", "B": "shared", "C": "shared"}
        trace = ensemble_vote(answers, "undefined", table, config)
        assert trace.winner.answer == "shared"

    def test_normalized_equality_merges_article_variants(self):
        table = self.make_table()
        answers = {"A": "one", "B": "the shared", "C": "Shared!"}
        trace = ensemble_vote(answers, "what", table)
        assert trace.winner.model == "B"
        assert trace.reason is Reason.MERGED_DUPLICATES

    def test_raw_equality_keeps_variants_apart(self):
        table = self.make_table()
        config = VoteConfig(duplicate_equality=Equality.RAW)
        answers = {"A": "one", "B": "the shared", "C": "Shared!"}
        trace = ensemble_vote(answers, "what", table, config)
        assert trace.winner.model == "A"
        assert trace.reason is Reason.HIGHEST_WEIGHT_NO_DUPLICATES

    def test_group_tie_breaks_to_earlier_first_member(self):
        weights = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
        table = table_for(weights, weights, label="what")
        answers = {"a": "x", "b": "y", "c": "x", "d": "y"}
        trace = ensemble_vote(answers, "what", table)
        assert trace.winner.model == "a"
        assert trace.winner.answer == "x"

    def test_no_duplicate_tie_breaks_to_earlier_model(self):
        weights = {"a": 0.5, "b": 0.5}
        table = table_for(weights, weights, label="what")
        trace = ensemble_vote({"a": "x", "b": "y"}, "what", table)
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
                    ensemble_vote(answers, qclass, t, config).winner.model
                    for t in tables
                }
                assert len(winners) == 1

    def test_unanimity(self):
        table = self.make_table()
        answers = {"A": "same", "B": "same", "C": "same"}
        for config in ALL_CONFIGS:
            trace = ensemble_vote(answers, "what", table, config)
            assert trace.winner.answer == "same"

    def test_winner_is_always_a_candidate_answer(self):
        rng = random.Random(5)
        for _ in range(200):
            models, answers, class_fracs, global_fracs, qclass = random_instance(rng)
            table = build_table(models, class_fracs, global_fracs, qclass)
            config = rng.choice(ALL_CONFIGS)
            trace = ensemble_vote(answers, qclass, table, config)
            assert trace.winner.answer in answers.values()


class TestModeDegeneracy:
    def test_global_table_class_aware_equals_global_mode(self):
        rng = random.Random(2718)
        labels = ["what", "who", "when", "undefined"]
        for _ in range(60):
            ids = [f"q{i}" for i in range(20)]
            reports = {}
            for m in [f"m{i}" for i in range(1, rng.randint(2, 4) + 1)]:
                rows = {}
                for qid in ids:
                    em_flag = rng.random() < 0.4
                    f1 = 1.0 if em_flag else rng.choice([0.0, 0.25, 0.5])
                    rows[qid] = QuestionScore(rng.choice(labels), f1, em_flag)
                reports[m] = EvalReport(rows)
            table = compute_global_weights(reports)
            no_class_rows = table._replace(class_weights={})  # every label falls back
            for _ in range(10):
                answers = {m: rng.choice(["x", "y", "z", ""]) for m in reports}
                qclass = rng.choice(labels)
                for combine in (Combine.SUM, Combine.MAX):
                    config = VoteConfig(combine=combine, undefined_special_case=False)
                    win_class = ensemble_vote(answers, qclass, table, config).winner
                    win_global = ensemble_vote(answers, qclass, no_class_rows, config).winner
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
        assert list(parsed[0]) == ["question_id", "question_class", "models", "answers",
                                   "weights", "index_groups", "winner_index", "reason"]

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
# Dyadic weights (k/64), as random_instance draws: float sums are exact.
_DYADIC_WEIGHTS = st.integers(0, 64).map(lambda k: k / 64)
_MODELS = ("m1", 'q"2', "é3", "m4")
_LABELS = ("what", "who", "undefined", "no_such_label")
_QUESTIONS = make_dataset(uniform_counts(1))  # 14 questions, one per template


@st.composite
def _ensembles(draw, weights=_WEIGHTS):
    """(dataset, predictions, table, classifier, config) over _QUESTIONS."""
    models = _MODELS[: draw(st.integers(1, len(_MODELS)))]
    weight_rows = {
        label: {m: draw(weights) for m in models} for label in _LABELS[:2]
    }
    global_weights = {m: draw(weights) for m in models}
    table = table_for(weight_rows["what"], global_weights, models=models)
    table = table._replace(class_weights=weight_rows)
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
    """Each written line is one vote's record, and what it says is what the vote did."""

    @given(case=_ensembles())
    @settings(max_examples=150, deadline=None)
    def test_each_line_records_its_vote(self, tmp_path_factory, case):
        dataset, predictions, table, classifier, config = case
        ensemble, traces = run_ensemble(dataset, predictions, table, classifier, config)
        path = tmp_path_factory.getbasetemp() / "trace.jsonl"
        save_traces(traces, path)
        # one line per "\n": an answer's U+2028 stays raw, and str.splitlines would split it
        *lines, end = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == len(dataset) and end == ""
        combine = max if config.combine is Combine.MAX else sum
        raw = config.duplicate_equality is Equality.RAW
        key = str if raw else (lambda answer: tuple(normalize_answer(answer)))
        for item, line in zip(dataset.items, lines):
            record = json.loads(line)
            label = classifier(item.question)
            assert (record["question_id"], record["question_class"]) == (item.id, label)
            assert record["models"] == list(table.models)
            # repr tells -0.0 from 0.0 and the int 1 from 1.0
            assert repr(record["weights"]) == repr(list(table.row(label)))
            answers = [predictions[m].answers.get(item.id, "") for m in table.models]
            assert record["answers"] == answers
            assert answers[record["winner_index"]] == ensemble.answers[item.id]
            groups = record["index_groups"]
            if not groups:
                assert record["reason"] == Reason.UNDEFINED_FALLBACK.value
                assert record["winner_index"] == table.models.index(table.best_overall)
                continue
            members = [i for group, _ in groups for i in group]
            assert sorted(members) == list(range(len(answers)))
            # each group is one class of duplicates
            group_keys = [{key(answers[i]) for i in group} for group, _ in groups]
            assert all(len(keys) == 1 for keys in group_keys)
            assert len(set().union(*group_keys)) == len(groups)
            for group, combined in groups:
                assert group == sorted(group)
                assert repr(combined) == repr(combine([record["weights"][i] for i in group]))
            assert [group[0] for group, _ in groups] == sorted(group[0] for group, _ in groups)
            if len(groups) < len(answers):
                assert record["reason"] == Reason.MERGED_DUPLICATES.value
            else:
                assert record["reason"] == Reason.HIGHEST_WEIGHT_NO_DUPLICATES.value

    @given(case=_ensembles())
    @settings(max_examples=150, deadline=None)
    def test_each_line_is_json_dumps_of_its_fields(self, tmp_path_factory, case):
        """``save_traces`` encodes a value shared by many votes once; every line
        must still be the ``json.dumps`` of its trace's fields."""
        dataset, predictions, table, classifier, config = case
        _, traces = run_ensemble(dataset, predictions, table, classifier, config)
        expected = "".join(json.dumps(t._asdict(), ensure_ascii=False) + "\n" for t in traces)
        path = tmp_path_factory.getbasetemp() / "trace.jsonl"
        save_traces(traces, path)
        assert path.read_text(encoding="utf-8") == expected
        # Fresh copies, each freed once written: an id may come back for another value.
        save_traces((t._replace(models=tuple(list(t.models)), weights=tuple(list(t.weights)),
                                index_groups=tuple(list(t.index_groups))) for t in traces), path)
        assert path.read_text(encoding="utf-8") == expected


class TestRunEnsembleAgainstOracle:
    """Every winner of a whole run, with missing answers and several labels (one
    without a row), equals the exact oracle's; dyadic weights make ties exact."""

    @given(case=_ensembles(weights=_DYADIC_WEIGHTS))
    @settings(max_examples=150, deadline=None)
    def test_every_winner_equals_oracle_vote(self, case):
        dataset, predictions, table, classifier, config = case
        ensemble, traces = run_ensemble(dataset, predictions, table, classifier, config)
        for item, trace in zip(dataset.items, traces, strict=True):
            label = classifier(item.question)
            row = table.class_weights.get(label, table.global_weights)
            cands = [(m, predictions[m].answers.get(item.id, ""), Fraction(row[m]))
                     for m in table.models]
            want = oracle_vote(cands, label, table.models, table.best_overall, config)
            assert (trace.winner.model, trace.winner.answer) == want
            assert ensemble.answers[item.id] == want[1]


class TestMaxCombineSelectsTheRowTop:
    """Under ``--combine max`` a group weighs as its heaviest member, so the group
    holding the label row's top model wins whenever that top weight is unique."""

    @given(case=_ensembles(), global_mode=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_vote_answers_as_the_top_weighted_model(self, case, global_mode):
        """The answer is the top model's (one that normalizes equal to it under
        normalized equality) unless the undefined special case applies; under
        ``--mode global`` that model is ``best_overall``."""
        dataset, predictions, table, classifier, config = case
        config = config._replace(combine=Combine.MAX)
        if global_mode:  # what ``ensemble --mode global`` votes
            table = table.ignoring_classes()
            config = config._replace(undefined_special_case=False)
        ensemble, _ = run_ensemble(dataset, predictions, table, classifier, config)
        raw = config.duplicate_equality is Equality.RAW
        key = str if raw else normalize_answer
        for item in dataset.items:
            label = classifier(item.question)
            row = table.row(label)
            top = max(row)
            if row.count(top) > 1 or (config.undefined_special_case and label == UNDEFINED):
                continue
            model = table.models[row.index(top)]
            if global_mode:
                assert model == table.best_overall
            answer = predictions[model].answers.get(item.id, "")
            assert key(ensemble.answers[item.id]) == key(answer)


def _vote_record(dataset, predictions, table, classifier, config):
    """(answers, [(class, winner index, reason) per question]) of one run."""
    ensemble, traces = run_ensemble(dataset, predictions, table, classifier, config)
    return ensemble.answers, [(t.question_class, t.winner_index, t.reason) for t in traces]


class TestMetamorphicRelations:
    """Relations between two runs, which need no expected output."""

    @given(case=_ensembles(), j=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_scaling_every_weight_by_a_power_of_two_changes_no_vote(self, case, j):
        """Scaling by 2^-j is exact in floats, and so are the sums of scaled
        weights: no winner and no reason may change, under sum or max."""
        dataset, predictions, table, classifier, config = case
        scale = 2.0 ** -j
        scaled = table._replace(
            class_weights={label: {m: w * scale for m, w in row.items()}
                           for label, row in table.class_weights.items()},
            global_weights={m: w * scale for m, w in table.global_weights.items()},
        )
        for combine in Combine:
            config = config._replace(combine=combine)
            assert (_vote_record(dataset, predictions, scaled, classifier, config)
                    == _vote_record(dataset, predictions, table, classifier, config))

    @given(case=_ensembles(), names=st.permutations(["what", "who", "no_such_label", "when",
                                                     "renamed"]))
    @settings(max_examples=150, deadline=None)
    def test_renaming_labels_consistently_changes_no_answer(self, case, names):
        """Renaming every label but ``undefined``, in the classifier and in the
        table alike, renames the traces' classes and changes nothing else."""
        dataset, predictions, table, classifier, config = case
        rename = dict(zip(("what", "who", "no_such_label"), names))
        renamed = table._replace(class_weights={rename[label]: row for label, row
                                                in table.class_weights.items()})

        def renamed_classifier(question):
            label = classifier(question)
            return rename.get(label, label)

        answers, votes = _vote_record(dataset, predictions, table, classifier, config)
        assert _vote_record(dataset, predictions, renamed, renamed_classifier, config) == (
            answers, [(rename.get(label, label), *vote) for label, *vote in votes])

    @given(case=_ensembles(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_permuting_the_model_order_changes_no_normalized_answer(self, case, data):
        """Model order only breaks ties, and picks which of a group's answers
        stands for it. With each row's weights distinct powers of two, no two
        groups tie under sum or max (disjoint sets of distinct powers of two
        have distinct sums, exactly in floats) and the global maximum is
        unique, so any order elects the same group."""
        dataset, predictions, table, classifier, config = case
        models = table.models

        def distinct_row() -> dict[str, float]:
            exponents = data.draw(st.lists(st.integers(1, 40), min_size=len(models),
                                           max_size=len(models), unique=True))
            return {m: 2.0 ** -k for m, k in zip(models, exponents)}

        global_weights = distinct_row()
        table = WeightTable(models, table.metric_basis,
                            {label: distinct_row() for label in table.class_weights},
                            global_weights)
        permuted = table._replace(models=tuple(data.draw(st.permutations(models))))
        key = str if config.duplicate_equality is Equality.RAW else normalize_answer
        ensemble, _ = run_ensemble(dataset, predictions, table, classifier, config)
        other, _ = run_ensemble(dataset, predictions, permuted, classifier, config)
        for qid in dataset.ids:
            assert key(other.answers[qid]) == key(ensemble.answers[qid]), qid


class TestOneVotingPath:
    """run_ensemble is the library's one vote: no other function builds a
    trace or a decision table."""

    def test_traces_and_decisions_are_built_only_by_run_ensemble(self):
        def is_vote_core(func):
            return isinstance(func, ast.Name) and func.id in ("VoteTrace", "_Decisions")

        assert package_calls(is_vote_core) == {("voting", "run_ensemble")}


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
            answers, lines = ensemble(dataset.subset(shard), f"shard{n}.jsonl")
            shard_answers += answers
            shard_lines += lines
        assert shard_answers == whole_answers
        assert shard_lines == whole_lines

        order = data.draw(st.permutations(dataset.items))
        permuted = Dataset(tuple(Paragraph(item.id, "", "", (item,)) for item in order))
        answers, traces = run_ensemble(permuted, predictions, table, classifier, config)
        assert dict(answers.answers) == dict(whole_answers)
        winners = {t.question_id: (t.winner, t.reason) for t in traces}
        _, whole_traces = run_ensemble(dataset, predictions, table, classifier, config)
        assert winners == {t.question_id: (t.winner, t.reason) for t in whole_traces}
