from __future__ import annotations

import json
import random
import re

import pytest

from qavote.corpus import SchemaError
from qavote.metrics import EvalReport, QuestionScore
from qavote.weighting import (
    MetricBasis,
    WeightError,
    WeightTable,
    compute_class_weights,
    compute_global_weights,
    load_weights,
    save_weights,
)


def make_report(rows, model=""):
    """rows: list of (qid, f1, em, class_label)."""
    scores = {qid: QuestionScore(label, f1, em_flag) for qid, f1, em_flag, label in rows}
    return EvalReport(scores, model=model)


def random_report(rng, ids, labels):
    rows = []
    for qid in ids:
        em_flag = rng.random() < 0.4
        f1 = 1.0 if em_flag else rng.choice([0.0, 0.25, 0.5, 0.75])
        rows.append((qid, f1, em_flag, rng.choice(labels)))
    return make_report(rows)


class TestClassWeights:
    def test_mean_f1_per_class(self):
        report = make_report([("q1", 0.5, False, "who"), ("q2", 1.0, True, "who")])
        table = compute_class_weights({"m": report})
        assert table.class_weights["who"]["m"] == 0.75
        assert table.global_weights["m"] == 0.75
        assert table.best_overall == "m"

    def test_em_rate_basis(self):
        rows = [
            ("q1", 1.0, True, "when"),
            ("q2", 0.9, False, "when"),
            ("q3", 0.2, False, "when"),
            ("q4", 1.0, True, "when"),
        ]
        table = compute_class_weights({"m": make_report(rows)}, basis="em_rate")
        assert table.metric_basis is MetricBasis.EM_RATE
        assert table.class_weights["when"]["m"] == 0.5

    def test_class_specific_favorite_wins_its_class(self):
        strong_on_date = make_report(
            [("q1", 1.0, True, "date"), ("q2", 0.0, False, "what")]
        )
        weak_on_date = make_report(
            [("q1", 0.0, False, "date"), ("q2", 1.0, True, "what")]
        )
        table = compute_class_weights({"a": strong_on_date, "b": weak_on_date})
        assert table.class_weights["date"]["a"] > table.class_weights["date"]["b"]
        assert table.class_weights["what"]["b"] > table.class_weights["what"]["a"]

    def test_empty_class_falls_back_to_global(self):
        report = make_report([("q1", 0.5, False, "who"), ("q2", 0.7, False, "what")])
        table = compute_class_weights({"m": report})
        assert table.class_weights["why"]["m"] == table.global_weights["m"] == 0.6

    def test_every_pair_present(self):
        report = make_report([("q1", 1.0, True, "who")])
        table = compute_class_weights({"m": report})
        assert len(table.class_weights) == 14
        assert all("m" in row for row in table.class_weights.values())

    def test_mismatched_id_sets_rejected(self):
        a = make_report([("q1", 1.0, True, "who")])
        b = make_report([("q2", 1.0, True, "who")])
        with pytest.raises(WeightError, match="differ"):
            compute_class_weights({"a": a, "b": b})

    def test_exclude_reports_may_rest_on_different_questions(self):
        """Under exclude each report covers the questions its model answered,
        so only ``score_as_empty`` reports must cover the same ids."""
        a = EvalReport({"q1": QuestionScore("who", 1.0, True)}, "a", "exclude")
        b = EvalReport({"q2": QuestionScore("who", 0.5, False)}, "b", "exclude")
        assert compute_class_weights({"a": a, "b": b}).class_weights["who"] == {"a": 1.0, "b": 0.5}
        silent = EvalReport({}, "c", "exclude")
        assert compute_class_weights({"a": a, "c": silent}).global_weights == {"a": 1.0, "c": 0.0}

    def test_zero_models_rejected(self):
        with pytest.raises(WeightError):
            compute_class_weights({})

    def test_reports_without_a_scored_question_rejected(self):
        """An empty pre-evaluation set would make every weight 0.0 and leave every
        vote to model order."""
        with pytest.raises(WeightError, match="no scored question"):
            compute_class_weights({"a": make_report([]), "b": make_report([])})
        with pytest.raises(WeightError, match="no scored question"):
            compute_global_weights({"a": make_report([])})

    def test_permutation_stability(self):
        rng = random.Random(7)
        ids = [f"q{i}" for i in range(40)]
        labels = ["what", "who", "when", "undefined"]
        rows = []
        for qid in ids:
            em_flag = rng.random() < 0.5
            f1 = 1.0 if em_flag else rng.choice([0.0, 0.5])
            rows.append((qid, f1, em_flag, rng.choice(labels)))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        t1 = compute_class_weights({"m": make_report(rows)})
        t2 = compute_class_weights({"m": make_report(shuffled)})
        assert t1.class_weights == t2.class_weights
        assert t1.global_weights == t2.global_weights

    def test_bounds(self):
        rng = random.Random(3)
        ids = [f"q{i}" for i in range(30)]
        labels = ["what", "who", "why"]
        reports = {m: random_report(rng, ids, labels) for m in ("a", "b", "c")}
        table = compute_class_weights(reports)
        for row in table.class_weights.values():
            assert all(0.0 <= w <= 1.0 for w in row.values())
        assert all(0.0 <= w <= 1.0 for w in table.global_weights.values())


class TestGlobalWeights:
    def test_constant_per_model(self):
        report = make_report([("q1", 1.0, True, "who"), ("q2", 0.0, False, "what")])
        table = compute_global_weights({"m": report})
        assert table.global_weights["m"] == 0.5
        assert all(row["m"] == 0.5 for row in table.class_weights.values())

    def test_argmax_best_overall(self):
        a = make_report([("q1", 0.8, False, "who")])
        b = make_report([("q1", 0.7, False, "who")])
        assert compute_global_weights({"a": a, "b": b}).best_overall == "a"
        assert compute_global_weights({"b": b, "a": a}).best_overall == "a"

    def test_tie_breaks_to_model_order(self):
        a = make_report([("q1", 0.5, False, "who")])
        b = make_report([("q1", 0.5, False, "who")])
        assert compute_global_weights({"a": a, "b": b}).best_overall == "a"
        assert compute_global_weights({"b": b, "a": a}).best_overall == "b"


class TestWeightTable:
    def make_table(self):
        report_a = make_report([("q1", 1.0, True, "who"), ("q2", 0.5, False, "what")])
        report_b = make_report([("q1", 0.0, False, "who"), ("q2", 1.0, True, "what")])
        return compute_class_weights({"a": report_a, "b": report_b})

    def test_serialization_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "weights.json"
        save_weights(table, path)
        loaded = load_weights(path)
        assert loaded == table

    def test_basis_given_as_a_string_saves_and_loads_back(self, tmp_path):
        table = WeightTable(models=("a",), metric_basis="mean_f1", class_weights={},
                            global_weights={"a": 0.5})
        assert table.metric_basis is MetricBasis.MEAN_F1
        path = tmp_path / "weights.json"
        save_weights(table, path)
        assert load_weights(path) == table

    def test_row_of_unknown_label_is_the_global_weights(self):
        table = self.make_table()
        assert table.row("no_such_label") == tuple(table.global_weights[m] for m in table.models)
        assert table.row("no_such_label") != table.row("who")

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(WeightError, match="out of"):
            WeightTable(
                models=("m",),
                metric_basis=MetricBasis.MEAN_F1,
                class_weights={"who": {"m": 1.5}},
                global_weights={"m": 0.5},
            )

    def test_missing_model_in_class_row_rejected(self):
        with pytest.raises(WeightError, match="missing"):
            WeightTable(
                models=("m", "n"),
                metric_basis=MetricBasis.MEAN_F1,
                class_weights={"who": {"m": 0.5}},
                global_weights={"m": 0.5, "n": 0.4},
            )

    @pytest.mark.parametrize("where", ["global", "class"])
    @pytest.mark.parametrize("weight", ["x", None, True, [0.5]],
                             ids=["str", "none", "bool", "list"])
    def test_a_weight_that_is_no_number_is_rejected_by_name(self, where, weight):
        weights = {"m": 0.5, "n": weight}
        with pytest.raises(WeightError, match=f"'n'.* must be a number, got "
                                              f"{re.escape(repr(weight))}"):
            if where == "global":
                WeightTable(("m", "n"), "mean_f1", {}, weights)
            else:
                WeightTable(("m", "n"), "mean_f1", {"who": weights}, {"m": 0.5, "n": 0.4})

    def test_best_overall_is_the_first_model_of_highest_global_weight(self):
        table = WeightTable(("m", "n", "o"), "mean_f1", {}, {"m": 0.2, "n": 0.9, "o": 0.9})
        assert table.best_overall == "n"
        assert "best_overall" not in WeightTable.__slots__

    def test_wrong_best_overall_rejected(self, tmp_path):
        """``best_overall`` is derived, so the file's value is only checked: a
        file naming another model is refused, not silently corrected."""
        data = {"models": ["m", "n"], "metric_basis": "mean_f1", "global": {"m": 0.2, "n": 0.9},
                "classes": {}, "best_overall": "m"}
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: field $.best_overall must be "
                                                        "'n', the global-weight argmax, got 'm'")):
            load_weights(path)

    @pytest.mark.parametrize(
        "global_weights, named",
        [
            ({"a": 0.5, "ghost": 0.9}, "ghost"),  # a global weight for an unknown model
            ({}, "'a'"),  # a model without a global weight
        ],
    )
    def test_global_weights_must_match_models(self, tmp_path, global_weights, named):
        path = tmp_path / "weights.json"
        path.write_text(
            json.dumps({"models": ["a"], "metric_basis": "mean_f1", "global": global_weights,
                        "classes": {}, "best_overall": "a"}),
            encoding="utf-8",
        )
        with pytest.raises(WeightError, match="global weights do not match") as excinfo:
            load_weights(path)
        assert named in str(excinfo.value)

    def test_repeated_model_rejected(self, tmp_path):
        """A model listed twice would vote twice: its weight merged with itself."""
        path = tmp_path / "weights.json"
        path.write_text(
            json.dumps({"models": ["a", "b", "a"], "metric_basis": "mean_f1",
                        "global": {"a": 0.4, "b": 0.6},
                        "classes": {"who": {"a": 0.4, "b": 0.6}}, "best_overall": "b"}),
            encoding="utf-8",
        )
        with pytest.raises(WeightError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: models repeat a name: ['a', 'b', 'a']"

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text('{"models": ["m"]}', encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_weights(path)
        assert str(excinfo.value) == f"{path}: missing required field at $.classes"

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.update(models="ab"), "$.models"),
            (lambda d: d.update(models=["a", 2]), "$.models[1]"),
            (lambda d: d["global"].update(a=True), "$.global.a"),
            (lambda d: d["global"].update(a="0.6"), "$.global.a"),
            (lambda d: d["global"].update(a=10**400), "$.global.a"),
            (lambda d: d.update({"global": [0.6, 0.4]}), "$.global"),
            (lambda d: d["classes"]["who"].update(b=True), "$.classes.who.b"),
            (lambda d: d["classes"]["who"].update(b=-10**400), "$.classes.who.b"),
            (lambda d: d["classes"].update(who=[0.6, 0.4]), "$.classes.who"),
            (lambda d: d.update(classes=None), "$.classes"),
            (lambda d: d.update(metric_basis=1), "$.metric_basis"),
            (lambda d: d.update(best_overall=["a"]), "$.best_overall"),
        ],
        ids=[
            "models-str", "model-int", "global-bool", "global-str", "global-huge-int",
            "global-list", "class-weight-bool", "class-weight-huge-int", "class-row-list",
            "classes-null", "basis-int", "best-list",
        ],
    )
    def test_wrong_field_type_rejected_without_coercion(self, tmp_path, mutate, field):
        data = {"models": ["a", "b"], "metric_basis": "mean_f1",
                "global": {"a": 0.6, "b": 0.4}, "classes": {"who": {"a": 0.2, "b": 1}},
                "best_overall": "a"}
        assert WeightTable.from_json_dict(json.loads(json.dumps(data))).models == ("a", "b")
        mutate(data)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ") + ".*" + re.escape(field)):
            load_weights(path)
