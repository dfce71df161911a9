"""The library's records: no field can be assigned, equality compares values,
and the records that check their fields check every construction. A record
that checks nothing is a plain ``NamedTuple``; one that checks is a ``_Frozen``
class, which equals only a record of its own class and is unhashable."""
from __future__ import annotations

import copy
import pickle
import re

import pytest

from helpers import make_dataset

import qavote.corpus
from qavote.analysis import SimTriple, pairwise_similarity
from qavote.corpus import (
    Dataset, Paragraph, PredictionSet, QaItem, SchemaError, _Frozen, load_predictions,
    save_predictions, split_pre_eval,
)
from qavote.metrics import ClassStats, EvalReport, QuestionScore, evaluate
from qavote.synth import AccuracyProfile, Corruption
from qavote.taxonomy import (
    ClassRule,
    LengthClassifier,
    QuestionClass,
    class_distribution,
    default_rules,
)
from qavote.voting import Combine, VoteConfig
from qavote.weighting import (
    WeightError, WeightTable, compute_class_weights, load_weights, save_weights,
)


def _records() -> dict:
    """One instance of each record, by class name."""
    rules = default_rules()
    dataset = make_dataset({"who": 2, "what": 2})
    report = evaluate(PredictionSet("m", {dataset.ids[0]: "x"}), dataset, rules)
    return {
        "Dataset": dataset,
        "PredictionSet": PredictionSet("m", {"q": "a"}, {"note": 1}),
        "SplitResult": split_pre_eval(dataset, 0.5, 1),
        "ClassRule": ClassRule("who", QuestionClass.WHO, 1),
        "ClassHistogram": class_distribution(dataset, rules),
        "ClassStats": ClassStats(0.5, 0.5, 2),
        "EvalReport": report,
        "WeightTable": compute_class_weights({"m": report}),
        "VoteConfig": VoteConfig(),
        "SimTriple": SimTriple(1, 1, 2),
        "SimilarityReport": pairwise_similarity(report, report, rules.labels),
        "AccuracyProfile": AccuracyProfile({"who": 0.5}),
        "LengthClassifier": LengthClassifier([6, 9]),
    }


#: The records that check their fields; every other record checks nothing.
_FROZEN = ("Dataset", "PredictionSet", "EvalReport", "WeightTable", "VoteConfig",
           "AccuracyProfile", "LengthClassifier")


def _fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or type(record).__slots__


@pytest.mark.parametrize("name", list(_records()))
def test_no_field_can_be_assigned_or_added(name):
    record = _records()[name]
    assert type(record).__name__ == name
    for field in _fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", list(_records()))
def test_copy_and_pickle_round_trip(name):
    record = _records()[name]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)
    if name == "PredictionSet":
        assert copy.deepcopy(record).meta == record.meta == {"note": 1}


def test_a_copy_is_built_through_the_checks():
    first = _records()["Dataset"].paragraphs[0]
    unchecked = object.__new__(Dataset)._fill((first, first))  # as ``subset`` builds one
    descending = object.__new__(LengthClassifier)
    descending._set((9, 6))
    for clone in (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))):
        with pytest.raises(SchemaError, match="duplicate question ids"):
            clone(unchecked)
        with pytest.raises(ValueError, match="strictly increasing"):
            clone(descending)
    assert repr(PredictionSet("m", {"q": "a"})) == "PredictionSet('m', {'q': 'a'}, {})"


def test_prediction_set_equality_ignores_meta():
    a = PredictionSet("m", {"q": "a"}, {"sentinel_fallback_ids": ["q"]})
    assert a == PredictionSet("m", {"q": "a"})
    assert a != PredictionSet("m", {"q": "b"})
    assert a != PredictionSet("n", {"q": "a"})
    assert PredictionSet("m", {"q": "a"}).meta == {}
    assert len(a) == 1


def test_replace_on_a_checked_record_checks_again():
    table = _records()["WeightTable"]
    with pytest.raises(WeightError, match="out of \\[0, 1\\]"):
        table._replace(global_weights={"m": 1.5})
    report = _records()["EvalReport"]
    with pytest.raises(ValueError, match="em=True with f1=0.5"):
        report._replace(per_question={"q": QuestionScore("who", 0.5, True)})
    assert report._replace(model="n").overall == report.overall
    assert VoteConfig()._replace(combine="max").combine is Combine.MAX
    profile = AccuracyProfile({"who": 0.5}, corruption="random_span")
    assert profile.corruption is Corruption.RANDOM_SPAN
    with pytest.raises(ValueError, match="out of \\[0, 1\\]"):
        profile._replace(per_class={"who": 1.5})


def test_every_record_is_of_one_of_two_kinds():
    """A record that checks nothing is a plain NamedTuple; one that checks is a
    ``_Frozen`` class. No third mechanism (a tuple that checks) exists."""
    assert not hasattr(qavote.corpus, "_Checked")
    assert sorted(cls.__name__ for cls in _Frozen.__subclasses__()) == sorted(_FROZEN)
    for name, record in _records().items():
        cls = type(record)
        if name in _FROZEN:
            assert issubclass(cls, _Frozen) and not isinstance(record, tuple), name
            slots = {slot for klass in cls.__mro__ for slot in vars(klass).get("__slots__", ())}
            assert set(cls._compared) <= set(cls._init_args) <= slots, name
        else:
            assert cls.__bases__ == (tuple,) and cls._fields, name  # a NamedTuple's bases
            assert not hasattr(cls, "_checked"), name


@pytest.mark.parametrize("name", _FROZEN)
def test_a_frozen_record_is_no_tuple_and_unhashable(name):
    record = _records()[name]
    assert record != tuple(getattr(record, f) for f in type(record)._init_args)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    field = type(record)._init_args[0]
    assert record._replace(**{field: getattr(record, field)}) == record
    with pytest.raises(ValueError, match="unexpected field names: \\['ghost'\\]"):
        record._replace(ghost=1)


def test_replace_builds_through_the_constructor():
    dataset = _records()["Dataset"]
    with pytest.raises(SchemaError, match="duplicate question ids"):
        dataset._replace(paragraphs=dataset.paragraphs + dataset.paragraphs[:1])


#: Per checked record, a function returning fresh constructor arguments, with
#: every container a caller may pass as a list or dict.
_ARGS = {
    "Dataset": lambda: ([Paragraph("p0", "t", "c", (QaItem("q0", "Who?", ("g",), (0,)),)),
                         Paragraph("p1", "t", "c", (QaItem("q1", "Why?", ("h",), (1,)),))],),
    "PredictionSet": lambda: ("m", {"q": "a"}, {"note": [1]}),
    "EvalReport": lambda: ({"q": QuestionScore("who", 0.5, False),
                            "p": QuestionScore("what", 1.0, True)}, "m", "exclude"),
    "WeightTable": lambda: (["a", "b"], "mean_f1", {"who": {"a": 0.25, "b": 0.5}},
                            {"a": 0.5, "b": 0.25}),
    "VoteConfig": lambda: ("max", False, "raw"),
    "AccuracyProfile": lambda: ({"who": 0.5, "what": 1}, "random_span", 3),
    "LengthClassifier": lambda: ([6, 9],),
}


def _change_in_place(value) -> None:
    """Change every list and dict within ``value``, tuples searched too."""
    if isinstance(value, (list, tuple)):
        for child in value:
            _change_in_place(child)
        if isinstance(value, list):
            value.append(value[0] if value else 7.0)
            value.reverse()
    elif isinstance(value, dict):
        for child in value.values():
            _change_in_place(child)
        for key in value:
            value[key] = 7.0
        value["added"] = 7.0


class TestARecordHoldsWhatItChecked:
    """A checked record keeps the checked form of its fields, not the caller's
    containers: nothing done to them afterwards can change the record."""

    def test_every_checked_record_has_arguments_here(self):
        assert sorted(_ARGS) == sorted(_FROZEN)

    @pytest.mark.parametrize("name", _FROZEN)
    def test_changing_what_was_passed_in_leaves_the_record_as_built(self, name):
        cls = type(_records()[name])
        args = _ARGS[name]()
        record = cls(*args)
        for arg in args:
            _change_in_place(arg)
        fresh = cls(*_ARGS[name]())
        assert record == fresh
        unchecked = {"meta"} if name == "PredictionSet" else set()  # the caller's annotation
        for field in set(cls.__slots__) - unchecked:  # derived fields too
            assert getattr(record, field) == getattr(fresh, field), field

    @pytest.mark.parametrize("field", ["answer_starts", "items"])
    def test_dataset_takes_only_tuples(self, field):
        item = QaItem("q", "Who?", ("g",), (0,))
        if field == "answer_starts":
            paragraph = Paragraph("p", "t", "c", (item._replace(answer_starts=[0]),))
        else:
            paragraph = Paragraph("p", "t", "c", [item])
        with pytest.raises(SchemaError, match=f"{field} must be a tuple"):
            Dataset((paragraph,))

    @pytest.mark.parametrize("p", ["x", None, True, [0.5]], ids=["str", "none", "bool", "list"])
    def test_accuracy_profile_rejects_a_probability_that_is_no_number(self, p):
        with pytest.raises(ValueError, match=re.escape(f"class 'who' must be a number, got {p!r}")):
            AccuracyProfile({"who": p})

    def test_weight_table_keeps_a_tuple_and_its_own_rows(self, tmp_path):
        models, global_weights, row = ["a"], {"a": 0.5}, {"a": 0.25}
        table = WeightTable(models, "mean_f1", {"who": row}, global_weights)
        models.append("b")
        global_weights["a"] = float("nan")
        row["a"] = 2.0
        assert table.models == ("a",)
        assert table.global_weights == {"a": 0.5}
        assert table.class_weights == {"who": {"a": 0.25}}
        save_weights(table, tmp_path / "w.json")
        assert load_weights(tmp_path / "w.json") == table

    @pytest.mark.parametrize("edges", [["6", "9"], [6.0, 9], [True, 9], [6, None]],
                             ids=["str", "float", "bool", "none"])
    def test_length_classifier_takes_only_int_edges(self, edges):
        with pytest.raises(ValueError, match="bucket_edges must be ints"):
            LengthClassifier(edges)

    @pytest.mark.parametrize("model_name, answers, message", [
        ("m", {"q": 1}, "answer to 'q' must be str, got int"),
        ("m", {1: "a"}, "question id 1 must be str, got int"),
        (None, {"q": "a"}, "model_name must be str, got NoneType"),
    ], ids=["answer", "question-id", "model-name"])
    def test_prediction_set_takes_only_strings(self, model_name, answers, message):
        with pytest.raises(SchemaError, match=message):
            PredictionSet(model_name, answers)

    def test_prediction_set_keeps_its_own_answers(self, tmp_path):
        answers = {"q": "a"}
        predictions = PredictionSet("m", answers)
        answers["q"] = 1
        assert predictions.answers == {"q": "a"}
        save_predictions(predictions, tmp_path / "p.json")
        assert load_predictions(tmp_path / "p.json", "m") == predictions

    def test_load_predictions_checks_the_model_name(self, tmp_path):
        save_predictions(PredictionSet("m", {"q": "a"}), tmp_path / "p.json")
        with pytest.raises(SchemaError, match="model_name must be str, got int"):
            load_predictions(tmp_path / "p.json", 7)
