"""The library's records: no field can be assigned, equality compares values,
and the records that check their fields check every construction."""
from __future__ import annotations

import copy
import pickle

import pytest

from helpers import make_dataset

from qavote.analysis import SimTriple, pairwise_similarity
from qavote.corpus import Dataset, PredictionSet, SchemaError, split_pre_eval
from qavote.metrics import ClassStats, evaluate
from qavote.synth import AccuracyProfile, Corruption
from qavote.taxonomy import ClassRule, QuestionClass, class_distribution, default_rules
from qavote.voting import Combine, VoteConfig
from qavote.weighting import WeightError, compute_class_weights


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
    }


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
    with pytest.raises(SchemaError, match="duplicate question ids"):
        copy.copy(unchecked)
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
    with pytest.raises(WeightError, match="best_overall"):
        table._replace(best_overall="ghost")
    assert VoteConfig()._replace(combine="max").combine is Combine.MAX
    profile = AccuracyProfile({"who": 0.5}, corruption="random_span")
    assert profile.corruption is Corruption.RANDOM_SPAN
    with pytest.raises(ValueError, match="out of \\[0, 1\\]"):
        profile._replace(per_class={"who": 1.5})
