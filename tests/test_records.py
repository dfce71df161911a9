"""The library's records: no field can be assigned, equality compares values,
and the records that check their fields check every construction. A record
that checks nothing is a plain ``NamedTuple``; one that checks is a ``_Frozen``
class, which equals only a record of its own class and is unhashable."""
from __future__ import annotations

import copy
import pickle
import re
from operator import delitem, setitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_dataset

import qavote.corpus
from qavote.analysis import SimTriple, pairwise_similarity
from qavote.cli import main
from qavote.corpus import (
    Dataset, Paragraph, PredictionSet, QaItem, SchemaError, _Frozen, dataset_to_squad_dict,
    load_dataset, load_predictions, save_dataset, save_predictions, split_pre_eval, write_json,
)
from qavote.metrics import ClassStats, EvalReport, QuestionScore, evaluate
from qavote.synth import AccuracyProfile, Corruption, load_profile
from qavote.taxonomy import (
    ClassRule,
    LengthClassifier,
    QuestionClass,
    class_distribution,
    default_rules,
)
from qavote.voting import Combine, VoteConfig
from qavote.weighting import (
    MetricBasis, WeightError, WeightTable, compute_class_weights, load_weights, save_weights,
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
    unchecked = object.__new__(Dataset)
    unchecked._set((first, first), items=first.items * 2)
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
        for field in cls.__slots__:  # derived fields too
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

    def test_prediction_set_keeps_its_own_meta_values(self):
        ids = ["q"]
        predictions = PredictionSet("m", {}, {"ids": ids, "note": "n", "count": 1, "none": None})
        ids.append("x")
        assert predictions.meta == {"ids": ("q",), "note": "n", "count": 1, "none": None}

    @pytest.mark.parametrize("value", [{"a": 1}, {1}, [["q"]], ("q", [1]), object()],
                             ids=["dict", "set", "list-of-lists", "tuple-with-list", "object"])
    def test_prediction_set_refuses_a_meta_value_it_cannot_keep(self, value):
        with pytest.raises(ValueError, match="^meta 'ids' must be a str, int, float, bool, None "
                                             "or a list or tuple of them, got "):
            PredictionSet("m", {}, {"ids": value})

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


#: Every mapping a checked record holds, as a record name and a path of one
#: field, then keys.
_MAPPINGS = [("WeightTable", ("global_weights",)), ("WeightTable", ("class_weights",)),
             ("WeightTable", ("class_weights", "who")), ("PredictionSet", ("answers",)),
             ("PredictionSet", ("meta",)), ("EvalReport", ("per_question",)),
             ("EvalReport", ("per_class",)), ("AccuracyProfile", ("per_class",))]


class TestAMappingARecordHoldsIsReadOnly:
    """A checked record hands out no container that can still be changed: each
    mapping it holds is a read-only view of its own copy."""

    @pytest.mark.parametrize("name, path", _MAPPINGS,
                             ids=[".".join((name, *path)) for name, path in _MAPPINGS])
    def test_no_key_can_be_set_added_or_deleted(self, name, path):
        record = _records()[name]
        mapping = getattr(record, path[0])
        for key in path[1:]:
            mapping = mapping[key]
        key = next(iter(mapping))
        for change, *args in ((setitem, key, 7.0), (setitem, "added", 7.0), (delitem, key)):
            with pytest.raises(TypeError, match="does not support item"):
                change(mapping, *args)
        for method in ("clear", "pop", "update", "setdefault"):
            assert not hasattr(mapping, method), method
        assert record == _records()[name]

    def test_a_prediction_set_keeps_its_own_meta(self):
        meta = {"sentinel_fallback_ids": ["q"]}
        predictions = PredictionSet("m", {"q": "a"}, meta)
        meta["other"] = 1
        assert predictions.meta == {"sentinel_fallback_ids": ("q",)}

    def test_repr_shows_each_mapping_as_a_dict(self):
        table = WeightTable(("a",), "em_rate", {"who": {"a": 0.25}}, {"a": 0.5})
        assert repr(table) == ("WeightTable(('a',), <MetricBasis.EM_RATE: 'em_rate'>, "
                               "{'who': {'a': 0.25}}, {'a': 0.5})")


def _item(**changes) -> QaItem:
    return QaItem("q1", "Who?", ("g",), (0,))._replace(**changes)


class TestDatasetChecksFieldTypes:
    """A value of the wrong type is refused when the dataset is built, naming the
    question id or the paragraph key, not by a crash in a later stage."""

    @pytest.mark.parametrize("item, message", [
        (_item(gold_answers=(5,)), "question 'q1': gold answer must be str, got int"),
        (_item(question=None), "question 'q1': question must be str, got NoneType"),
        (_item(answer_starts=(True,)), "question 'q1': answer start must be int, got bool"),
        (_item(answer_starts=("0",)), "question 'q1': answer start must be int, got str"),
        (_item(id=7), "question 7: id must be str, got int"),
        (_item(gold_answers=("g", b"h"), answer_starts=(0, 1)),
         "question 'q1': gold answer must be str, got bytes"),
        (_item(gold_answers=("g", "h"), answer_starts=(0, 1.0)),
         "question 'q1': answer start must be int, got float"),
    ], ids=["int-gold", "none-question", "bool-start", "str-start", "int-id", "second-gold",
            "second-start"])
    def test_an_item_field_of_the_wrong_type(self, item, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            Dataset([Paragraph("p0", "t", "c", (item,))])

    @pytest.mark.parametrize("field, value, message", [
        ("key", 3, "paragraph 3: key must be str, got int"),
        ("title", None, "paragraph 'p0': title must be str, got NoneType"),
        ("context", b"c", "paragraph 'p0': context must be str, got bytes"),
    ], ids=["key", "title", "context"])
    def test_a_paragraph_field_of_the_wrong_type(self, field, value, message):
        paragraph = Paragraph("p0", "t", "c", (_item(),))._replace(**{field: value})
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            Dataset([paragraph])

    def test_string_and_int_subclasses_pass_as_the_decoder_lets_them(self):
        class Text(str):
            pass

        class Start(int):
            pass

        item = QaItem(Text("q1"), Text("Who?"), (Text("g"), "h"), (Start(0), 1))
        dataset = Dataset([Paragraph(Text("p0"), Text("t"), Text("c"), (item,))])
        assert dataset.items == (item,)


#: Text a file can hold: a lone surrogate has no UTF-8 encoding.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def _datasets(draw) -> Dataset:
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    ids = iter(draw(st.lists(_TEXT, min_size=sum(sizes), max_size=sum(sizes), unique=True)))
    paragraphs = []
    for size in sizes:
        items = []
        for _ in range(size):
            golds = draw(st.lists(_TEXT, min_size=1, max_size=3))
            starts = draw(st.lists(st.integers(-2, 2**70), min_size=len(golds),
                                   max_size=len(golds)))
            items.append(QaItem(next(ids), draw(_TEXT), tuple(golds), tuple(starts)))
        paragraphs.append(Paragraph(draw(_TEXT), draw(st.sampled_from(["", "t", "u"])),
                                    draw(_TEXT), tuple(items)))
    return Dataset(paragraphs)


@st.composite
def _weight_tables(draw) -> WeightTable:
    models = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    weight = st.one_of(st.floats(0.0, 1.0), st.integers(0, 1))

    def row():
        return {model: draw(weight) for model in models}

    labels = draw(st.lists(_TEXT, max_size=4, unique=True))
    return WeightTable(models, draw(st.sampled_from(MetricBasis)),
                       {label: row() for label in labels}, row())


_PROFILES = st.builds(AccuracyProfile, st.dictionaries(_TEXT, st.floats(0.0, 1.0), max_size=4),
                      st.sampled_from(Corruption), st.integers(-2**70, 2**70))


class TestSavedRecordsLoadBackEqual:
    """Any record its constructor accepts, with text a file can hold, saves and
    loads back equal. A dataset is compared as SQuAD JSON, since a loaded
    paragraph's key is its place in the file."""

    @settings(max_examples=100, deadline=None)
    @given(dataset=_datasets())
    def test_dataset(self, tmp_path_factory, dataset):
        path = tmp_path_factory.mktemp("dataset") / "d.json"
        save_dataset(dataset, path)
        assert dataset_to_squad_dict(load_dataset(path)) == dataset_to_squad_dict(dataset)

    @settings(max_examples=100, deadline=None)
    @given(name=_TEXT, answers=st.dictionaries(_TEXT, _TEXT, max_size=5))
    def test_prediction_set(self, tmp_path_factory, name, answers):
        path = tmp_path_factory.mktemp("predictions") / "p.json"
        save_predictions(PredictionSet(name, answers), path)
        assert load_predictions(path, name) == PredictionSet(name, answers)

    @settings(max_examples=100, deadline=None)
    @given(table=_weight_tables())
    def test_weight_table(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("weights") / "w.json"
        save_weights(table, path)
        assert load_weights(path) == table

    @settings(max_examples=100, deadline=None)
    @given(profile=_PROFILES)
    def test_accuracy_profile(self, tmp_path_factory, profile):
        """The library writes no profile: the file is the JSON ``synth --profile`` reads."""
        path = tmp_path_factory.mktemp("profile") / "profile.json"
        write_json({"per_class": dict(profile.per_class), "corruption": profile.corruption.value,
                    "seed": profile.seed}, path)
        assert load_profile(path) == profile


class TestALoneSurrogate:
    """No record's constructor looks for a lone surrogate (``"\\ud800"``), so a
    record built in memory may hold one, but no file can: a loaded file holding
    one is a ``SchemaError``, and saving such a record raises
    ``UnicodeEncodeError``, a ``ValueError`` (CLI exit 4), and leaves the
    target as it was."""

    @pytest.mark.parametrize("save, record", [
        (save_predictions, PredictionSet("m", {"q": "a\ud800"})),
        (save_dataset, Dataset([Paragraph("p0", "t", "c\udfff", (_item(),))])),
        (save_weights, WeightTable(("a\ud800",), "mean_f1", {}, {"a\ud800": 0.5})),
    ], ids=["predictions", "dataset", "weights"])
    def test_saving_it_raises_and_leaves_the_target_as_it_was(self, tmp_path, save, record):
        path = tmp_path / "out.json"
        with pytest.raises(UnicodeEncodeError):
            save(record, path)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"previous")
        with pytest.raises(UnicodeEncodeError):
            save(record, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"previous"

    def test_a_model_name_from_the_command_line_exits_four(self, tmp_path, capsys):
        """Command-line bytes that are not UTF-8 reach Python as lone surrogates."""
        save_dataset(make_dataset({"who": 1}), tmp_path / "d.json")
        save_predictions(PredictionSet("m", {}), tmp_path / "p.json")
        rc = main(["evaluate", "--dataset", str(tmp_path / "d.json"),
                   "--preds", f"m\udcff={tmp_path / 'p.json'}", "--json", str(tmp_path / "r.json")])
        assert rc == 4 and "surrogates not allowed" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["d.json", "p.json"]
