from __future__ import annotations

import ast
import io
import json
import os
from collections import UserDict
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    QUESTION_TEMPLATES, make_dataset, make_squad_dict, package_calls, uniform_counts,
)
from squad_reference import RefQaItem, ref_dataset_from_squad_dict, ref_items
from vote_oracle import ensemble_vote, table_for

from qavote import corpus, voting
from qavote.cli import main
from qavote.corpus import (
    Dataset,
    Granularity,
    Paragraph,
    QaItem,
    SchemaError,
    dataset_from_squad_dict,
    dataset_to_squad_dict,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    save_split_manifest,
    split_pre_eval,
    PredictionSet,
)
from qavote.synth import Corruption, load_profile
from qavote.taxonomy import QuestionClass, load_rules
from qavote.voting import save_traces
from qavote.weighting import MetricBasis, load_weights


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _replace_at(data, path, change) -> str:
    """Replace the node of ``data`` at ``path`` (keys and indices from the root)
    by ``change(node)``; return the node's JSON path."""
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


class TestLoadDataset:
    def test_counts_and_grouping(self, tmp_path):
        data = make_squad_dict(uniform_counts(3), per_paragraph=4)
        path = write_json(tmp_path, "squad.json", data)
        dataset = load_dataset(path)
        assert len(dataset) == 42
        sizes = [len(paragraph.items) for paragraph in dataset.paragraphs]
        assert sum(sizes) == 42 and max(sizes) <= 4

    def test_empty_data_array(self, tmp_path):
        path = write_json(tmp_path, "empty.json", {"version": "1.1", "data": []})
        assert len(load_dataset(path)) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_dataset(path)

    def test_missing_field_reports_json_path(self, tmp_path):
        data = make_squad_dict({"what": 2})
        del data["data"][0]["paragraphs"][0]["qas"][1]["question"]
        path = write_json(tmp_path, "squad.json", data)
        with pytest.raises(SchemaError, match=r"\$\.data\[0\]\.paragraphs\[0\]\.qas\[1\]\.question"):
            load_dataset(path)

    def test_duplicate_id_is_hard_error(self, tmp_path):
        data = make_squad_dict({"what": 2})
        qas = data["data"][0]["paragraphs"][0]["qas"]
        qas[1]["id"] = qas[0]["id"]
        path = write_json(tmp_path, "squad.json", data)
        with pytest.raises(SchemaError, match=rf"duplicate question id '{qas[0]['id']}' at "
                                              r"\$\.data\[0\]\.paragraphs\[0\]\.qas\[1\]\.id$"):
            load_dataset(path)

    def test_empty_answers_rejected(self, tmp_path):
        data = make_squad_dict({"what": 1})
        data["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
        path = write_json(tmp_path, "squad.json", data)
        with pytest.raises(SchemaError, match="answers"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("paragraphs",), 5, id="paragraphs-int"),
            pytest.param(("paragraphs", 0, "qas"), None, id="qas-null"),
            pytest.param(("paragraphs", 0, "context"), ["a", "b"], id="context-list"),
            pytest.param(("title",), 7, id="title-int"),
            pytest.param(("paragraphs", 0, "qas", 0, "id"), ["q", "1"], id="id-list"),
            pytest.param(("paragraphs", 0, "qas", 0, "question"), ["What", "is", "it?"],
                         id="question-list"),
            pytest.param(("paragraphs", 0, "qas", 0, "answers", 0, "text"), 5, id="text-int"),
            pytest.param(("paragraphs", 0, "qas", 0, "answers", 0, "answer_start"), "abc",
                         id="answer_start-str"),
            pytest.param(("paragraphs", 0, "qas", 0, "answers", 0, "answer_start"), True,
                         id="answer_start-bool"),
        ],
    )
    def test_wrong_field_type_reports_json_path(self, path, value):
        data = make_squad_dict({"what": 1})
        node = data["data"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        json_path = "$.data[0]" + "".join(
            f"[{key}]" if isinstance(key, int) else f".{key}" for key in path
        )
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_squad_dict(data)
        assert json_path in str(excinfo.value)

    @pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
    @pytest.mark.parametrize("path", [
        ("data",), ("data", 0, "paragraphs"), ("data", 0, "paragraphs", 0, "qas"),
        ("data", 0, "paragraphs", 0, "qas", 0, "answers"),
    ], ids=["data", "paragraphs", "qas", "answers"])
    def test_an_empty_container_of_the_wrong_type_reports_json_path(self, path, value):
        """An empty object or string where an array belongs is refused, not
        read as an empty array."""
        data = make_squad_dict({"what": 1})
        json_path = _replace_at(data, path, lambda _: value)
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_squad_dict(data)
        assert str(excinfo.value) == f"field {json_path} must be list, got {type(value).__name__}"

    @pytest.mark.parametrize("path", [
        ("data", 0), ("data", 0, "paragraphs", 0, "qas", 0, "answers", 0),
    ], ids=["article", "answer"])
    def test_a_mapping_that_is_no_dict_is_refused(self, path):
        data = make_squad_dict({"what": 1})
        json_path = _replace_at(data, path, UserDict)
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_squad_dict(data)
        assert str(excinfo.value) == f"{json_path} must be an object, got UserDict"

    @pytest.mark.parametrize("article, message", [
        ({"title": 7, "paragraphs": []}, "field $.data[1].title must be str, got int"),
        ({"title": 7, "paragraphs": [{"context": "c", "qas": []}]},
         "field $.data[1].title must be str, got int"),
        ({"paragraphs": [{"context": None, "qas": []}]},
         "field $.data[1].paragraphs[0].context must be str, got NoneType"),
        ({"paragraphs": [{"qas": []}]}, "missing required field at $.data[1].paragraphs[0].context"),
    ], ids=["title-no-paragraphs", "title-empty-paragraph", "context-empty-paragraph",
            "missing-context-empty-paragraph"])
    def test_a_dropped_paragraph_is_checked_too(self, article, message):
        """A paragraph without questions, or an article without paragraphs, is
        dropped, but its title and context must still have their types."""
        data = make_squad_dict({"what": 1})
        data["data"].append(article)
        with pytest.raises(SchemaError) as excinfo:
            dataset_from_squad_dict(data)
        assert str(excinfo.value) == message

    def test_duplicate_gold_texts_are_kept(self):
        data = make_squad_dict({"who": 1})
        answers = data["data"][0]["paragraphs"][0]["qas"][0]["answers"]
        answers.append(dict(answers[0]))
        dataset = dataset_from_squad_dict(data)
        assert len(dataset.items[0].gold_answers) == 2

    def test_save_load_round_trip(self, tmp_path):
        dataset = make_dataset(uniform_counts(2), golds_per_item=2)
        path = tmp_path / "out.json"
        save_dataset(dataset, path)
        reloaded = load_dataset(path)
        assert reloaded.items == dataset.items
        assert reloaded.paragraphs == dataset.paragraphs
        assert dataset_to_squad_dict(reloaded) == dataset_to_squad_dict(dataset)

    def test_round_trip_keeps_question_order_when_a_title_repeats(self, tmp_path):
        """Articles are not merged by title: the file written is the file read."""
        data = {"version": "1.1", "data": [
            {"title": title, "paragraphs": [{"context": "c", "qas": [
                {"id": qid, "question": "Who?", "answers": [{"text": "c", "answer_start": 0}]}
            ]}]}
            for title, qid in [("t", "q1"), ("u", "q2"), ("t", "q3")]
        ]}
        save_dataset(load_dataset(write_json(tmp_path, "in.json", data)), tmp_path / "out.json")
        assert load_dataset(tmp_path / "out.json").ids == ("q1", "q2", "q3")
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8")) == data


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_SUBCLASS = {str: _Str, int: _Int, list: _List, dict: _Dict}
_WRONG_VALUES = [None, True, False, 0, 7, 2.5, "", "7", [], ["x"], {}, {"text": "x"}]
# The fields each kind of object is read for.
_FIELDS = {
    "root": ("data",),
    "article": ("title", "paragraphs"),
    "paragraph": ("context", "qas"),
    "qa": ("id", "question", "answers"),
    "answer": ("text", "answer_start"),
}
_CHILDREN = {"root": ("data", "article"), "article": ("paragraphs", "paragraph"),
             "paragraph": ("qas", "qa"), "qa": ("answers", "answer")}


def _objects(data):
    """(kind, object, list holding it, index) for every object of a SQuAD dict;
    the root has no list."""
    found = [("root", data, None, None)]
    for kind, node, _, _ in found:
        if kind in _CHILDREN:
            key, child_kind = _CHILDREN[kind]
            found += [(child_kind, child, node[key], i) for i, child in enumerate(node[key])]
    return found


@st.composite
def _squad_documents(draw):
    """A make_squad_dict corpus, valid or with one mutation a decoder must
    treat exactly like the reference does."""
    labels = draw(st.lists(st.sampled_from(list(QUESTION_TEMPLATES)), min_size=1, max_size=4,
                           unique=True))
    data = make_squad_dict({label: draw(st.integers(1, 3)) for label in labels},
                           per_paragraph=draw(st.integers(1, 3)),
                           paragraphs_per_article=draw(st.integers(1, 2)),
                           golds_per_item=draw(st.integers(1, 3)))
    objects = _objects(data)
    kind, node, holder, index = draw(st.sampled_from(objects))
    mutation = draw(st.sampled_from(
        ["none", "missing", "wrong-type", "subclass", "non-object", "empty-answers",
         "duplicate-id", "start-type", "empty-qas"]))
    if mutation in ("missing", "wrong-type", "subclass"):
        key = draw(st.sampled_from(_FIELDS[kind]))
        if mutation == "missing":
            node.pop(key, None)
        elif mutation == "wrong-type":
            node[key] = draw(st.sampled_from(_WRONG_VALUES))
        elif key in node:
            node[key] = _SUBCLASS[type(node[key])](node[key])
    elif mutation == "non-object":
        value = draw(st.sampled_from([None, 1, "x", ["a"], True, _Dict(node)]))
        if holder is None:
            data = value
        else:
            holder[index] = value
    elif mutation == "empty-answers":
        qas = [qa for kind, qa, _, _ in objects if kind == "qa"]
        draw(st.sampled_from(qas))["answers"] = []
    elif mutation == "empty-qas":  # a paragraph without questions is dropped
        paragraphs = [paragraph for kind, paragraph, _, _ in objects if kind == "paragraph"]
        draw(st.sampled_from(paragraphs))["qas"] = []
    elif mutation == "start-type":  # JSON true is an int to Python, a quoted number is not
        answers = [answer for kind, answer, _, _ in objects if kind == "answer"]
        draw(st.sampled_from(answers))["answer_start"] = draw(st.sampled_from([True, False, "0"]))
    elif mutation == "duplicate-id":
        qas = [qa for kind, qa, _, _ in objects if kind == "qa"]
        first, second = draw(st.sampled_from(qas)), draw(st.sampled_from(qas))
        second["id"] = first["id"]
    return data


def _outcome(decode, data):
    """The decoded dataset's items and each paragraph's key, title, context and
    question ids, or the error's type and message."""
    try:
        dataset = decode(data)
    except Exception as exc:
        return type(exc), str(exc)
    paragraphs = [(p.key, p.title, p.context, tuple(item.id for item in p.items))
                  for p in dataset.paragraphs]
    return ref_items(dataset), paragraphs


class TestDecoderMatchesReference:
    """``dataset_from_squad_dict`` leaves the values to ``Dataset`` and reads the
    document again only after a fault; the reference reads every field through
    its own ``_require``."""

    @settings(max_examples=400, deadline=None)
    @given(data=_squad_documents())
    def test_same_dataset_or_same_error(self, data):
        assert _outcome(dataset_from_squad_dict, data) == _outcome(
            ref_dataset_from_squad_dict, data)

    @pytest.mark.parametrize("golds, starts", [((), ()), (("a", "b"), (0,)), (("a",), (0, 1))],
                             ids=["no-golds", "fewer-starts", "more-starts"])
    def test_item_checks_through_dataset(self, golds, starts):
        with pytest.raises(SchemaError) as expected:
            Dataset((Paragraph("p0", "t", "a b",
                               (RefQaItem("q0", "Who?", golds, starts),)),))
        with pytest.raises(SchemaError) as actual:
            Dataset((Paragraph("p0", "t", "a b", (QaItem("q0", "Who?", golds, starts),)),))
        assert str(actual.value) == str(expected.value)


class TestReadAgainOnlyAfterAFault:
    """A valid file is decoded without ``_require``: the record's constructor
    checks every value, and only a fault sends the decoder back over the file
    to name its JSON path."""

    def test_a_valid_file_is_read_once(self, tmp_path, monkeypatch):
        calls, require = [], corpus._require

        def spy(mapping, key, path, kind):
            calls.append(f"{path}.{key}")
            return require(mapping, key, path, kind)

        monkeypatch.setattr(corpus, "_require", spy)
        save_dataset(make_dataset(uniform_counts(2), golds_per_item=2), tmp_path / "d.json")
        save_predictions(PredictionSet("m", {"q": "a"}), tmp_path / "p.json")
        load_dataset(tmp_path / "d.json")
        load_predictions(tmp_path / "p.json", "m")
        assert calls == []
        with pytest.raises(SchemaError):
            load_predictions(write_json(tmp_path, "bad.json", {"q": "a", "r": 1}), "m")
        assert calls == ["$.q", "$.r"]

    def test_an_error_the_walk_finds_no_fault_for_propagates(self, monkeypatch):
        def refuse(paragraphs):
            raise SchemaError("refused")

        monkeypatch.setattr(corpus, "Dataset", refuse)
        with pytest.raises(SchemaError, match="^refused$"):
            dataset_from_squad_dict(make_squad_dict({"what": 1}))


@st.composite
def _documents_with_empty_paragraphs(draw):
    """A valid make_squad_dict corpus with paragraphs of no questions inserted
    anywhere, an article's first and last included."""
    labels = draw(st.lists(st.sampled_from(list(QUESTION_TEMPLATES)), min_size=1, max_size=3,
                           unique=True))
    data = make_squad_dict({label: draw(st.integers(1, 3)) for label in labels},
                           per_paragraph=draw(st.integers(1, 3)),
                           paragraphs_per_article=draw(st.integers(1, 3)))
    for article in data["data"]:
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(article["paragraphs"])))
            article["paragraphs"].insert(at, {"context": f"empty {at}", "qas": []})
    return data


class TestEmptyParagraphs:
    """A paragraph without questions is dropped at decode, as ``subset`` drops a
    paragraph it empties: one rule, so a decoded dataset is its own subset."""

    @settings(max_examples=150, deadline=None)
    @given(data=_documents_with_empty_paragraphs(), seed=st.integers(0, 3),
           fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           granularity=st.sampled_from(Granularity))
    def test_subset_identity_and_split_round_trip(self, tmp_path_factory, data, seed, fraction,
                                                  granularity):
        dataset = dataset_from_squad_dict(data)
        assert all(paragraph.items for paragraph in dataset.paragraphs)
        assert dataset.subset(dataset.ids) == dataset
        kept = [(a, p) for a, article in enumerate(data["data"])
                for p, paragraph in enumerate(article["paragraphs"]) if paragraph["qas"]]
        assert [p.key for p in dataset.paragraphs] == [f"p{a:05d}_{p:05d}" for a, p in kept]

        split = split_pre_eval(dataset, fraction, seed, granularity)
        path = tmp_path_factory.mktemp("split") / "part.json"
        for part in (split.train, split.pre_eval):
            save_dataset(part, path)
            reloaded = load_dataset(path)
            assert reloaded.subset(reloaded.ids) == reloaded
            # a reloaded paragraph's key is its place in the new file
            assert [p._replace(key="") for p in reloaded.paragraphs] == [
                p._replace(key="") for p in part.paragraphs]
        if granularity is Granularity.PARAGRAPH:  # every paragraph lands whole in one part
            keys = [p.key for p in dataset.paragraphs]
            assert sorted(split.train.paragraphs + split.pre_eval.paragraphs,
                          key=lambda p: keys.index(p.key)) == list(dataset.paragraphs)


class TestLoadPredictions:
    def test_single_entry(self, tmp_path):
        path = write_json(tmp_path, "p.json", {"q1": "Denver Broncos"})
        preds = load_predictions(path, "m1")
        assert preds.model_name == "m1"
        assert preds.answers == {"q1": "Denver Broncos"}

    def test_empty_object(self, tmp_path):
        path = write_json(tmp_path, "p.json", {})
        assert len(load_predictions(path, "m1")) == 0

    def test_zero_byte_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_predictions(path, "m1")

    def test_non_string_value(self, tmp_path):
        path = write_json(tmp_path, "p.json", {"q0": "a", "q1": 5})
        with pytest.raises(SchemaError) as excinfo:
            load_predictions(path, "m1")
        assert str(excinfo.value) == f"{path}: field $.q1 must be str, got int"

    def test_non_object(self, tmp_path):
        path = write_json(tmp_path, "p.json", ["a"])
        with pytest.raises(SchemaError) as excinfo:
            load_predictions(path, "m1")
        assert str(excinfo.value) == f"{path}: $ must be an object, got list"

    def test_partial_coverage_loads(self, tmp_path):
        # fewer predictions than dataset questions is fine at load time
        dataset = make_dataset(uniform_counts(2))
        partial = {qid: "x" for qid in dataset.ids[:10]}
        path = write_json(tmp_path, "p.json", partial)
        assert len(load_predictions(path, "m1")) == 10 < len(dataset)

    def test_round_trip(self, tmp_path):
        answers = {"q1": "ans with  spaces", "q2": "", "q3": "ünïcode"}
        path = tmp_path / "p.json"
        save_predictions(PredictionSet(model_name="m", answers=answers), path)
        assert load_predictions(path, "m").answers == answers


class TestSplit:
    def test_fraction_zero(self, small_dataset):
        split = split_pre_eval(small_dataset, 0.0, seed=1)
        assert len(split.pre_eval) == 0
        assert split.train.ids == small_dataset.ids

    def test_fraction_one(self, small_dataset):
        split = split_pre_eval(small_dataset, 1.0, seed=1)
        assert len(split.train) == 0
        assert set(split.pre_eval.ids) == set(small_dataset.ids)

    def test_fraction_out_of_range(self, small_dataset):
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                split_pre_eval(small_dataset, bad, seed=1)

    def test_question_count_first_reaches_target(self):
        dataset = make_dataset({"what": 100})
        assert len(split_pre_eval(dataset, 0.05, seed=3).pre_eval) == 5
        # non-integer target: 3.3 -> first count reaching it is 4
        assert len(split_pre_eval(dataset, 0.033, seed=3).pre_eval) == 4

    def test_determinism_same_seed(self, small_dataset):
        a = split_pre_eval(small_dataset, 0.25, seed=42)
        b = split_pre_eval(small_dataset, 0.25, seed=42)
        assert a.pre_eval.ids == b.pre_eval.ids
        assert json.dumps(dataset_to_squad_dict(a.train)) == json.dumps(
            dataset_to_squad_dict(b.train)
        )

    def test_different_seeds_differ(self, small_dataset):
        a = split_pre_eval(small_dataset, 0.25, seed=1)
        b = split_pre_eval(small_dataset, 0.25, seed=2)
        assert a.pre_eval.ids != b.pre_eval.ids

    @settings(max_examples=40, deadline=None)
    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        granularity=st.sampled_from(list(Granularity)),
    )
    def test_partition_property(self, fraction, seed, granularity):
        dataset = make_dataset(uniform_counts(2))
        split = split_pre_eval(dataset, fraction, seed, granularity)
        train_ids, pre_ids = set(split.train.ids), set(split.pre_eval.ids)
        assert train_ids.isdisjoint(pre_ids)
        assert train_ids | pre_ids == set(dataset.ids)

    @settings(max_examples=40, deadline=None)
    @given(
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2,
                           unique=True).map(sorted),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_a_larger_fraction_keeps_every_held_out_question(self, fractions, seed):
        """At one seed, question units are ordered independently of the fraction, so
        the pre-evaluation slice only grows with it."""
        dataset = make_dataset(uniform_counts(2))
        smaller, larger = (set(split_pre_eval(dataset, f, seed).pre_eval.ids) for f in fractions)
        assert smaller <= larger

    def test_paragraph_granularity_keeps_groups_whole(self, small_dataset):
        split = split_pre_eval(small_dataset, 0.3, seed=7, granularity="paragraph")
        pre_ids = set(split.pre_eval.ids)
        for paragraph in small_dataset.paragraphs:
            ids = {item.id for item in paragraph.items}
            assert ids <= pre_ids or ids.isdisjoint(pre_ids)

    def test_item_order_is_preserved(self, small_dataset):
        split = split_pre_eval(small_dataset, 0.5, seed=11)
        original = list(small_dataset.ids)
        assert list(split.train.ids) == [i for i in original if i in set(split.train.ids)]
        assert list(split.pre_eval.ids) == [i for i in original if i in set(split.pre_eval.ids)]

    def test_manifest_round_trip(self, tmp_path, small_dataset):
        split = split_pre_eval(small_dataset, 0.2, seed=5, granularity="paragraph")
        path = tmp_path / "manifest.json"
        save_split_manifest(split, path)
        m = json.loads(path.read_text(encoding="utf-8"))
        rebuilt = split_pre_eval(small_dataset, m["fraction"], m["seed"], m["granularity"])
        assert list(rebuilt.pre_eval.ids) == m["pre_eval_ids"]
        assert rebuilt.pre_eval.ids == split.pre_eval.ids
        assert rebuilt.train.ids == split.train.ids
        assert rebuilt.granularity is Granularity.PARAGRAPH


class TestReadJson:
    """Every input file is parsed by ``read_json``; a file it cannot decode is a
    SchemaError naming the file."""

    @pytest.mark.parametrize(
        "content, reason",
        [(b"{broken", "Expecting property name"),
         (b"\xff\xfe{}", "can't decode byte 0xff"),
         (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
         (b'{"q1": "Paris", "q1": "London"}', "duplicate key 'q1'"),
         (b'{"a": [{"k": 1, "k": 2}]}', "duplicate key 'k'"),
         (b'{"q1": ["ok", "\\ud800"]}', "lone surrogate in the string at $.q1[1]"),
         (b'{"q1": {"\\uDFFF": 1}}', "lone surrogate in a key of $.q1"),
         (b'["\\udc00\\ud83d"]', "lone surrogate in the string at $[0]")],
        ids=["invalid-json", "invalid-utf8", "deep-nesting", "duplicate-key", "nested-duplicate-key",
             "lone-surrogate", "lone-surrogate-key", "swapped-surrogate-pair"],
    )
    def test_decode_failure_is_one_schema_error(self, tmp_path, content, reason):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as excinfo:
            corpus.read_json(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: not valid JSON: ") and reason in message

    def test_surrogate_pair_escape_is_one_character(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b'{"q1": "\\ud83d\\ude00", "q2": "\\\\ud800"}')
        assert corpus.read_json(path) == {"q1": "\U0001F600", "q2": "\\ud800"}

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.one_of(
        st.sampled_from(["\\ud800", "\\\\ud", "\\uD", "\\u", "\\", "u", "d", "D", "é", "中",
                         '"', "\\u00e9", "\ud800"]),
        st.characters()), max_size=12).map("".join))
    def test_pre_check_is_the_two_substring_tests(self, text):
        """``read_json`` walks a document for lone surrogates only if its text holds
        ``\\ud`` or ``\\uD``; one regex search decides the same for any text."""
        expected = "\\ud" in text or "\\uD" in text
        assert bool(corpus._SURROGATE_ESCAPE.search(text)) is expected


class TestLoadJson:
    """Every loader decodes through ``load_json``: a schema error names the file
    and the JSON path."""

    @pytest.mark.parametrize(
        "load, payload, field, bad, kind",
        [(load_rules, [{"pattern": "x", "class": "whose", "priority": 1}], "$[0].class",
          "whose", QuestionClass),
         (load_weights, {"models": ["a"], "metric_basis": "f1", "global": {"a": 0.5},
                         "classes": {}, "best_overall": "a"}, "$.metric_basis", "f1",
          MetricBasis),
         (load_profile, {"per_class": {}, "corruption": ["random_span"], "seed": 1},
          "$.corruption", ["random_span"], Corruption)],
        ids=["rule-class", "weights-basis", "profile-corruption"],
    )
    def test_enum_field_lists_its_values(self, tmp_path, load, payload, field, bad, kind):
        path = write_json(tmp_path, "input.json", payload)
        with pytest.raises(SchemaError) as excinfo:
            load(path)
        values = [member.value for member in kind]
        assert str(excinfo.value) == f"{path}: field {field} must be one of {values}, got {bad!r}"


_JSON_TEXT = st.lists(
    st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "/", "é", "中",
                               "\U0001F600"]),
              st.characters(blacklist_categories=("Cs",))),
    max_size=6,
).map("".join)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _JSON_TEXT, st.floats(),
    st.sampled_from([0.1, 1e-05, 1e16, -0.0, float("nan"), float("inf"), float("-inf")]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=24,
)


class TestWriteJsonBytes:
    """Compact output goes through ``json.dumps``, the C encoder; the file must be
    the same bytes as the streaming ``json.dump`` it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES)
    def test_same_bytes_as_streaming_dump(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("write_json") / "out.json"
        for indent in (None, 1):
            streamed = io.StringIO()
            json.dump(value, streamed, ensure_ascii=False, indent=indent)
            corpus.write_json(value, path, indent=indent)
            assert path.read_bytes() == (streamed.getvalue() + "\n").encode("utf-8")


class TestAtomicWrites:
    """A failed write leaves the previous file byte-identical and no temporary file."""

    @pytest.fixture()
    def target(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"GOOD\n")
        return path

    @staticmethod
    def assert_untouched(path):
        assert path.read_bytes() == b"GOOD\n"
        assert sorted(p.name for p in path.parent.glob("*.tmp")) == []

    def test_save_traces_failing_midway(self, target):
        def traces():
            yield ensemble_vote({"m": "x"}, "what", table_for({"m": 0.5}, {"m": 0.5}))
            raise RuntimeError("vote failed")

        with pytest.raises(RuntimeError, match="vote failed"):
            save_traces(traces(), target)
        self.assert_untouched(target)

    def test_write_json_of_unserializable_value(self, target):
        with pytest.raises(TypeError):
            corpus.write_json({"ok": 1, "bad": object()}, target)
        self.assert_untouched(target)

    def test_cli_ensemble_whose_trace_write_fails(self, tmp_path, target, monkeypatch):
        dataset_path = write_json(tmp_path, "corpus.json", make_squad_dict(uniform_counts(2)))
        golds = {item.id: item.gold_answers[0] for item in load_dataset(dataset_path).items}
        preds = []
        for name in ("a", "b"):
            path = write_json(tmp_path, f"{name}.json", golds)
            preds += ["--preds", f"{name}={path}"]
        weights = tmp_path / "weights.json"
        assert main(["weights", "--pre-eval", str(dataset_path), *preds, "--out", str(weights)]) == 0
        out = tmp_path / "ensemble.json"
        manifest = tmp_path / "ensemble.json.manifest.json"
        manifest.write_bytes(b"GOOD\n")

        calls = []
        real_atomic_write = voting.atomic_write

        @contextmanager
        def fail_on_second_line(path):  # save_traces writes each line with one write call
            with real_atomic_write(path) as fh:
                write = fh.write

                def write_line(text):
                    calls.append(text)
                    if len(calls) == 2:
                        raise RuntimeError("disk full")
                    return write(text)

                fh.write = write_line
                yield fh

        monkeypatch.setattr(voting, "atomic_write", fail_on_second_line)
        rc = main(["ensemble", "--dataset", str(dataset_path), *preds, "--weights", str(weights),
                   "--out", str(out), "--trace", str(target)])
        assert rc == 1
        assert len(calls) == 2
        self.assert_untouched(target)
        self.assert_untouched(manifest)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_fresh_file_mode_follows_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            save_predictions(PredictionSet("m", {"q": "a"}), tmp_path / "preds.json")
        finally:
            os.umask(previous)
        mode = os.stat(tmp_path / "preds.json").st_mode & 0o777
        assert mode == os.stat(tmp_path / "reference").st_mode & 0o777 == 0o666 & ~umask


class TestOneDatasetShape:
    def test_datasets_are_built_only_by_the_decoder_and_subset(self):
        def is_dataset(func):
            return isinstance(func, ast.Name) and func.id == "Dataset"

        assert package_calls(is_dataset) == {("corpus", "dataset_from_squad_dict"),
                                             ("corpus", "subset")}

    def test_loaded_and_split_datasets_are_built_by_the_constructor(self, tmp_path, monkeypatch):
        save_dataset(make_dataset(uniform_counts(2)), tmp_path / "d.json")
        built, init = [], Dataset.__init__

        def spy(self, paragraphs):
            init(self, paragraphs)
            built.append(self)

        monkeypatch.setattr(Dataset, "__init__", spy)
        dataset = load_dataset(tmp_path / "d.json")
        split = split_pre_eval(dataset, 0.5, 3)
        assert [id(d) for d in built] == [id(dataset), id(split.pre_eval), id(split.train)]


class TestOneReaderOneWriter:
    """Only ``read_json`` parses an input file and only ``atomic_write`` opens one:
    the package's one reader and one writer."""

    calls = staticmethod(package_calls)

    def test_json_is_parsed_only_by_read_json(self):
        def is_json_parse(func):
            return (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                    and isinstance(func.value, ast.Name) and func.value.id == "json")

        assert self.calls(is_json_parse) == {("corpus", "read_json")}

    def test_read_json_is_called_only_by_load_json(self):
        def is_read_json(func):
            return isinstance(func, ast.Name) and func.id == "read_json"

        assert self.calls(is_read_json) == {("corpus", "load_json")}

    def test_files_are_opened_only_by_read_json_and_atomic_write(self):
        def is_open(func):
            return isinstance(func, ast.Name) and func.id == "open"

        assert self.calls(is_open) == {("corpus", "read_json"), ("corpus", "atomic_write")}

    def test_gc_is_paused_only_by_cli_main(self):
        def is_gc_disable(func):
            return (isinstance(func, ast.Attribute) and func.attr == "disable"
                    and isinstance(func.value, ast.Name) and func.value.id == "gc")

        assert self.calls(is_gc_disable) == {("cli", "main")}

    def test_no_streaming_json_dump(self):
        """Every JSON file is one ``json.dumps`` string: ``json.dump`` streams
        through the pure-Python encoder, which ``TestWriteJsonBytes`` and the
        report writer's own test pin the bytes of."""
        def is_json_dump(func):
            return (isinstance(func, ast.Attribute) and func.attr == "dump"
                    and isinstance(func.value, ast.Name) and func.value.id == "json")

        assert self.calls(is_json_dump) == set()

    def test_no_other_file_access(self):
        def is_path_io(func):
            return isinstance(func, ast.Attribute) and func.attr in (
                "open", "read_text", "read_bytes", "write_text", "write_bytes")

        assert self.calls(is_path_io) == set()


@st.composite
def _datasets_and_keeps(draw):
    """A checked Dataset and ids to keep, some of them not in the dataset."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=6))
    serial = iter(range(sum(sizes)))
    paragraphs = tuple(
        Paragraph(f"p{p}", f"t{p % 2}", f"context {p}", tuple(
            QaItem(f"q{n}", f"question {n}?", ("gold",), (0,))
            for n in (next(serial) for _ in range(size))))
        for p, size in enumerate(sizes)
    )
    dataset = Dataset(paragraphs)
    keep = draw(st.sets(st.sampled_from([*dataset.ids, "absent"])))
    return dataset, keep


class TestSubset:
    @given(case=_datasets_and_keeps())
    @settings(max_examples=200, deadline=None)
    def test_subset_equals_a_checked_dataset_of_its_paragraphs(self, case):
        """``subset`` builds through the constructor, so what it builds passes every
        check; it holds exactly the kept questions, in order, in their own
        non-empty paragraphs."""
        dataset, keep = case
        subset = dataset.subset(keep)
        assert subset == Dataset(subset.paragraphs)
        assert subset.items == tuple(item for item in dataset.items if item.id in keep)
        assert len(subset) == len(subset.items) == len(keep - {"absent"})
        source = {paragraph.key: paragraph for paragraph in dataset.paragraphs}
        for paragraph in subset.paragraphs:
            assert paragraph.items
            assert paragraph._replace(items=()) == source[paragraph.key]._replace(items=())
        keys = [paragraph.key for paragraph in dataset.paragraphs]
        assert [p.key for p in subset.paragraphs] == sorted(
            (p.key for p in subset.paragraphs), key=keys.index)

    def test_a_dataset_built_by_a_caller_is_still_checked(self):
        item = QaItem("q", "question?", ("gold",), (0,))
        with pytest.raises(SchemaError, match="duplicate question ids: \\['q'\\]"):
            Dataset((Paragraph("p0", "", "context", (item, item)),))
        with pytest.raises(SchemaError, match="gold_answers is empty"):
            Dataset((Paragraph("p0", "", "context", (item._replace(gold_answers=()),)),))
        with pytest.raises(SchemaError, match="'q': gold_answers must be a tuple"):
            Dataset((Paragraph("p0", "", "context", (item._replace(gold_answers=["gold"]),)),))

    def test_a_paragraph_without_questions_is_rejected(self):
        """The decoder and ``subset`` drop such a paragraph, so a dataset holding one
        would not be its own subset."""
        item = QaItem("q", "question?", ("gold",), (0,))
        with pytest.raises(SchemaError, match="paragraph 'p0' has no questions"):
            Dataset((Paragraph("p0", "t", "c", ()), Paragraph("p1", "t", "c", (item,))))
