from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import QUESTION_TEMPLATES

from qavote import taxonomy
from qavote.corpus import Dataset, SchemaError
from qavote.taxonomy import (
    CLASS_LABELS,
    ClassRule,
    ClassRuleSet,
    LengthClassifier,
    QuestionClass,
    RuleError,
    class_distribution,
    load_rules,
    required_literal,
)


class TestClassify:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("When did the Normans invade England?", "when"),
            ("Which team won the championship?", "what"),
            ("Wh\u0131ch team won?", "what"),  # IGNORECASE folds the dotless i to i
            ("Was Tesla born in Europe?", "undefined"),
            ("How many students attend the university?", "how_much_many"),
            ("What time did the concert start?", "what_time"),
            ("On what date was the treaty signed?", "date"),
            ("What day did the battle begin?", "date"),
            ("How old was the composer?", "how_old"),
            ("How big is the lake?", "how_big_size"),
            ("What size is the engine?", "how_big_size"),
            ("How are diamonds formed?", "how_are"),
            ("How much did the bridge cost?", "how_much_many"),
            ("During which dynasty was it built?", "during"),
            ("During the war, who led the army?", "during"),
            ("To whom did Tesla sell the patents?", "whom"),
            ("Who discovered penicillin?", "who"),
            ("Where is the river delta?", "where"),
            ("Why did the colony fail?", "why"),
            ("In what year did it happen?", "what"),
            ("How did the fire start?", "undefined"),
            ("Name the first president.", "undefined"),
            ("", "undefined"),
        ],
    )
    def test_default_rule_assignments(self, rules, question, expected):
        assert rules(question) == expected

    def test_specificity_tie_goes_to_higher_priority(self, rules):
        # both "during ..." and "what" match; during carries higher priority
        assert rules("During what year did the empire fall?") == "during"
        assert rules("What time period saw the most growth?") == "what_time"

    def test_whom_not_swallowed_by_who(self, rules):
        assert rules("Whom did the committee select?") == "whom"

    def test_mid_sentence_during_needs_what_or_which(self, rules):
        # plain mid-sentence "during" must not steal the question
        assert rules("What happened during the siege?") == "what"

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_total_and_case_insensitive(self, rules, text):
        label = rules(text)
        assert label in CLASS_LABELS
        assert rules(text.upper()) == label

    def test_no_which_class_exists(self, rules):
        assert "which" not in CLASS_LABELS
        assert rules("Which option is correct?") == "what"

    def test_exactly_fourteen_classes(self):
        assert len(QuestionClass) == 14
        assert len(CLASS_LABELS) == 14


class TestRuleSet:
    def test_duplicate_priorities_rejected(self):
        rules = [
            ClassRule(r"\bwho\b", QuestionClass.WHO, 1),
            ClassRule(r"\bwhen\b", QuestionClass.WHEN, 1),
        ]
        with pytest.raises(RuleError, match="unique"):
            ClassRuleSet(rules)

    def test_rule_to_undefined_rejected(self):
        with pytest.raises(RuleError, match="undefined"):
            ClassRuleSet([ClassRule(r".*", QuestionClass.UNDEFINED, 1)])

    def test_json_round_trip(self, rules):
        rebuilt = ClassRuleSet.from_json(rules.to_json())
        assert rebuilt.to_json() == rules.to_json()

    def test_load_rules_file(self, tmp_path, rules):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules.to_json()), encoding="utf-8")
        loaded = load_rules(path)
        assert loaded("Who was it?") == "who"

    def test_load_rules_rejects_bad_file(self, tmp_path):
        good = {"pattern": r"\bwho\b", "class": "who", "priority": 2}
        cases = [
            ({}, SchemaError, "$ must be a list, got dict"),
            ([5], SchemaError, "$[0] must be an object, got int"),
            ([good, {"pattern": "(", "class": "what", "priority": 1}], RuleError,
             "bad rule at index 1: invalid pattern '('"),
            ([{"pattern": 5, "class": "what", "priority": 1}], SchemaError,
             "field $[0].pattern must be str, got int"),
            ([good, {"pattern": "x", "class": "what", "priority": None}], SchemaError,
             "field $[1].priority must be int, got NoneType"),
            ([good, {"pattern": "x", "class": "what", "priority": "7"}], SchemaError,
             "field $[1].priority must be int, got str"),
            ([good, {"pattern": "x", "class": "what", "priority": 2.9}], SchemaError,
             "field $[1].priority must be int, got float"),
            ([good, {"pattern": "x", "class": "what", "priority": True}], SchemaError,
             "field $[1].priority must be int, got bool"),
            ([good, {"pattern": "x", "priority": 1}], SchemaError,
             "missing required field at $[1].class"),
        ]
        path = tmp_path / "rules.json"
        for content, error, message in cases:
            path.write_text(json.dumps(content), encoding="utf-8")
            with pytest.raises(error) as excinfo:
                load_rules(path)
            assert str(excinfo.value).startswith(f"{path}: {message}")

    def test_default_rules_priorities_unique(self, rules):
        priorities = [r.priority for r in rules.rules]
        assert len(set(priorities)) == len(priorities)


_WORDS = ["what", "wha", "which", "time", "is", "sk"]
_PIECES = st.one_of(
    st.sampled_from(_WORDS),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from([" ", r"\s+", r"\s*"]),
              st.sampled_from(_WORDS)).map("".join),
    st.sampled_from([" ", r"\s+", r"\b", "^"]),
    st.sampled_from(["[a-z]", "[ks]", "[^a]", r"\w"]),
    st.tuples(st.sampled_from("tsikh"), st.sampled_from("?*")).map("".join),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map("({0[0]}|{0[1]})".format),
    st.tuples(st.sampled_from(["(?=", "(?!", "(?<=", "(?<!", "(?-i:"]),
              st.sampled_from(_WORDS)).map("{0[0]}{0[1]})".format),
)
_PATTERNS = st.tuples(st.sampled_from(["", "(?x)"]),
                      st.lists(_PIECES, min_size=1, max_size=4).map("".join)).map("".join)
# IGNORECASE folds these to ASCII letters: dotless i, dotted capital I, long s, Kelvin sign
_FOLDING = str.maketrans({"i": "\u0131", "I": "\u0130", "s": "\u017f", "k": "\u212a"})


@st.composite
def _patterns_and_questions(draw):
    """Rule patterns, and a question holding a run of the words they use, in their
    order, each as it is, in capitals or with a letter IGNORECASE folds, between
    other words and non-ASCII text."""
    patterns = draw(st.lists(_PATTERNS, min_size=1, max_size=4))
    used = re.findall("|".join(sorted(_WORDS, key=len, reverse=True)), "\n".join(patterns))
    start = draw(st.integers(0, len(used)))
    run = used[start:start + draw(st.integers(0, 3))]
    variants = [draw(st.sampled_from([word, word.upper(), word.translate(_FOLDING)]))
                for word in run]
    other = st.lists(st.sampled_from([*_WORDS, "\u0130s", "caf\u00e9", "stra\u00dfe", "?"]),
                     max_size=2)
    return patterns, " ".join([*draw(other), *variants, *draw(other)])


def _brute_force_label(rules, question):
    for rule in rules:  # listed in descending priority
        if re.search(rule.pattern, question, re.IGNORECASE):
            return rule.question_class.value
    return "undefined"


class TestPrefilter:
    """A rule is searched only when its required literal can be in the question;
    that skips rules, never changes a label."""

    @settings(max_examples=500, deadline=None)
    @given(case=_patterns_and_questions())
    @example(case=([r"\bwhich\b"], "Wh\u0131ch team won?"))
    @example(case=(["what?"], "wha"))
    @example(case=([r"what\s+time"], "what time"))
    def test_labels_equal_searching_every_rule(self, case):
        patterns, question = case
        labels = [c for c in QuestionClass if c is not QuestionClass.UNDEFINED]
        rules = [ClassRule(pattern, labels[i % len(labels)], -i)
                 for i, pattern in enumerate(patterns)]
        assert ClassRuleSet(rules)(question) == _brute_force_label(rules, question)

    def test_required_literal_of_every_default_rule(self, rules):
        """Pinned, in priority order: a parser whose output changed would otherwise
        silently turn the prefilter off (every literal ``""``)."""
        assert [required_literal(rule.pattern) for rule in rules.rules] == [
            "what", "what", "what", "what", "how", "how", "what", "how", "much", "many",
            "during", "during", "whom", "what", "which", "when", "why", "where", "who"]

    @pytest.mark.parametrize("pattern,literal", [
        ("what?", "wha"),
        (r"wh\s+time", "time"),
        ("(what)x", "x"),
        ("what|which", "wh"),
        ("(?x) wh at", "what"),
        ("(?-i:What)ab", "ab"),
        ("\u212aelvin", "elvin"),
        (r"\b\s*", ""),
    ])
    def test_a_run_ends_at_any_other_op(self, pattern, literal):
        assert required_literal(pattern) == literal

    # The three @example cases above, and a question of every class of the default rules.
    EXAMPLES = [([r"\bwhich\b"], "Wh\u0131ch team won?"), (["what?"], "wha"),
                ([r"what\s+time"], "what time")]
    QUESTIONS = [t.format(i=1) for t in QUESTION_TEMPLATES.values()] + [
        "Wh\u0131ch team won?", "WHAT TIME is it?", "Caf\u00e9: who owns it?", ""]

    def test_without_the_regex_parser_every_rule_is_searched(self, rules):
        """A Python where neither ``re._parser`` nor ``sre_parse`` imports: the
        module still loads, no rule has a literal and every label is the one
        searching every rule gives."""
        script = (
            "import json, re, sys\n"
            "del re._parser\n"  # ``from re import _parser`` would find the attribute
            "sys.modules['re._parser'] = sys.modules['sre_parse'] = None\n"
            "from qavote.taxonomy import ClassRule, ClassRuleSet, QuestionClass, "
            "default_rules, required_literal\n"
            "rules = default_rules()\n"
            "cases = json.loads(sys.stdin.read())\n"
            "labels = [rules(q) for q in cases['questions']]\n"
            "for patterns, question in cases['examples']:\n"
            "    labels.append(ClassRuleSet([ClassRule(p, QuestionClass.WHO, -i)\n"
            "                                for i, p in enumerate(patterns)])(question))\n"
            "print(json.dumps({'labels': labels,\n"
            "                  'literals': [required_literal(r.pattern) for r in rules.rules]}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        cases = {"questions": self.QUESTIONS, "examples": self.EXAMPLES}
        proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases), env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["literals"] == [""] * len(rules.rules)
        expected = [_brute_force_label(rules.rules, q) for q in self.QUESTIONS] + [
            _brute_force_label([ClassRule(p, QuestionClass.WHO, -i) for i, p in enumerate(ps)], q)
            for ps, q in self.EXAMPLES]
        assert result["labels"] == expected
        assert "who" in expected and "undefined" in expected  # the cases reach both outcomes

    def test_a_parser_that_fails_gives_no_literal(self, rules, monkeypatch):
        def fail(*_):
            raise TypeError("parse() changed")

        monkeypatch.setattr(taxonomy, "_regex_parser", SimpleNamespace(parse=fail, LITERAL=None))
        assert required_literal(r"\bwhat\b") == ""
        searched = ClassRuleSet(rules.rules)
        assert [searched(q) for q in self.QUESTIONS] == [
            _brute_force_label(rules.rules, q) for q in self.QUESTIONS]


class TestClassifyByLength:
    @pytest.mark.parametrize(
        "question,edges,expected",
        [
            ("How old is she", [5, 10], 0),
            ("one two three four five six seven eight nine ten eleven twelve", [5, 10], 2),
            ("", [5], 0),
            ("a b c d e", [5, 10], 1),  # count 5 is not < 5, lands in bucket 1
        ],
    )
    def test_bucketing(self, question, edges, expected):
        assert LengthClassifier(edges)(question) == f"len_{expected}"

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            LengthClassifier([])

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ValueError):
            LengthClassifier([5, 5])

    def test_equality_follows_the_edges(self):
        assert LengthClassifier([6, 9]) == LengthClassifier((6, 9))
        assert LengthClassifier([6, 9]) != LengthClassifier([6, 10])

    def test_length_classifier_labels(self):
        clf = LengthClassifier([6, 9, 12])
        assert clf.labels == ("len_0", "len_1", "len_2", "len_3")
        assert clf("short question") == "len_0"
        assert clf(" ".join(["w"] * 20)) == "len_3"
        assert "undefined" not in clf.labels


class TestDistribution:
    def test_counts_sum_to_total(self, rules, small_dataset):
        hist = class_distribution(small_dataset, rules)
        assert sum(hist.counts.values()) == hist.total == len(small_dataset)
        # the synthetic corpus has 4 questions per class by construction
        assert all(hist.counts[label] == 4 for label in CLASS_LABELS)

    def test_empty_dataset(self, rules):
        empty = Dataset(())
        hist = class_distribution(empty, rules)
        assert hist.total == 0
        assert all(count == 0 for count in hist.counts.values())
        assert hist.share("what") == 0.0

    def test_length_based_distribution(self, small_dataset):
        clf = LengthClassifier([6, 9])
        hist = class_distribution(small_dataset, clf)
        assert sum(hist.counts.values()) == hist.total
        assert set(hist.counts) <= set(clf.labels)
