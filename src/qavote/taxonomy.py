"""Rule-based question classification.

Each question is assigned exactly one of fourteen classes: thirteen classes
anchored on question phrases ("what time", "how many", "whom", ...) plus an
``undefined`` fallback for questions that match no phrase. Rules are matched
case-insensitively anywhere in the question; when several rules match, the
highest-priority rule wins, so specific phrases ("what time") must outrank
the generic ones ("what"). "which" questions are folded into ``what``.
A rule set remembers the label of each question text it has classified, so
the stages of one command match each question against the rules once.

A rule matches when ``re.search(pattern, question, re.IGNORECASE)`` does.
Each rule also keeps its required literal: the longest run of plain ASCII
characters at the top level of its pattern, which every match contains. An
ASCII question is searched only with the rules whose literal its lowercased
text holds; a non-ASCII one is searched with every rule, because
IGNORECASE folds ``ı``, ``İ``, ``ſ`` and the Kelvin sign to ASCII letters.

A word-count-based alternative classifier is provided for experiments that
bucket questions by length instead of by phrase.
"""
from __future__ import annotations

import enum
import re
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, NamedTuple

try:
    from re import _parser as _regex_parser  # Python 3.11+
except ImportError:
    try:
        import sre_parse as _regex_parser  # Python 3.10
    except ImportError:  # a Python with neither: every rule is searched
        _regex_parser = None

from .corpus import SchemaError, _Frozen, _require, load_json


class QuestionClass(str, enum.Enum):
    """The fourteen question classes, in report row order (alphabetical).

    Values double as stable string labels.
    """

    DATE = "date"
    DURING = "during"
    HOW_ARE = "how_are"
    HOW_BIG_SIZE = "how_big_size"
    HOW_MUCH_MANY = "how_much_many"
    HOW_OLD = "how_old"
    UNDEFINED = "undefined"
    WHAT = "what"
    WHAT_TIME = "what_time"
    WHEN = "when"
    WHERE = "where"
    WHO = "who"
    WHOM = "whom"
    WHY = "why"


#: Canonical label order used by reports and exports.
CLASS_LABELS: tuple[str, ...] = tuple(c.value for c in QuestionClass)

UNDEFINED = QuestionClass.UNDEFINED.value


class ClassRule(NamedTuple):
    pattern: str
    question_class: QuestionClass
    priority: int

    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, re.IGNORECASE)


def required_literal(pattern: str) -> str:
    """The longest run of consecutive top-level ASCII literals in ``pattern``,
    lowercased (the first of equal runs), or ``""`` if it has none.

    Any other op ends a run (``\\b``, ``\\s+``, a repeat, a group, a branch, a
    class), so every match of the pattern contains the run. For an ASCII text,
    IGNORECASE matching on ASCII characters is equality after ``lower()``.

    The parser is the standard library's private one. Where it cannot be
    imported, or it fails on ``pattern``, the answer is ``""``: the rule is then
    searched on every question, which costs time and changes no label.
    """
    if _regex_parser is None:
        return ""
    best = run = ""
    try:
        for op, value in _regex_parser.parse(pattern, re.IGNORECASE):
            if op is _regex_parser.LITERAL and value < 128:
                run += chr(value)
                if len(run) > len(best):
                    best = run
            else:
                run = ""
    except Exception:  # a private API that changed; "" is always a safe answer
        return ""
    return best.lower()


class RuleError(ValueError):
    """Raised for a bad pattern, a repeated priority or a rule mapped to undefined."""


class ClassRuleSet:
    """An ordered, immutable set of classification rules.

    Rules are checked in descending priority; the first match decides the
    class. Questions matching no rule are ``undefined``. Instances are
    callable: ``rules(question) -> str label``.

    An ASCII question is searched only with the rules whose required literal
    (see ``required_literal``) its lowercased text contains; a rule it lacks
    cannot match it. A non-ASCII question is searched with every rule.

    Each instance remembers the label of every question it has classified,
    so a question is matched against the rules once however many stages
    (one evaluation per model, voting, synthesis) ask for its class. The
    rules never change after construction, so a remembered label cannot go
    stale; the memo holds one entry per distinct question text.
    """

    def __init__(self, rules: Iterable[ClassRule]):
        compiled = []
        for i, rule in enumerate(rules):
            try:
                compiled.append((rule, rule.compiled()))
            except re.error as exc:
                raise RuleError(
                    f"bad rule at index {i}: invalid pattern {rule.pattern!r}: {exc}"
                ) from exc
        compiled.sort(key=lambda pair: -pair[0].priority)
        ordered = [rule for rule, _ in compiled]
        priorities = [r.priority for r in ordered]
        if len(set(priorities)) != len(priorities):
            raise RuleError("rule priorities must be unique")
        for rule in ordered:
            if rule.question_class is QuestionClass.UNDEFINED:
                raise RuleError("no rule may map to 'undefined'; it is the fallback")
        self._rules = tuple(ordered)
        self._compiled = tuple((required_literal(rule.pattern), pattern, rule.question_class.value)
                               for rule, pattern in compiled)
        self._labels_by_question: dict[str, str] = {}

    @property
    def rules(self) -> tuple[ClassRule, ...]:
        return self._rules

    @property
    def labels(self) -> tuple[str, ...]:
        """Every label this classifier can emit (all fourteen classes)."""
        return CLASS_LABELS

    def classify(self, question: str) -> str:
        label = self._labels_by_question.get(question)
        if label is None:
            label = UNDEFINED
            folded = question.lower() if question.isascii() else None
            for literal, pattern, rule_label in self._compiled:
                if (folded is None or literal in folded) and pattern.search(question):
                    label = rule_label
                    break
            self._labels_by_question[question] = label
        return label

    __call__ = classify

    def to_json(self) -> list[dict]:
        return [
            {"pattern": r.pattern, "class": r.question_class.value, "priority": r.priority}
            for r in self._rules
        ]

    @classmethod
    def from_json(cls, entries: list[dict]) -> "ClassRuleSet":
        """Rule set from a parsed rule file; nothing is coerced, and a field of
        the wrong type raises SchemaError naming its JSON path."""
        if not isinstance(entries, list):
            raise SchemaError(f"$ must be a list, got {type(entries).__name__}")
        return cls(
            ClassRule(
                pattern=_require(entry, "pattern", f"$[{i}]", str),
                question_class=_require(entry, "class", f"$[{i}]", QuestionClass),
                priority=_require(entry, "priority", f"$[{i}]", int),
            )
            for i, entry in enumerate(entries)
        )


def load_rules(path: str | Path) -> ClassRuleSet:
    """Load a rule file (JSON list of {pattern, class, priority})."""
    return load_json(path, ClassRuleSet.from_json)


def default_rules() -> ClassRuleSet:
    """The rule set shipped with the package."""
    return load_rules(Path(__file__).with_name("data") / "default_rules.json")


def question_length(question: str) -> int:
    """Question length in words (whitespace tokens after trimming)."""
    return len(question.split())


class LengthClassifier(_Frozen):
    """Length-bucket classifier exposing the same callable surface as rules.

    Emits labels ``len_0``, ..., ``len_<k>`` for k = len(edges) buckets plus
    the overflow bucket: a question's bucket is the index of the first edge
    strictly greater than its word count, and a count at or past the last
    edge lands in bucket ``len_<k>``. It never emits ``undefined``, so the
    voting fallback for undefined questions stays inert under length
    classification. Its ``edges`` are checked when built and cannot be
    reassigned; two classifiers with equal edges are equal.
    """

    __slots__ = _compared = _init_args = ("edges",)

    def __init__(self, bucket_edges: Iterable[int]):
        edges = tuple(bucket_edges)
        if not edges:
            raise ValueError("bucket_edges must be non-empty")
        if any(type(edge) is bool or not isinstance(edge, int) for edge in edges):
            raise ValueError(f"bucket_edges must be ints, got {list(edges)}")
        if any(b >= a for a, b in zip(edges[1:], edges)):
            raise ValueError("bucket_edges must be strictly increasing")
        self._set(edges)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"len_{i}" for i in range(len(self.edges) + 1))

    def __call__(self, question: str) -> str:
        return f"len_{bisect_right(self.edges, question_length(question))}"


class ClassHistogram(NamedTuple):
    """Per-class question counts; counts always sum to total."""

    counts: dict[str, int]
    total: int

    def share(self, label: str) -> float:
        """Fraction of questions in ``label`` (0.0 for an empty histogram)."""
        if self.total == 0:
            return 0.0
        return self.counts.get(label, 0) / self.total


def class_distribution(dataset, classifier) -> ClassHistogram:
    """Histogram of ``dataset`` items over the classifier's labels.

    ``classifier`` is a ClassRuleSet, LengthClassifier, or any callable
    mapping question text to a label. Labels the classifier can emit but
    that occur zero times are present with count 0.
    """
    labels = getattr(classifier, "labels", ())
    counts: dict[str, int] = {label: 0 for label in labels}
    for item in dataset.items:
        label = classifier(item.question)
        counts[label] = counts.get(label, 0) + 1
    return ClassHistogram(counts=counts, total=len(dataset.items))
