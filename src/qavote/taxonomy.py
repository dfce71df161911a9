"""Rule-based question classification.

Each question is assigned exactly one of fourteen classes: thirteen classes
anchored on question phrases ("what time", "how many", "whom", ...) plus an
``undefined`` fallback for questions that match no phrase. Rules are matched
case-insensitively anywhere in the question; when several rules match, the
highest-priority rule wins, so specific phrases ("what time") must outrank
the generic ones ("what"). "which" questions are folded into ``what``.
A rule set remembers the label of each question text it has classified, so
the stages of one command match each question against the rules once.

A word-count-based alternative classifier is provided for experiments that
bucket questions by length instead of by phrase.
"""
from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import read_json


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

    def __str__(self) -> str:  # so f-strings print "what", not "QuestionClass.WHAT"
        return self.value


#: Canonical label order used by reports and exports.
CLASS_LABELS: tuple[str, ...] = tuple(c.value for c in QuestionClass)

UNDEFINED = QuestionClass.UNDEFINED.value


@dataclass(frozen=True)
class ClassRule:
    pattern: str
    question_class: QuestionClass
    priority: int

    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, re.IGNORECASE)


class RuleError(ValueError):
    """Raised for an invalid rule file or rule list."""


class ClassRuleSet:
    """An ordered, immutable set of classification rules.

    Rules are checked in descending priority; the first match decides the
    class. Questions matching no rule are ``undefined``. Instances are
    callable: ``rules(question) -> str label``.

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
        self._compiled = tuple((pattern, rule.question_class) for rule, pattern in compiled)
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
            for pattern, question_class in self._compiled:
                if pattern.search(question):
                    label = question_class.value
                    break
            self._labels_by_question[question] = label
        return label

    def __call__(self, question: str) -> str:
        return self.classify(question)

    def __len__(self) -> int:
        return len(self._rules)

    def to_json(self) -> list[dict]:
        return [
            {"pattern": r.pattern, "class": r.question_class.value, "priority": r.priority}
            for r in self._rules
        ]

    @classmethod
    def from_json(cls, entries: list[dict]) -> "ClassRuleSet":
        rules = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise RuleError(
                    f"bad rule entry at index {i}: must be an object, "
                    f"got {type(entry).__name__}"
                )
            if not isinstance(entry.get("pattern"), str):
                raise RuleError(f"bad rule entry at index {i}: 'pattern' must be a string")
            priority = entry.get("priority")
            if not isinstance(priority, int) or isinstance(priority, bool):
                raise RuleError(
                    f"bad rule entry at index {i}: 'priority' must be an int, "
                    f"got {type(priority).__name__}"
                )
            try:
                rules.append(
                    ClassRule(
                        pattern=entry["pattern"],
                        question_class=QuestionClass(entry["class"]),
                        priority=priority,
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise RuleError(f"bad rule entry at index {i}: {exc}") from exc
        return cls(rules)


def load_rules(path: str | Path) -> ClassRuleSet:
    """Load a rule file (JSON list of {pattern, class, priority})."""
    entries = read_json(path)
    if not isinstance(entries, list):
        raise RuleError(f"{path}: rule file must be a JSON list")
    return ClassRuleSet.from_json(entries)


def default_rules() -> ClassRuleSet:
    """The rule set shipped with the package."""
    return ClassRuleSet.from_json(
        read_json(Path(__file__).with_name("data") / "default_rules.json")
    )


def question_length(question: str) -> int:
    """Question length in words (whitespace tokens after trimming)."""
    return len(question.split())


class LengthClassifier:
    """Length-bucket classifier exposing the same callable surface as rules.

    Emits labels ``len_0``, ..., ``len_<k>`` for k = len(edges) buckets plus
    the overflow bucket: a question's bucket is the index of the first edge
    strictly greater than its word count, and a count at or past the last
    edge lands in bucket ``len_<k>``. It never emits ``undefined``, so the
    voting fallback for undefined questions stays inert under length
    classification.
    """

    def __init__(self, bucket_edges: Iterable[int]):
        self.edges = tuple(bucket_edges)
        if not self.edges:
            raise ValueError("bucket_edges must be non-empty")
        if any(b >= a for a, b in zip(self.edges[1:], self.edges)):
            raise ValueError("bucket_edges must be strictly increasing")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"len_{i}" for i in range(len(self.edges) + 1))

    def __call__(self, question: str) -> str:
        return f"len_{bisect_right(self.edges, question_length(question))}"


@dataclass(frozen=True)
class ClassHistogram:
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
