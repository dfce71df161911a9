"""Answer normalization, per-question EM / token-F1, and report aggregation.

Normalization lowercases, strips punctuation characters (Unicode P*
categories plus every ASCII punctuation character, so behaviour on ASCII
text matches the community-standard evaluation script), drops the articles
"a", "an", "the" as whole tokens, and splits on whitespace. Punctuation is
deleted by one ``str.translate`` call through a table that classifies each
code point the first time any text contains it and remembers the answer.

Both metrics take the maximum over all gold answers. They share one token
path: a scoring call normalizes the prediction and each gold once, and one
comparison of the token lists yields both EM and F1 (``score_pair``; ``em``
and ``token_f1`` are its two halves). One deliberate edge: a prediction and
gold that both normalize to nothing score em=True, f1=1.0, keeping the
``em implies f1 == 1`` invariant.

``evaluate`` is the only place a question is scored. Its ``EvalReport``
keeps each question's class label next to its score, so per-class
statistics over several models (weights, pair comparisons) aggregate
reports and never score or classify again.
"""
from __future__ import annotations

import enum
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .corpus import Dataset, PredictionSet, atomic_write, write_json

_ARTICLES = frozenset({"a", "an", "the"})


class _PunctuationTable(dict):
    """``str.translate`` table deleting ASCII and Unicode P* punctuation.

    Filled one code point at a time, the first time ``translate`` meets it:
    building it for every code point up front would cost each command about
    a third of a second at import.
    """

    def __missing__(self, code_point: int) -> int | None:
        ch = chr(code_point)
        drop = ch in string.punctuation or unicodedata.category(ch).startswith("P")
        value = self[code_point] = None if drop else code_point
        return value


_PUNCTUATION_TABLE = _PunctuationTable()


def normalize_answer(text: str) -> list[str]:
    """Normalized token list: lowercased, punctuation and articles removed."""
    cleaned = text.lower().translate(_PUNCTUATION_TABLE)
    return [tok for tok in cleaned.split() if tok not in _ARTICLES]


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return (2 * precision * recall) / (precision + recall)


def _score_tokens(
    pred_tokens: list[str], gold_token_lists: list[list[str]]
) -> tuple[float, bool]:
    """(f1, em) of normalized tokens; an exact match has F1 exactly 1.0."""
    if pred_tokens in gold_token_lists:
        return 1.0, True
    return max(_f1_single(pred_tokens, gold) for gold in gold_token_lists), False


def score_pair(prediction: str, golds: Sequence[str]) -> tuple[float, bool]:
    """(token_f1, em) for one prediction against its golds."""
    if not golds:
        raise ValueError("golds must be non-empty")
    return _score_tokens(normalize_answer(prediction), [normalize_answer(g) for g in golds])


def em(prediction: str, golds: Sequence[str]) -> bool:
    """True iff the normalized prediction equals some normalized gold."""
    return score_pair(prediction, golds)[1]


def token_f1(prediction: str, golds: Sequence[str]) -> float:
    """Max over golds of the token-multiset F1 between prediction and gold."""
    return score_pair(prediction, golds)[0]


class MissingPolicy(str, enum.Enum):
    """How to score dataset questions absent from a prediction set."""

    SCORE_AS_EMPTY = "score_as_empty"  # treat as an empty-string prediction
    EXCLUDE = "exclude"  # drop from the report entirely

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class QuestionScore:
    id: str
    f1: float
    em: bool

    def __post_init__(self):
        if not 0.0 <= self.f1 <= 1.0:
            raise ValueError(f"f1 out of range for {self.id!r}: {self.f1}")
        if self.em and self.f1 != 1.0:
            raise ValueError(f"em=True with f1={self.f1} for {self.id!r}")


@dataclass(frozen=True)
class ClassStats:
    mean_f1: float
    em_rate: float
    count: int


@dataclass(frozen=True)
class EvalReport:
    """Per-question scores with per-class and overall aggregates.

    ``labels`` maps each scored question id to its class label, in dataset
    order. It is what the aggregates were built from and is not serialized.
    """

    per_question: dict[str, QuestionScore]
    per_class: dict[str, ClassStats]
    overall: ClassStats
    model: str = ""
    missing_policy: MissingPolicy = MissingPolicy.SCORE_AS_EMPTY
    labels: dict[str, str] = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "missing_policy": self.missing_policy.value,
            "overall": {
                "mean_f1": self.overall.mean_f1,
                "em_rate": self.overall.em_rate,
                "count": self.overall.count,
            },
            "per_class": {
                label: {"mean_f1": s.mean_f1, "em_rate": s.em_rate, "count": s.count}
                for label, s in self.per_class.items()
            },
            "per_question": {
                qid: {"f1": score.f1, "em": score.em}
                for qid, score in sorted(self.per_question.items())
            },
        }


def report_from_scores(
    scores: Mapping[str, QuestionScore],
    labels_by_id: Mapping[str, str],
    model: str = "",
    missing_policy: MissingPolicy = MissingPolicy.SCORE_AS_EMPTY,
) -> EvalReport:
    """Aggregate per-question scores into an EvalReport.

    Aggregation order is fixed (sorted question ids), so reports are
    identical however the scores were produced. The report keeps the labels
    of the scored questions in ``labels_by_id`` order.
    """
    per_class_scores: dict[str, list[QuestionScore]] = {}
    for qid in sorted(scores):
        per_class_scores.setdefault(labels_by_id[qid], []).append(scores[qid])

    def stats(bucket: list[QuestionScore]) -> ClassStats:
        n = len(bucket)
        if n == 0:
            return ClassStats(mean_f1=0.0, em_rate=0.0, count=0)
        return ClassStats(
            mean_f1=sum(s.f1 for s in bucket) / n,
            em_rate=sum(1 for s in bucket if s.em) / n,
            count=n,
        )

    per_class = {label: stats(bucket) for label, bucket in sorted(per_class_scores.items())}
    return EvalReport(
        per_question=dict(scores),
        per_class=per_class,
        overall=stats([scores[qid] for qid in sorted(scores)]),
        model=model,
        missing_policy=missing_policy,
        labels={qid: label for qid, label in labels_by_id.items() if qid in scores},
    )


def evaluate(
    predictions: PredictionSet,
    dataset: Dataset,
    classifier: Callable[[str], str],
    missing_policy: MissingPolicy | str = MissingPolicy.SCORE_AS_EMPTY,
) -> EvalReport:
    """Score a prediction set against a dataset, bucketed by question class.

    Questions absent from ``predictions`` are scored as empty-string
    predictions or excluded, per ``missing_policy``.
    """
    missing_policy = MissingPolicy(missing_policy)
    answers = predictions.answers
    scores: dict[str, QuestionScore] = {}
    labels: dict[str, str] = {}
    for item in dataset.items:
        prediction = answers.get(item.id)
        if prediction is None:
            if missing_policy is MissingPolicy.EXCLUDE:
                continue
            prediction = ""
        f1, em_flag = score_pair(prediction, item.gold_answers)
        scores[item.id] = QuestionScore(id=item.id, f1=f1, em=em_flag)
        labels[item.id] = classifier(item.question)
    return report_from_scores(
        scores, labels, model=predictions.model_name, missing_policy=missing_policy
    )


def save_report_json(reports: Mapping[str, EvalReport], path) -> None:
    """Write ``{model name: report}`` for any number of models."""
    write_json({name: r.to_json_dict() for name, r in reports.items()}, path, indent=1)


def save_report_csv(table: str, path) -> None:
    """Write a CSV table (``analysis.eval_breakdown_csv``) as it is."""
    with atomic_write(path) as fh:
        fh.write(table)
