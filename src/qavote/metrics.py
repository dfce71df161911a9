"""Answer normalization, per-question EM / token-F1, and report aggregation.

Normalization lowercases, strips punctuation characters (Unicode P*
categories plus every ASCII punctuation character, so behaviour on ASCII
text matches the community-standard evaluation script), drops the articles
"a", "an", "the" as whole tokens, and splits on whitespace. Punctuation is
deleted by one ``str.translate`` call through a table that classifies each
code point the first time any text contains it and remembers the answer.

Both metrics take the maximum over all gold answers. They share one token
path: a scoring call normalizes the prediction and each gold once, and one
comparison of the token lists yields both EM and F1 (``score_pair``). One
deliberate edge: a prediction and gold that both normalize to nothing score
em=True, f1=1.0, keeping the ``em implies f1 == 1`` invariant.

``evaluate`` is the only place a question is scored. Each question of its
``EvalReport`` is one ``QuestionScore(label, f1, em)``, so per-class
statistics over several models (weights, pair comparisons) aggregate
reports and never score or classify again. A score depends on nothing but
the answer and the question's gold tuple, so models scored together share a
``ScoreMemo``: each gold tuple is normalized once and each (answer, gold
tuple) pair scored once. One model alone scores without one, since keeping
every score it will never look up again made it slower.

``save_report_json`` writes the bytes of ``json.dump(..., indent=1)``, whose
pure-Python indented encoder is slow on the per-question block: that block
is built from one C-encoded string per column instead.
"""
from __future__ import annotations

import enum
import json
from collections import Counter
from json.encoder import encode_basestring
from typing import Callable, Mapping, NamedTuple, Sequence

from .corpus import Dataset, PredictionSet, _Frozen, atomic_write

_ARTICLES = frozenset({"a", "an", "the"})


class _PunctuationTable(dict):
    """``str.translate`` table deleting ASCII and Unicode P* punctuation.

    Filled one code point at a time, the first time ``translate`` meets it:
    building it for every code point up front would cost each command about
    a third of a second at import.
    """

    def __missing__(self, code_point: int) -> int | None:
        import string, unicodedata  # here: a command that normalizes no text never pays

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
    if set(pred_tokens).isdisjoint(gold_tokens):  # no shared token: no Counters to build
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
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
    """(f1, em) for one prediction: token F1 and exact match, each the best over the golds."""
    if not golds:
        raise ValueError("golds must be non-empty")
    return _score_tokens(normalize_answer(prediction), [normalize_answer(g) for g in golds])


class ScoreMemo:
    """Scores kept across ``evaluate`` calls: each gold tuple's normalized
    tokens and each (answer, gold tuple) pair's ``(f1, em)``. Pass one to the
    ``evaluate`` call of every model scored together. Valid for any dataset:
    a score depends on nothing but the answer and the golds."""

    __slots__ = ("_gold_tokens", "_scores")

    def __init__(self):
        self._gold_tokens: dict[tuple[str, ...], list[list[str]]] = {}
        self._scores: dict[tuple[str, tuple[str, ...]], tuple[float, bool]] = {}

    def score(self, prediction: str, golds: tuple[str, ...]) -> tuple[float, bool]:
        """``score_pair(prediction, golds)``, computed once per pair."""
        key = (prediction, golds)
        score = self._scores.get(key)
        if score is None:
            tokens = self._gold_tokens.get(golds)
            if tokens is None:
                tokens = self._gold_tokens[golds] = [normalize_answer(g) for g in golds]
            score = self._scores[key] = _score_tokens(normalize_answer(prediction), tokens)
        return score


class MissingPolicy(str, enum.Enum):
    """How to score dataset questions absent from a prediction set."""

    SCORE_AS_EMPTY = "score_as_empty"  # treat as an empty-string prediction
    EXCLUDE = "exclude"  # drop from the report entirely


class QuestionScore(NamedTuple):
    """One scored question: its class label, token F1 and exact match."""

    label: str
    f1: float
    em: bool


class ClassStats(NamedTuple):
    mean_f1: float
    em_rate: float
    count: int


class EvalReport(_Frozen):
    """Per-question scores (its own copy, in the given order) and the per-class
    (by sorted label) and overall aggregates computed from them over the sorted
    ids, so a report is the same however its scores were produced. An f1 that
    is no int or float within [0, 1], an em that is no ``bool``, or an exact
    match with f1 below 1.0 raises ValueError naming its question id."""

    __slots__ = ("per_question", "model", "missing_policy", "per_class", "overall")
    _compared = _init_args = ("per_question", "model", "missing_policy")

    def __init__(self, per_question: Mapping[str, QuestionScore], model: str = "",
                 missing_policy: MissingPolicy | str = MissingPolicy.SCORE_AS_EMPTY):
        per_question = dict(per_question)
        by_id = sorted(per_question.items())
        by_class: dict[str, list[QuestionScore]] = {}
        for qid, score in by_id:
            if type(score.f1) not in (float, int):  # report.json writes f1 by its type
                raise ValueError(f"f1 must be an int or float for {qid!r}: {score.f1!r}")
            if not 0.0 <= score.f1 <= 1.0:
                raise ValueError(f"f1 out of range for {qid!r}: {score.f1}")
            if type(score.em) is not bool:
                raise ValueError(f"em must be a bool for {qid!r}: {score.em!r}")
            if score.em and score.f1 != 1.0:
                raise ValueError(f"em=True with f1={score.f1} for {qid!r}")
            by_class.setdefault(score.label, []).append(score)
        self._set(per_question, model, MissingPolicy(missing_policy),
                  per_class={label: _stats(by_class[label]) for label in sorted(by_class)},
                  overall=_stats([score for _, score in by_id]))

    def _header(self) -> dict:
        """``to_json_dict()`` with an empty ``per_question``."""
        return {"model": self.model, "missing_policy": self.missing_policy.value,
                "overall": self.overall._asdict(),
                "per_class": {label: s._asdict() for label, s in self.per_class.items()},
                "per_question": {}}

    def to_json_dict(self) -> dict:
        """The report as JSON: the label of each question is not written."""
        return {**self._header(), "per_question": {
            qid: {"f1": score.f1, "em": score.em}
            for qid, score in sorted(self.per_question.items())
        }}


def _stats(bucket: list[QuestionScore]) -> ClassStats:
    n = len(bucket)
    if n == 0:
        return ClassStats(mean_f1=0.0, em_rate=0.0, count=0)
    return ClassStats(sum(s.f1 for s in bucket) / n, sum(1 for s in bucket if s.em) / n, n)


def evaluate(
    predictions: PredictionSet,
    dataset: Dataset,
    classifier: Callable[[str], str],
    missing_policy: MissingPolicy | str = MissingPolicy.SCORE_AS_EMPTY,
    *,
    memo: ScoreMemo | None = None,
) -> EvalReport:
    """Score a prediction set against a dataset, bucketed by question class.

    Questions absent from ``predictions`` are scored as empty-string
    predictions or excluded, per ``missing_policy``. Prediction ids outside
    ``dataset`` are ignored: a model file covers the whole corpus, and a
    dataset may be one split slice of it. With a ``memo``, scores are taken
    from it and kept in it for the next call; without one, each question is
    scored by ``score_pair``. The report is the same either way.
    """
    missing_policy = MissingPolicy(missing_policy)
    score = score_pair if memo is None else memo.score
    answers = predictions.answers
    scores: dict[str, QuestionScore] = {}
    for item in dataset.items:
        prediction = answers.get(item.id)
        if prediction is None:
            if missing_policy is MissingPolicy.EXCLUDE:
                continue
            prediction = ""
        f1, em = score(prediction, item.gold_answers)
        scores[item.id] = QuestionScore(classifier(item.question), f1, em)
    return EvalReport(scores, predictions.model_name, missing_policy)


# A report's per-question key as ``json.dumps(..., indent=1)`` writes it at the
# depth of a report's fields, where no other key has the value ``{}``.
_PER_QUESTION_KEY = '\n  "per_question": '


def _per_question_block(per_question: Mapping[str, QuestionScore]) -> str:
    """The ``per_question`` value of ``to_json_dict`` as ``json.dumps(...,
    indent=1)`` writes it at a report's depth. Every value comes from the C
    encoder: the ids one by one, each column in one call split on ``", "``
    (which no number or boolean holds: ``EvalReport`` admits no other f1 or
    em); only the whitespace is written here."""
    if not per_question:
        return "{}"
    rows = sorted(per_question.items())
    f1s = json.dumps([score.f1 for _, score in rows])[1:-1].split(", ")
    ems = json.dumps([score.em for _, score in rows])[1:-1].split(", ")
    entries = [f'   {encode_basestring(qid)}: {{\n    "f1": {f1},\n    "em": {em}\n   }}'
               for (qid, _), f1, em in zip(rows, f1s, ems)]
    return "{\n" + ",\n".join(entries) + "\n  }"


def save_report_json(reports: Mapping[str, EvalReport], path) -> None:
    """Write ``{model name: report}`` for any number of models: the bytes of
    ``json.dump`` of each ``to_json_dict()`` with ``ensure_ascii=False,
    indent=1``, plus a newline."""
    text = json.dumps({name: r._header() for name, r in reports.items()},
                      ensure_ascii=False, indent=1)
    head, *tails = text.split(_PER_QUESTION_KEY + "{}")
    with atomic_write(path) as fh:
        fh.write(head)
        for report, tail in zip(reports.values(), tails):
            fh.write(_PER_QUESTION_KEY + _per_question_block(report.per_question) + tail)
        fh.write("\n")


def save_report_csv(table: str, path) -> None:
    """Write a CSV table (``analysis.eval_breakdown_csv``) as it is."""
    with atomic_write(path) as fh:
        fh.write(table)
