"""Weighted voting over per-model candidate answers.

One vote per question: each model's answer gets the table's weight of its
model for the question's class. (The class-ignoring ensemble is this vote on
a table whose class rows all hold the global weights.) Answers that are
duplicates of each other, raw or normalized string equality by
configuration, form a group whose weights are combined by sum (default) or
max; the heaviest group wins. Undefined-class questions are answered by the
globally best model when the special case is enabled. All ties break toward
the earlier model in the table's model order.

``vote`` and ``run_ensemble`` share one decision core, ``_decide``, which
works on indices. The answers and the weight row (``WeightTable.row``) are
tuples in model order; the answers enter only as their duplicate pattern
(the index of each answer's first duplicate), and groups are tuples of
candidate indices. So a vote is a function of the label's row and the
pattern, and each pair is decided once per run (``_Decisions``).
``run_ensemble`` also fetches each label's row once and normalizes each
distinct answer once per run. A ``VoteTrace`` keeps these compact fields
and derives its candidates, groups and winner on access; ``save_traces``
writes each JSON line straight from them.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Dataset, PredictionSet, atomic_write
from .metrics import normalize_answer
from .taxonomy import UNDEFINED
from .weighting import WeightTable


class Combine(str, enum.Enum):
    SUM = "sum"
    MAX = "max"

    def __str__(self) -> str:
        return self.value


class Equality(str, enum.Enum):
    RAW = "raw"
    NORMALIZED = "normalized"

    def __str__(self) -> str:
        return self.value


class Reason(str, enum.Enum):
    MERGED_DUPLICATES = "merged_duplicates"
    HIGHEST_WEIGHT_NO_DUPLICATES = "highest_weight_no_duplicates"
    UNDEFINED_FALLBACK = "undefined_fallback"

    def __str__(self) -> str:
        return self.value


class VoteError(ValueError):
    """Raised for empty answer sets, unknown models, or mismatched model sets."""


@dataclass(frozen=True)
class VoteConfig:
    """Voting variant switches; the defaults are the headline configuration."""

    combine: Combine = Combine.SUM
    undefined_special_case: bool = True
    duplicate_equality: Equality = Equality.NORMALIZED

    def __post_init__(self):
        object.__setattr__(self, "combine", Combine(self.combine))
        object.__setattr__(self, "duplicate_equality", Equality(self.duplicate_equality))


class Candidate(NamedTuple):
    model: str
    answer: str
    weight: float


class VoteGroup(NamedTuple):
    """Candidates whose answers are duplicates under the configured equality."""

    answer: str  # representative raw answer: the earliest member's
    models: tuple[str, ...]
    combined_weight: float


class VoteTrace(NamedTuple):
    """One vote, as the indices the decision core works on.

    ``models``, ``answers`` and ``weights`` are the candidates in table
    order; each of ``index_groups`` is (candidate indices, combined weight),
    in the order of their first member. ``candidates``, ``groups`` and
    ``winner`` are built from these on access.
    """

    question_id: str
    question_class: str
    models: tuple[str, ...]
    answers: tuple[str, ...]
    weights: tuple[float, ...]
    index_groups: tuple[tuple[tuple[int, ...], float], ...]
    winner_index: int
    reason: Reason

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        return tuple(map(Candidate, self.models, self.answers, self.weights))

    @property
    def groups(self) -> tuple[VoteGroup, ...]:
        return tuple(
            VoteGroup(self.answers[members[0]], tuple(self.models[i] for i in members), combined)
            for members, combined in self.index_groups
        )

    @property
    def winner(self) -> Candidate:
        i = self.winner_index
        return Candidate(self.models[i], self.answers[i], self.weights[i])


class _NormalizedKeys(dict):
    """answer -> its normalized tokens joined by spaces, computed once per answer."""

    def __missing__(self, answer: str) -> str:
        key = self[answer] = " ".join(normalize_answer(answer))
        return key


def _duplicates(answers: Sequence[str], normalized: _NormalizedKeys | None) -> tuple[int, ...]:
    """The index of each answer's first duplicate (itself when it has none), under
    raw equality or, given the ``normalized`` memo, normalized equality."""
    keys = answers if normalized is None else [normalized[a] for a in answers]
    return tuple(map(keys.index, keys))


def _decide(
    duplicates: Sequence[int], weights: Sequence[float], use_max: bool
) -> tuple[int, Reason, tuple[tuple[tuple[int, ...], float], ...]]:
    """(winner index, reason, index groups) of one vote, from each candidate's
    first duplicate and the candidates' weights, both in model order."""
    members: dict[int, list[int]] = {}
    for i, first in enumerate(duplicates):
        members.setdefault(first, []).append(i)
    groups = []
    winner, best = 0, None
    for group in members.values():  # in the model order of each group's first member
        member_weights = [weights[i] for i in group]
        combined = max(member_weights) if use_max else sum(member_weights)
        # Without duplicates each group is one candidate, so this finds the
        # highest single weight; ties keep the earlier model either way.
        if best is None or combined > best:
            winner, best = group[0], combined
        groups.append((tuple(group), combined))
    if len(groups) < len(duplicates):
        return winner, Reason.MERGED_DUPLICATES, tuple(groups)
    return winner, Reason.HIGHEST_WEIGHT_NO_DUPLICATES, tuple(groups)


class _Decisions(dict):
    """duplicates -> (winner index, reason, index groups) of a vote on one
    label's ``weights``, each decided once: a vote depends on nothing else."""

    def __init__(self, table: WeightTable, models: Sequence[str], weights: tuple[float, ...],
                 label: str, config: VoteConfig):
        super().__init__()
        self.weights = weights
        self.use_max = config.combine is Combine.MAX
        self.fallback = None  # the index that answers under the undefined special case
        if config.undefined_special_case and label == UNDEFINED:
            if table.best_overall not in models:
                raise VoteError(f"no candidate for model {table.best_overall!r}")
            self.fallback = models.index(table.best_overall)

    def __missing__(self, duplicates: tuple[int, ...]):
        if self.fallback is None:
            decision = _decide(duplicates, self.weights, self.use_max)
        else:
            decision = self.fallback, Reason.UNDEFINED_FALLBACK, ()
        self[duplicates] = decision
        return decision


def _normalized_keys(config: VoteConfig) -> _NormalizedKeys | None:
    return None if config.duplicate_equality is Equality.RAW else _NormalizedKeys()


def vote(
    answers: Mapping[str, str],
    question_class: str,
    table: WeightTable,
    config: VoteConfig = VoteConfig(),
    question_id: str = "",
) -> VoteTrace:
    """Decide one question from its model -> answer mapping.

    Each answer is weighted by the table's weight of its model for
    ``question_class``; candidates follow the table's model order.
    """
    if not answers:
        raise VoteError("empty answer set")
    unknown = set(answers) - set(table.models)
    if unknown:
        raise VoteError(f"unknown models: {sorted(unknown)}")
    row = table.row(question_class)
    present = [i for i, model in enumerate(table.models) if model in answers]
    models = tuple(table.models[i] for i in present)
    weights = tuple(row[i] for i in present)
    texts = tuple(answers[model] for model in models)
    decisions = _Decisions(table, models, weights, question_class, config)
    winner, reason, groups = decisions[_duplicates(texts, _normalized_keys(config))]
    return VoteTrace(question_id, question_class, models, texts, weights, groups, winner, reason)


def run_ensemble(
    dataset: Dataset,
    predictions: Mapping[str, PredictionSet],
    table: WeightTable,
    classifier: Callable[[str], str],
    config: VoteConfig = VoteConfig(),
) -> tuple[PredictionSet, list[VoteTrace]]:
    """Vote every dataset question; missing answers become empty strings.

    The models in ``predictions`` must be exactly the table's models. Traces
    come back in dataset order.
    """
    if set(predictions) != set(table.models):
        raise VoteError(
            f"prediction models {sorted(predictions)} != table models {sorted(table.models)}"
        )
    models = table.models
    ids = [item.id for item in dataset.items]
    columns = [[predictions[model].answers.get(qid, "") for qid in ids] for model in models]
    normalized = _normalized_keys(config)
    by_label: dict[str, _Decisions] = {}
    out: dict[str, str] = {}
    traces: list[VoteTrace] = []
    for item, answers in zip(dataset.items, zip(*columns)):  # answers in model order
        qid = item.id
        label = classifier(item.question)
        decisions = by_label.get(label)
        if decisions is None:
            decisions = by_label[label] = _Decisions(
                table, models, table.row(label), label, config
            )
        winner, reason, groups = decisions[_duplicates(answers, normalized)]
        out[qid] = answers[winner]
        traces.append(
            VoteTrace(qid, label, models, answers, decisions.weights, groups, winner, reason)
        )
    return PredictionSet(model_name="ensemble", answers=out), traces


def _json_number(value: float) -> str:
    """``json.dumps(value)``, which is ``float.__repr__`` for a finite float."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


class _TraceLines:
    """Each trace's JSON line, as ``json.dumps(..., ensure_ascii=False)`` would write
    ``{"question_id", "question_class", "candidates": [{"model", "answer", "weight"}],
    "groups": [{"answer", "models", "combined_weight"}], "winner": {"model", "answer"},
    "reason"}``, and a newline.

    What depends only on a trace's models and weight row (the candidates'
    names and weight reprs, the models list of each member set) is built
    once per row; the row stays referenced, so no other row takes its id.
    The repr of each combined weight is built once per value.
    """

    def __init__(self):
        self._rows: dict[tuple[int, int], tuple] = {}
        self._reprs: dict[float, str] = {}

    def _row_parts(self, trace: VoteTrace) -> tuple:
        key = (id(trace.models), id(trace.weights))
        parts = self._rows.get(key)
        if parts is None:
            names = [encode_basestring(model) for model in trace.models]
            candidates = [
                (f'{{"model": {name}, "answer": ', f', "weight": {_json_number(weight)}}}')
                for name, weight in zip(names, trace.weights)
            ]
            parts = self._rows[key] = (trace.models, trace.weights, names, candidates, {})
        return parts

    def _combined(self, value: float) -> str:
        # Equal keys need not have equal reprs: 0.0 == -0.0 and 1 == 1.0.
        if not value or type(value) is not float:
            return _json_number(value)
        text = self._reprs.get(value)
        if text is None:
            text = self._reprs[value] = _json_number(value)
        return text

    def line(self, trace: VoteTrace) -> str:
        _, _, names, candidate_parts, model_lists = self._row_parts(trace)
        answers = [encode_basestring(answer) for answer in trace.answers]
        candidates = ", ".join(
            [head + answer + tail for (head, tail), answer in zip(candidate_parts, answers)]
        )
        groups = []
        for members, combined in trace.index_groups:
            model_list = model_lists.get(members)
            if model_list is None:
                model_list = model_lists[members] = ", ".join([names[i] for i in members])
            groups.append(
                f'{{"answer": {answers[members[0]]}, "models": [{model_list}], '
                f'"combined_weight": {self._combined(combined)}}}'
            )
        w = trace.winner_index
        return (
            f'{{"question_id": {encode_basestring(trace.question_id)}, '
            f'"question_class": {encode_basestring(trace.question_class)}, '
            f'"candidates": [{candidates}], "groups": [{", ".join(groups)}], '
            f'"winner": {{"model": {names[w]}, "answer": {answers[w]}}}, '
            f'"reason": {encode_basestring(trace.reason.value)}}}\n'
        )


def save_traces(traces: Iterable[VoteTrace], path: str | Path) -> None:
    """Write one JSON object per line, in the given order."""
    with atomic_write(path) as fh:
        fh.writelines(map(_TraceLines().line, traces))
