"""Weighted voting over per-model candidate answers.

``run_ensemble`` is the vote: one per dataset question, where each model's
answer gets the table's weight of its model for the question's class. (The
class-ignoring ensemble is this vote on a table whose class rows all hold
the global weights.) Answers that are duplicates of each other, raw or
normalized string equality by configuration, form a group whose weights are
combined by sum (default) or max; the heaviest group wins. Undefined-class
questions are answered by the globally best model when the special case is
enabled. All ties break toward the earlier model in the table's model order.

The decision core, ``_decide``, works on indices. A question's answers and
its label's weight row (``WeightTable.row``) are tuples in model order; the
answers enter only as their duplicate pattern (the index of each answer's
first duplicate), and groups are tuples of candidate indices. So a vote is a
function of the label's row and the pattern, and each pair is decided once
per run (``_Decisions``). ``run_ensemble`` also fetches each label's row
once and normalizes each distinct answer once per run. A ``VoteTrace`` keeps
these compact fields and derives its candidates and winner on access;
``save_traces`` writes each trace's fields as one JSON line.
"""
from __future__ import annotations

import enum
import json
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Dataset, PredictionSet, _Frozen, atomic_write
from .metrics import normalize_answer
from .taxonomy import UNDEFINED
from .weighting import WeightTable


class Combine(str, enum.Enum):
    SUM = "sum"
    MAX = "max"


class Equality(str, enum.Enum):
    RAW = "raw"
    NORMALIZED = "normalized"


class Reason(str, enum.Enum):
    MERGED_DUPLICATES = "merged_duplicates"
    HIGHEST_WEIGHT_NO_DUPLICATES = "highest_weight_no_duplicates"
    UNDEFINED_FALLBACK = "undefined_fallback"


class VoteError(ValueError):
    """Raised when the prediction models are not the weight table's models."""


class VoteConfig(_Frozen):
    """Voting variant switches; the defaults are the headline configuration.
    ``combine`` and ``duplicate_equality`` may be given as their string values;
    ``undefined_special_case`` must be a bool."""

    __slots__ = _compared = _init_args = ("combine", "undefined_special_case", "duplicate_equality")

    def __init__(self, combine: Combine | str = Combine.SUM, undefined_special_case: bool = True,
                 duplicate_equality: Equality | str = Equality.NORMALIZED):
        if type(undefined_special_case) is not bool:
            raise ValueError(
                f"undefined_special_case must be a bool, got {undefined_special_case!r}")
        self._set(Combine(combine), undefined_special_case, Equality(duplicate_equality))


class Candidate(NamedTuple):
    model: str
    answer: str
    weight: float


class VoteTrace(NamedTuple):
    """One vote of ``run_ensemble``, as the indices the decision core works on.

    ``models``, ``answers`` and ``weights`` are the candidates in table
    order; each of ``index_groups`` is (candidate indices, combined weight),
    in the order of their first member. ``candidates`` and ``winner`` are
    derived from these on access; a trace line holds the fields alone.
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
    def winner(self) -> Candidate:
        return self.candidates[self.winner_index]


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
    label's weight row, each decided once: a vote depends on nothing else."""

    def __init__(self, table: WeightTable, label: str, config: VoteConfig):
        super().__init__()
        self.weights = table.row(label)
        self.use_max = config.combine is Combine.MAX
        self.fallback = None  # the index that answers under the undefined special case
        if config.undefined_special_case and label == UNDEFINED:
            self.fallback = table.models.index(table.best_overall)

    def __missing__(self, duplicates: tuple[int, ...]):
        if self.fallback is None:
            decision = _decide(duplicates, self.weights, self.use_max)
        else:
            decision = self.fallback, Reason.UNDEFINED_FALLBACK, ()
        self[duplicates] = decision
        return decision


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
    normalized = None if config.duplicate_equality is Equality.RAW else _NormalizedKeys()
    by_label: dict[str, _Decisions] = {}
    out: dict[str, str] = {}
    traces: list[VoteTrace] = []
    for item, answers in zip(dataset.items, zip(*columns)):  # answers in model order
        qid = item.id
        label = classifier(item.question)
        decisions = by_label.get(label)
        if decisions is None:
            decisions = by_label[label] = _Decisions(table, label, config)
        winner, reason, groups = decisions[_duplicates(answers, normalized)]
        out[qid] = answers[winner]
        traces.append(
            VoteTrace(qid, label, models, answers, decisions.weights, groups, winner, reason)
        )
    return PredictionSet(model_name="ensemble", answers=out), traces


# The fields whose value ``run_ensemble`` hands many votes as one object: the
# table's models, a label's weight row and a decision's index groups.
_SHARED_FIELDS = frozenset({"models", "weights", "index_groups"})


def save_traces(traces: Iterable[VoteTrace], path: str | Path) -> None:
    """Write each trace as one JSON object of its fields, one per line, in the
    given order: each line is ``json.dumps(trace._asdict(), ensure_ascii=False)``.

    Every value is encoded by ``json``'s encoder; a shared field's value is
    encoded once per distinct object. That memo is keyed by ``id()`` and holds
    the object, so no id can be reused while the file is written."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    encoded: dict[int, tuple[object, str]] = {}

    def encode_shared(value) -> str:
        entry = encoded.get(id(value))
        if entry is None:
            entry = encoded[id(value)] = value, encode(value)
        return entry[1]

    field_encoders = [encode_shared if name in _SHARED_FIELDS else encode
                      for name in VoteTrace._fields]
    line = "{" + ", ".join(f"{encode(name)}: %s" for name in VoteTrace._fields) + "}\n"
    with atomic_write(path) as fh:
        for trace in traces:
            fh.write(line % tuple([f(value) for f, value in zip(field_encoders, trace)]))
