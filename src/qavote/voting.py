"""Weighted voting over per-model candidate answers.

One vote per question: each model's answer gets the table's weight of its
model for the question's class. (The class-ignoring ensemble is this vote on
a table whose class rows all hold the global weights.) Answers that are
duplicates of each other, raw or normalized string equality by
configuration, form a group whose weights are combined by sum (default) or
max; the heaviest group wins. Undefined-class questions are answered by the
globally best model when the special case is enabled. All ties break toward
the earlier model in the table's model order.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

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


@dataclass(frozen=True)
class Candidate:
    model: str
    answer: str
    weight: float


@dataclass(frozen=True)
class VoteGroup:
    """Candidates whose answers are duplicates under the configured equality."""

    key: str
    answer: str  # representative raw answer: the earliest member's
    models: tuple[str, ...]
    combined_weight: float


@dataclass(frozen=True)
class VoteTrace:
    question_id: str
    question_class: str
    candidates: tuple[Candidate, ...]
    groups: tuple[VoteGroup, ...]
    winner: Candidate
    reason: Reason

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question_class": self.question_class,
            "candidates": [
                {"model": c.model, "answer": c.answer, "weight": c.weight}
                for c in self.candidates
            ],
            "groups": [
                {
                    "answer": g.answer,
                    "models": list(g.models),
                    "combined_weight": g.combined_weight,
                }
                for g in self.groups
            ],
            "winner": {"model": self.winner.model, "answer": self.winner.answer},
            "reason": self.reason.value,
        }


def _group_key(answer: str, equality: Equality) -> str:
    if equality is Equality.RAW:
        return answer
    return " ".join(normalize_answer(answer))


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
    ordered = [
        Candidate(model, answers[model], table.weight_for(model, question_class))
        for model in table.models
        if model in answers
    ]

    def by_model(name: str) -> Candidate:
        for candidate in ordered:
            if candidate.model == name:
                return candidate
        raise VoteError(f"no candidate for model {name!r}")

    if config.undefined_special_case and question_class == UNDEFINED:
        return VoteTrace(
            question_id=question_id,
            question_class=question_class,
            candidates=tuple(ordered),
            groups=(),
            winner=by_model(table.best_overall),
            reason=Reason.UNDEFINED_FALLBACK,
        )

    grouped: dict[str, list[Candidate]] = {}
    for candidate in ordered:
        grouped.setdefault(_group_key(candidate.answer, config.duplicate_equality), []).append(
            candidate
        )
    groups = []
    for key, members in grouped.items():  # insertion order == model order of first member
        weights = [m.weight for m in members]
        combined = sum(weights) if config.combine is Combine.SUM else max(weights)
        groups.append(
            VoteGroup(
                key=key,
                answer=members[0].answer,
                models=tuple(m.model for m in members),
                combined_weight=combined,
            )
        )

    if any(len(g.models) >= 2 for g in groups):
        best = groups[0]
        for group in groups[1:]:
            if group.combined_weight > best.combined_weight:
                best = group
        winner = by_model(best.models[0])
        reason = Reason.MERGED_DUPLICATES
    else:
        winner = ordered[0]
        for candidate in ordered[1:]:
            if candidate.weight > winner.weight:
                winner = candidate
        reason = Reason.HIGHEST_WEIGHT_NO_DUPLICATES

    return VoteTrace(
        question_id=question_id,
        question_class=question_class,
        candidates=tuple(ordered),
        groups=tuple(groups),
        winner=winner,
        reason=reason,
    )


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
    out: dict[str, str] = {}
    traces: list[VoteTrace] = []
    for item in dataset.items:
        label = classifier(item.question)
        answers = {
            model: predictions[model].answers.get(item.id, "") for model in table.models
        }
        trace = vote(answers, label, table, config, question_id=item.id)
        out[item.id] = trace.winner.answer
        traces.append(trace)
    return PredictionSet(model_name="ensemble", answers=out), traces


def save_traces(traces: Iterable[VoteTrace], path: str | Path) -> None:
    """Write one JSON object per line, in the given order."""
    with atomic_write(path) as fh:
        for trace in traces:
            fh.write(json.dumps(trace.to_json_dict(), ensure_ascii=False))
            fh.write("\n")
