"""Synthetic prediction sets with controllable per-class accuracy.

Lets the whole pipeline (weights, voting, similarity) be exercised without
trained models: per question class, a model emits the first gold answer
with the configured probability and a corrupted answer otherwise. All
randomness is a pure function of (seed, question id), so a subset of a
dataset reproduces exactly the per-question outcomes of the full set.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .corpus import Dataset, PredictionSet, SchemaError, _require, read_json
from .metrics import normalize_answer
from .taxonomy import default_rules


class Corruption(str, enum.Enum):
    DISJOINT_TOKEN = "disjoint_token"  # context span sharing no normalized token with gold
    TRUNCATE_GOLD = "truncate_gold"  # gold minus its last normalized token
    RANDOM_SPAN = "random_span"  # uniform random context span

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AccuracyProfile:
    """Per-class gold-emission probabilities plus the wrong-answer shape.

    Classes absent from ``per_class`` get probability 0.0.
    """

    per_class: Mapping[str, float]
    corruption: Corruption = Corruption.DISJOINT_TOKEN
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "corruption", Corruption(self.corruption))
        for label, p in self.per_class.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for class {label!r} out of [0, 1]: {p}")

    def probability(self, label: str) -> float:
        return self.per_class.get(label, 0.0)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AccuracyProfile":
        """Profile from parsed JSON; nothing is coerced, and a field of the
        wrong type raises SchemaError naming its JSON path."""
        per_class = _require(data, "per_class", "$", dict)
        corruption = _require(data, "corruption", "$", str)
        if corruption not in {c.value for c in Corruption}:
            raise SchemaError(
                f"field $.corruption must be one of {[c.value for c in Corruption]}, "
                f"got {corruption!r}"
            )
        return cls(
            per_class={
                label: float(_require(per_class, label, "$.per_class", (int, float)))
                for label in per_class
            },
            corruption=Corruption(corruption),
            seed=_require(data, "seed", "$", int),
        )


def load_profile(path: str | Path) -> AccuracyProfile:
    return AccuracyProfile.from_json_dict(read_json(path))


def _hash_int(seed: int, qid: str, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}|{purpose}|{qid}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


def _uniform(seed: int, qid: str, purpose: str) -> float:
    return _hash_int(seed, qid, purpose) / 2**256


def _sentinel(gold_tokens: set[str]) -> str:
    token = "xqzv"
    while token in gold_tokens:
        token += "q"
    return f"{token} {token}"


def _disjoint_span(item, seed: int) -> tuple[str, bool]:
    """(answer, used_sentinel): a 2ish-token context span disjoint from gold."""
    gold_tokens = set()
    for gold in item.gold_answers:
        gold_tokens.update(normalize_answer(gold))
    context_tokens = item.context.split()
    n = len(context_tokens)
    width = 2 if n >= 2 else 1
    if n:
        offset = _hash_int(seed, item.id, "span") % n
        for shift in range(n):
            start = (offset + shift) % n
            window = context_tokens[start : start + width]
            window_norm = normalize_answer(" ".join(window))
            if window_norm and not gold_tokens.intersection(window_norm):
                return " ".join(window), False
    return _sentinel(gold_tokens), True


def _truncated_gold(item) -> str:
    tokens = normalize_answer(item.gold_answers[0])
    return " ".join(tokens[:-1])


def _random_span(item, seed: int) -> str:
    tokens = item.context.split()
    if not tokens:
        return ""
    start = _hash_int(seed, item.id, "start") % len(tokens)
    max_len = min(5, len(tokens) - start)
    length = 1 + _hash_int(seed, item.id, "len") % max_len
    return " ".join(tokens[start : start + length])


def generate_predictions(
    dataset: Dataset,
    profile: AccuracyProfile,
    model_name: str,
    classifier: Callable[[str], str] | None = None,
) -> PredictionSet:
    """Deterministic synthetic answers covering every dataset id.

    Questions classified into a class with probability p get the first gold
    answer when the per-question draw lands below p, a corruption otherwise.
    Ids where the disjoint-token corruption was impossible (the context
    offers no qualifying span) fall back to a sentinel and are listed in the
    result's ``meta["sentinel_fallback_ids"]``.
    """
    if not len(dataset):
        raise ValueError("dataset is empty")
    if classifier is None:
        classifier = default_rules()
    answers: dict[str, str] = {}
    sentinel_ids: list[str] = []
    for item in dataset.items:
        label = classifier(item.question)
        if _uniform(profile.seed, item.id, "emit") < profile.probability(label):
            answers[item.id] = item.gold_answers[0]
            continue
        if profile.corruption is Corruption.DISJOINT_TOKEN:
            answer, used_sentinel = _disjoint_span(item, profile.seed)
            if used_sentinel:
                sentinel_ids.append(item.id)
            answers[item.id] = answer
        elif profile.corruption is Corruption.TRUNCATE_GOLD:
            answers[item.id] = _truncated_gold(item)
        else:
            answers[item.id] = _random_span(item, profile.seed)
    meta = {"sentinel_fallback_ids": sentinel_ids} if sentinel_ids else {}
    return PredictionSet(model_name=model_name, answers=answers, meta=meta)
