"""Synthetic prediction sets with controllable per-class accuracy.

Lets the whole pipeline (weights, voting, similarity) be exercised without
trained models: per question class, a model emits the first gold answer
with the configured probability and a corrupted answer otherwise. All
randomness is a pure function of (seed, question id), so a subset of a
dataset reproduces exactly the per-question outcomes of the full set.
"""
from __future__ import annotations

import enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

from .corpus import Dataset, PredictionSet, _Frozen, _require, _require_float, load_json
from .metrics import normalize_answer


class Corruption(str, enum.Enum):
    DISJOINT_TOKEN = "disjoint_token"  # context span sharing no normalized token with gold
    TRUNCATE_GOLD = "truncate_gold"  # gold minus its last normalized token
    RANDOM_SPAN = "random_span"  # uniform random context span


class AccuracyProfile(_Frozen):
    """Per-class gold-emission probabilities plus the wrong-answer shape.

    Classes absent from ``per_class`` get probability 0.0. A probability that
    is not a number (bool included) or lies outside [0, 1], or a ``seed`` that
    is not an int, is a ValueError; ``corruption`` may be given as its value.
    The profile holds its own copy of ``per_class``, read-only.
    """

    __slots__ = _compared = _init_args = ("per_class", "corruption", "seed")

    def __init__(self, per_class: Mapping[str, float],
                 corruption: Corruption | str = Corruption.DISJOINT_TOKEN, seed: int = 0):
        corruption = Corruption(corruption)
        per_class = dict(per_class)
        for label, p in per_class.items():
            if type(p) is bool or not isinstance(p, (int, float)):
                raise ValueError(f"probability for class {label!r} must be a number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability for class {label!r} out of [0, 1]: {p}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an int, got {seed!r}")
        self._set(MappingProxyType(per_class), corruption, seed)

    def probability(self, label: str) -> float:
        return self.per_class.get(label, 0.0)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AccuracyProfile":
        """Profile from parsed JSON; nothing is coerced, and a field of the
        wrong type raises SchemaError naming its JSON path."""
        per_class = _require(data, "per_class", "$", dict)
        return cls(
            per_class={label: _require_float(per_class, label, "$.per_class")
                       for label in per_class},
            corruption=_require(data, "corruption", "$", Corruption),
            seed=_require(data, "seed", "$", int),
        )


def load_profile(path: str | Path) -> AccuracyProfile:
    return load_json(path, AccuracyProfile.from_json_dict)


def _sentinel(gold_tokens: set[str]) -> str:
    token = "xqzv"
    while token in gold_tokens:
        token += "q"
    return f"{token} {token}"


def _disjoint_span(item, tokens: list[str],
                   hash_int: Callable[[str, str], int]) -> tuple[str, bool]:
    """(answer, used_sentinel): a 2ish-token span of the context ``tokens``
    disjoint from gold."""
    gold_tokens = set()
    for gold in item.gold_answers:
        gold_tokens.update(normalize_answer(gold))
    n = len(tokens)
    width = 2 if n >= 2 else 1
    if n:
        offset = hash_int(item.id, "span") % n
        for shift in range(n):
            start = (offset + shift) % n
            window = tokens[start : start + width]
            window_norm = normalize_answer(" ".join(window))
            if window_norm and not gold_tokens.intersection(window_norm):
                return " ".join(window), False
    return _sentinel(gold_tokens), True


def _random_span(item, tokens: list[str], hash_int: Callable[[str, str], int]) -> str:
    if not tokens:
        return ""
    start = hash_int(item.id, "start") % len(tokens)
    max_len = min(5, len(tokens) - start)
    length = 1 + hash_int(item.id, "len") % max_len
    return " ".join(tokens[start : start + length])


def generate_predictions(
    dataset: Dataset,
    profile: AccuracyProfile,
    model_name: str,
    classifier: Callable[[str], str],
) -> PredictionSet:
    """Deterministic synthetic answers covering every dataset id.

    Questions classified into a class with probability p get the first gold
    answer when the per-question draw lands below p, a corruption otherwise.
    Ids where the disjoint-token corruption was impossible (the context
    offers no qualifying span) fall back to a sentinel and are listed in the
    result's ``meta["sentinel_fallback_ids"]``, a tuple.
    """
    from hashlib import sha256  # only synthesis pays for this import

    if not len(dataset):
        raise ValueError("dataset is empty")

    def hash_int(qid: str, purpose: str) -> int:
        """A uniform 256-bit draw, a pure function of (profile seed, purpose, qid)."""
        digest = sha256(f"{profile.seed}|{purpose}|{qid}".encode("utf-8")).digest()
        return int.from_bytes(digest, "big")

    answers: dict[str, str] = {}
    sentinel_ids: list[str] = []
    for paragraph in dataset.paragraphs:
        context_tokens = paragraph.context.split()
        for item in paragraph.items:
            label = classifier(item.question)
            if hash_int(item.id, "emit") / 2**256 < profile.probability(label):
                answers[item.id] = item.gold_answers[0]
            elif profile.corruption is Corruption.DISJOINT_TOKEN:
                answer, used_sentinel = _disjoint_span(item, context_tokens, hash_int)
                if used_sentinel:
                    sentinel_ids.append(item.id)
                answers[item.id] = answer
            elif profile.corruption is Corruption.TRUNCATE_GOLD:
                answers[item.id] = " ".join(normalize_answer(item.gold_answers[0])[:-1])
            else:
                answers[item.id] = _random_span(item, context_tokens, hash_int)
    meta = {"sentinel_fallback_ids": sentinel_ids} if sentinel_ids else {}
    return PredictionSet(model_name=model_name, answers=answers, meta=meta)
