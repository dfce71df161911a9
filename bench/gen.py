"""Seeded, SQuAD-shaped workload inputs with answers whose scores are known.

Everything here is a pure function of the seed and the shape. Nothing is
imported from ``qavote``: the generator knows every question's class, every
gold answer's normalized tokens and every planted answer's EM and F1 by
construction, so the benchmark can check the program's outputs against
values the program did not compute.

Vocabulary is split so that scores follow from construction:

* answer tokens are three-syllable words (some with an accented vowel) or
  numbers; filler tokens (contexts, questions, distractors) are
  two-syllable words, so a filler span never shares a token with a gold;
* punctuation is only attached at token edges or stands alone between
  spaces, so removing it never joins two tokens;
* no generated word contains a class trigger phrase or an article.
"""
from __future__ import annotations

import ast
import hashlib
import json
import os
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
ACCENTED = {"a": "å", "e": "é", "i": "ï", "o": "ö", "u": "ü"}

# Phrases that trigger exactly one class of the default rules; ``undefined``
# phrases trigger none. Fillers cannot form trigger words, so the class of a
# question is the class of its phrase.
CLASS_PHRASES = {
    "date": ("On what date", "What day"),
    "during": ("During what", "During which"),
    "how_are": ("How are",),
    "how_big_size": ("How big", "What size"),
    "how_much_many": ("How many", "How much"),
    "how_old": ("How old",),
    "undefined": ("Name the", "Identify", "Give the", "State the", "In the year of"),
    "what": ("What", "Which", "What is the", "In which"),
    "what_time": ("What time",),
    "when": ("When", "When did"),
    "where": ("Where", "Where is"),
    "who": ("Who", "Who was"),
    "whom": ("To whom", "By whom"),
    "why": ("Why", "Why did"),
}
NUMERIC_CLASSES = frozenset(
    {"date", "how_much_many", "how_old", "how_big_size", "what_time", "when"}
)

# Edges wrap a whole answer; every character is ASCII or Unicode punctuation.
ASCII_WRAPS = (("", "."), ("", ","), ('"', '"'), ("(", ")"), ("'", "'"))
UNICODE_WRAPS = (("“", "”"), ("«", "»"), ("¿", "?"), ("", "…"),
                 ("「", "」"), ("‘", "’"))
# Strings that normalize to no tokens at all.
EMPTY_ANSWERS = ("the", "...", "“ ”", "a", "—", "The .", "an !")

# What ``qavote synth`` answers when a context has no span disjoint from the golds.
SYNTH_SENTINEL = "xqzv xqzv"


@dataclass(frozen=True)
class Shape:
    """What a generated corpus looks like."""

    questions: int
    shares: str  # "TRAIN_SHARES" or "DEV_SHARES" from tests/test_acceptance.py
    golds: int  # gold answers per question (1 or 3)
    answer_tokens: tuple[int, int]  # min and max tokens of the core gold span
    models: int
    missing_rate: float = 0.0  # per model, share of ids absent from its file
    empty_rate: float = 0.0  # per model, share of answers normalizing to nothing
    unicode_punct: bool = False
    sentinel_every: int = 500  # one tiny answer-only paragraph per this many questions


@dataclass
class Question:
    id: str
    label: str  # class under the default rules
    words: int  # question length in whitespace words
    golds: tuple[str, ...]
    gold_tokens: tuple[tuple[str, ...], ...]  # normalized, by construction
    answer_only_context: bool = False  # the context is its gold span and nothing else
    answers: dict[str, str] = field(default_factory=dict)  # model -> raw answer; absent if missing
    outcome: dict[str, tuple[bool, float]] = field(default_factory=dict)  # model -> (EM, F1)


@dataclass
class Corpus:
    squad: dict
    questions: list[Question]
    models: tuple[str, ...]

    def predictions(self, model: str) -> dict[str, str]:
        return {q.id: q.answers[model] for q in self.questions if model in q.answers}


def paper_shares(repo_root: Path) -> dict[str, dict[str, float]]:
    """TRAIN_SHARES and DEV_SHARES, read from the acceptance tests without importing them."""
    tree = ast.parse((repo_root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    shares = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRAIN_SHARES", "DEV_SHARES"):
                shares[name] = ast.literal_eval(node.value)
    if set(shares) != {"TRAIN_SHARES", "DEV_SHARES"}:
        raise ValueError("tests/test_acceptance.py lacks TRAIN_SHARES or DEV_SHARES")
    return shares


def class_counts(shares: dict[str, float], total: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` questions to the shares."""
    weight = sum(shares.values())
    exact = {label: total * share / weight for label, share in shares.items()}
    counts = {label: int(value) for label, value in exact.items()}
    by_remainder = sorted(shares, key=lambda label: (counts[label] - exact[label], label))
    for label in by_remainder[: total - sum(counts.values())]:
        counts[label] += 1
    return counts


def length_label(words: int, edges: tuple[int, ...]) -> str:
    """The ``--length-buckets`` label of a question with ``words`` words."""
    return f"len_{bisect_right(edges, words)}"


def f1_tokens(pred: tuple[str, ...], gold: tuple[str, ...]) -> float:
    """Token-multiset F1 in the arithmetic order of SQuAD v1.1 scoring."""
    if not pred and not gold:
        return 1.0
    overlap = sum((Counter(pred) & Counter(gold)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return (2 * precision * recall) / (precision + recall)


class _Words:
    def __init__(self, rng: random.Random):
        syllables = [c + v for c in CONSONANTS for v in VOWELS]
        self.rng = rng
        # "date", "time" and "size" would complete a trigger phrase after "what".
        self.fillers = [
            a + b for a in syllables for b in syllables if a + b not in ("date", "time", "size")
        ]
        self.syllables = syllables

    def filler(self) -> str:
        return self.rng.choice(self.fillers)

    def answer_token(self, numeric: bool) -> tuple[str, str]:
        """(raw, normalized) answer token."""
        rng = self.rng
        if numeric and rng.random() < 0.6:
            text = str(rng.randrange(10, 2100))
            return text, text
        word = "".join(rng.choice(self.syllables) for _ in range(3))
        if rng.random() < 0.08:
            pos = rng.choice([i for i, ch in enumerate(word) if ch in ACCENTED])
            word = word[:pos] + ACCENTED[word[pos]] + word[pos + 1 :]
        return word.capitalize(), word


def _wrap(text: str, wraps, rng: random.Random) -> str:
    left, right = rng.choice(wraps)
    return f"{left}{text}{right}"


def _surface_variant(text: str, shape: Shape, rng: random.Random) -> str:
    """A raw string normalizing to the same tokens as ``text``."""
    kind = rng.randrange(6)
    if kind == 0:
        return text
    if kind == 1:
        return text.lower()
    if kind == 2:
        return "the " + text
    if kind == 3:
        return text.upper()
    wraps = ASCII_WRAPS + UNICODE_WRAPS if shape.unicode_punct else ASCII_WRAPS
    return _wrap(text, wraps, rng)


def _model_profile(rng: random.Random, labels: list[str], index: int) -> dict[str, float]:
    """Per-class share of correct answers of one planted model."""
    base = 0.55 + 0.3 * rng.random() - 0.02 * index
    return {label: min(0.95, max(0.05, base + rng.uniform(-0.25, 0.25))) for label in labels}


def generate(shape: Shape, seed: int, repo_root: Path) -> Corpus:
    """One corpus plus ``shape.models`` planted prediction sets, from ``seed``."""
    rng = random.Random(f"qavote-bench|{seed}|{shape}")
    words = _Words(rng)
    counts = class_counts(paper_shares(repo_root)[shape.shares], shape.questions)
    labels = [label for label, n in counts.items() for _ in range(n)]
    rng.shuffle(labels)
    models = tuple(f"m{i + 1}" for i in range(shape.models))
    profiles = {m: _model_profile(rng, sorted(counts), i) for i, m in enumerate(models)}

    ids: set[str] = set()
    questions: list[Question] = []
    articles: list[dict] = []
    paragraphs: list[dict] = []

    def new_id() -> str:
        while True:
            qid = f"{rng.getrandbits(96):024x}"
            if qid not in ids:
                ids.add(qid)
                return qid

    def make_question(label: str) -> tuple[str, str, Question]:
        """(question text, context span holding every gold, truth)."""
        phrase = rng.choice(CLASS_PHRASES[label])
        filler = [words.filler() for _ in range(rng.randint(3, 12))]
        text = f"{phrase} {' '.join(filler)}?"
        n_tokens = rng.randint(*shape.answer_tokens)
        tokens = [words.answer_token(label in NUMERIC_CLASSES) for _ in range(n_tokens)]
        raw_core = " ".join(raw for raw, _ in tokens)
        if rng.random() < 0.25:
            wraps = ASCII_WRAPS + UNICODE_WRAPS if shape.unicode_punct else ASCII_WRAPS
            raw_core = _wrap(raw_core, wraps, rng)
        norm_core = tuple(norm for _, norm in tokens)
        golds = [raw_core]
        gold_tokens = [norm_core]
        span = raw_core  # the context text that holds every gold
        if shape.golds >= 2:
            golds.append("the " + raw_core)
            gold_tokens.append(norm_core)
            span = "the " + raw_core
        if shape.golds >= 3:
            ext_raw, ext_norm = words.answer_token(False)
            golds.append(f"{raw_core} {ext_raw}")
            gold_tokens.append(norm_core + (ext_norm,))
            span = f"{span} {ext_raw}"
        q = Question(
            id=new_id(), label=label, words=len(text.split()), golds=tuple(golds),
            gold_tokens=tuple(gold_tokens),
        )
        return text, span, q

    def plant_answers(q: Question, distractor_spans: list[str]) -> None:
        pool = tuple(distractor_spans)
        for model in models:
            u = rng.random()
            acc = profiles[model][q.label]
            if u < shape.missing_rate:
                q.outcome[model] = (False, 0.0)
                continue
            u -= shape.missing_rate
            if u < shape.empty_rate:
                q.answers[model] = rng.choice(EMPTY_ANSWERS)
                q.outcome[model] = (False, 0.0)
                continue
            u -= shape.empty_rate
            if u < acc:
                gold = rng.randrange(len(q.golds))
                q.answers[model] = _surface_variant(q.golds[gold], shape, rng)
                q.outcome[model] = (True, 1.0)
            elif u < acc + 0.08:
                extra = words.filler()
                q.answers[model] = f"{q.golds[0]} {extra}"
                pred = q.gold_tokens[0] + (extra,)
                f1 = max(f1_tokens(pred, gold) for gold in q.gold_tokens)
                q.outcome[model] = (False, f1)
            else:
                # Skewed choice so that wrong models often agree.
                pick = min(int(rng.expovariate(1.2)), len(pool) - 1)
                q.answers[model] = pool[pick]
                q.outcome[model] = (False, 0.0)

    def flush_article() -> None:
        if paragraphs:
            title = f"{words.filler().capitalize()}_{len(articles)}"
            articles.append({"title": title, "paragraphs": list(paragraphs)})
            paragraphs.clear()

    # The core gold span starts after the leading "the " that multi-gold spans carry.
    lead = len("the ") if shape.golds >= 2 else 0
    position = 0
    while position < len(labels):
        if shape.sentinel_every and rng.randrange(shape.sentinel_every) == 0:
            # A paragraph that is just the answer: no disjoint span exists.
            text, span, q = make_question(labels[position])
            position += 1
            q.answer_only_context = True
            plant_answers(q, [words.filler() + " " + words.filler()])
            questions.append(q)
            paragraphs.append({"context": span, "qas": [_qa_json(q, text, lead)]})
            continue
        take = min(rng.randint(3, 6), len(labels) - position)
        made = [make_question(labels[position + i]) for i in range(take)]
        position += take
        # ~120 words of filler sentences with each question's span inserted.
        filler_words = [words.filler() for _ in range(rng.randint(90, 130))]
        span_at = dict(zip(sorted(rng.sample(range(1, len(filler_words)), take)), made))
        parts: list[str] = []
        starts: list[int] = []
        cursor = 0
        for i, word in enumerate(filler_words):
            if i in span_at:
                span = span_at[i][1]
                starts.append(cursor + lead)
                parts.append(span)
                cursor += len(span) + 1
            token = word.capitalize() if i % 17 == 0 else word
            if i % 17 == 16:
                token += "."
            parts.append(token)
            cursor += len(token) + 1
        qas = []
        for (text, _, q), start in zip(made, starts):
            distractors = []
            for _ in range(3):
                width = rng.randint(1, 3)
                at = rng.randrange(len(filler_words) - width)
                distractors.append(" ".join(filler_words[at : at + width]))
            plant_answers(q, distractors)
            questions.append(q)
            qas.append(_qa_json(q, text, start))
        paragraphs.append({"context": " ".join(parts), "qas": qas})
        if len(paragraphs) >= 40:
            flush_article()
    flush_article()
    squad = {"version": "1.1", "data": articles}
    return Corpus(squad=squad, questions=questions, models=models)


def _qa_json(q: Question, question: str, start: int) -> dict:
    """SQuAD qa entry; ``start`` is where the core gold span starts in the context."""
    answers = []
    for i, gold in enumerate(q.golds):
        # Golds 1 and 3 start at the core span; gold 2 carries a leading "the ".
        at = start - len("the ") if i == 1 else start
        answers.append({"text": gold, "answer_start": at})
    return {"id": q.id, "question": question, "answers": answers}


def synth_profile(labels: list[str], seed: int) -> dict:
    """A ``qavote synth`` profile: fractional per-class gold probabilities."""
    rng = random.Random(f"qavote-bench-synth|{seed}")
    return {
        "per_class": {label: round(rng.uniform(0.2, 0.9), 3) for label in sorted(labels)},
        "corruption": "disjoint_token",
        "seed": seed,
    }


def synth_emits_gold(profile_seed: int, qid: str, probability: float) -> bool:
    """Whether ``qavote synth`` answers ``qid`` with its first gold.

    Re-derived from the documented contract: the draw is a pure function of
    (seed, question id), sha256 of ``"seed|emit|id"`` read as a fraction.
    """
    digest = hashlib.sha256(f"{profile_seed}|emit|{qid}".encode("utf-8")).digest()
    return int.from_bytes(digest, "big") / 2**256 < probability


def write_json(obj, path: Path) -> tuple[int, str]:
    """Write ``obj`` as UTF-8 JSON and sync it; return (size in bytes, sha256).

    Syncing here keeps the input's write-back out of the timed commands.
    """
    data = (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return len(data), hashlib.sha256(data).hexdigest()
