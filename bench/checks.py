"""Correctness checks of every ``qavote`` artifact against generator truth.

Each check returns a list of error strings, empty when the artifact is
correct. Expected values come from how the inputs were built (gen.py),
never from ``qavote`` itself.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

from gen import SYNTH_SENTINEL, Question, synth_emits_gold

F1_TOLERANCE = 1e-12
MAX_REPORTED = 5


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _squad_ids(path: Path) -> list[str]:
    return [qa["id"] for a in load_json(path)["data"] for p in a["paragraphs"] for qa in p["qas"]]


def _limit(errors: list[str]) -> list[str]:
    if len(errors) > MAX_REPORTED:
        return errors[:MAX_REPORTED] + [f"... and {len(errors) - MAX_REPORTED} more"]
    return errors


def score_of(q: Question, answer: str | None) -> tuple[bool, float]:
    """(EM, F1) of ``answer`` on ``q``: planted answers are scored by construction.

    A missing answer scores as the empty string, which is never correct.
    Raises KeyError for a string that is no candidate of ``q``.
    """
    if not answer:
        return False, 0.0
    for model, planted in q.answers.items():
        if planted == answer:
            return q.outcome[model]
    raise KeyError(answer)


def split_ids(ids: Sequence[str], fraction: float, seed: int) -> list[str]:
    """Pre-eval ids: ids ordered by sha256 of ``"seed:id"``, prefix up to >= fraction * N."""
    ordered = sorted(ids, key=lambda i: (hashlib.sha256(f"{seed}:{i}".encode()).hexdigest(), i))
    target = fraction * len(ids)
    chosen = []
    for qid in ordered:
        if len(chosen) >= target:
            break
        chosen.append(qid)
    return chosen


def check_classify_stats(path: Path, expected: Counter) -> list[str]:
    data = load_json(path)
    errors = []
    if data.get("total") != sum(expected.values()):
        errors.append(f"total {data.get('total')} != {sum(expected.values())}")
    counts = data.get("counts", {})
    for label in sorted(set(counts) | set(expected)):
        if counts.get(label, 0) != expected.get(label, 0):
            errors.append(f"class {label}: {counts.get(label, 0)} != {expected.get(label, 0)}")
    return _limit(errors)


def check_split(out_dir: Path, ids: Sequence[str], fraction: float, seed: int) -> list[str]:
    expected = set(split_ids(ids, fraction, seed))
    errors = []
    manifest = load_json(out_dir / "split_manifest.json")
    if set(manifest.get("pre_eval_ids", ())) != expected:
        errors.append("split_manifest.json pre_eval_ids differ from the re-derived split")
    if _squad_ids(out_dir / "pre_eval.json") != [i for i in ids if i in expected]:
        errors.append("pre_eval.json does not hold the re-derived ids in dataset order")
    if _squad_ids(out_dir / "train.json") != [i for i in ids if i not in expected]:
        errors.append("train.json does not hold the remaining ids in dataset order")
    return errors


def check_synth(
    path: Path, questions: Sequence[Question], profile: dict, label_of: Callable[[Question], str]
) -> list[str]:
    """First gold where the profile's draw says so; else a disjoint span, or the
    sentinel where the context is the gold span alone."""
    answers = load_json(path)
    if set(answers) != {q.id for q in questions}:
        return ["synth output does not cover exactly the dataset ids"]
    errors = []
    for q in questions:
        probability = profile["per_class"].get(label_of(q), 0.0)
        answer = answers[q.id]
        if synth_emits_gold(profile["seed"], q.id, probability):
            if answer != q.golds[0]:
                errors.append(f"{q.id}: expected first gold {q.golds[0]!r}, got {answer!r}")
            continue
        if q.answer_only_context:
            if answer != SYNTH_SENTINEL:
                errors.append(f"{q.id}: expected the sentinel, got {answer!r}")
        elif answer == SYNTH_SENTINEL or _shares_gold_token(answer, q):
            errors.append(f"{q.id}: expected a disjoint corruption, got {answer!r}")
    return _limit(errors)


def _shares_gold_token(answer: str, q: Question) -> bool:
    tokens = set(answer.lower().replace(".", " ").split())
    return any(tokens.intersection(gold) for gold in q.gold_tokens)


def _report_by_model(data: dict, single_name: str) -> dict:
    """Accept the single-model (bare report) and multi-model (name-keyed) shapes."""
    return {single_name: data} if "per_question" in data else data


def check_evaluate(
    path: Path,
    questions: Sequence[Question],
    answers: dict[str, dict[str, str]],
    label_of: Callable[[Question], str],
) -> list[str]:
    """Per-question EM and F1, and per-class EM counts, of every evaluated model."""
    reports = _report_by_model(load_json(path), next(iter(answers)))
    errors = []
    if set(reports) != set(answers):
        return [f"report models {sorted(reports)} != {sorted(answers)}"]
    for model, given in answers.items():
        report = reports[model]
        per_question = report["per_question"]
        if len(per_question) != len(questions):
            errors.append(f"{model}: {len(per_question)} scored, expected {len(questions)}")
            continue
        em_counts: Counter = Counter()
        sizes: Counter = Counter()
        for q in questions:
            try:
                em, f1 = score_of(q, given.get(q.id))
            except KeyError:
                errors.append(f"{model} {q.id}: answer is no candidate")
                continue
            got = per_question.get(q.id)
            if got is None or got["em"] != em or abs(got["f1"] - f1) > F1_TOLERANCE:
                errors.append(f"{model} {q.id}: scored {got}, expected em={em} f1={f1}")
            label = label_of(q)
            sizes[label] += 1
            em_counts[label] += em
        for label, size in sizes.items():
            stats = report["per_class"].get(label)
            want = em_counts[label]
            if stats is None or stats["count"] != size or round(stats["em_rate"] * size) != want:
                errors.append(f"{model} class {label}: {stats}, expected {want}/{size} EM")
    return _limit(errors)


def check_weights(
    path: Path,
    questions: Sequence[Question],
    models: Sequence[str],
    basis: str,
    per_class: bool,
    label_of: Callable[[Question], str],
) -> list[str]:
    """Weights are the planted per-class EM rates (exact) or mean F1s."""
    table = load_json(path)
    errors = []
    if table.get("models") != list(models):
        return [f"models {table.get('models')} != {list(models)}"]
    ordered = sorted(questions, key=lambda q: q.id)
    by_label: dict[str, list[Question]] = {}
    for q in ordered:
        by_label.setdefault(label_of(q), []).append(q)

    def expected(bucket: list[Question], model: str) -> float:
        if basis == "em":
            return sum(1 for q in bucket if q.outcome[model][0]) / len(bucket)
        return sum(q.outcome[model][1] for q in bucket) / len(bucket)

    global_weights = {m: expected(ordered, m) for m in models}
    best = models[0]
    for model in models[1:]:
        if global_weights[model] > global_weights[best]:
            best = model
    if table.get("best_overall") != best:
        errors.append(f"best_overall {table.get('best_overall')} != {best}")
    for model in models:
        if abs(table["global"][model] - global_weights[model]) > F1_TOLERANCE:
            errors.append(f"global weight of {model}: {table['global'][model]}"
                          f" != {global_weights[model]}")
    for label, row in table["classes"].items():
        for model in models:
            if per_class and label in by_label:
                want = expected(by_label[label], model)
            else:
                want = global_weights[model]
            if abs(row[model] - want) > F1_TOLERANCE or (basis == "em" and row[model] != want):
                errors.append(f"weight of {model} in {label}: {row[model]} != {want}")
    missing = set(by_label) - set(table["classes"])
    if missing:
        errors.append(f"classes without weights: {sorted(missing)}")
    return _limit(errors)


def check_ensemble(
    pred_path: Path, trace_path: Path, questions: Sequence[Question]
) -> list[str]:
    """Covers every id, answers only with candidates, one trace line per question."""
    answers = load_json(pred_path)
    errors = []
    if set(answers) != {q.id for q in questions}:
        errors.append("ensemble output does not cover exactly the dataset ids")
    for q in questions:
        answer = answers.get(q.id)
        candidates = set(q.answers.values())
        if len(q.answers) < len(q.outcome):
            candidates.add("")  # a missing prediction is voted as the empty string
        if answer not in candidates:
            errors.append(f"{q.id}: ensemble answer {answer!r} is no candidate")
    with open(trace_path, encoding="utf-8") as fh:
        traced = [json.loads(line)["question_id"] for line in fh]
    if traced != [q.id for q in questions]:
        errors.append(f"trace has {len(traced)} lines, not one per question in dataset order")
    return _limit(errors)


def check_compare(
    reports: dict[tuple[str, str], Path],
    questions: Sequence[Question],
    label_of: Callable[[Question], str],
) -> list[str]:
    """Equal-EM counts of each pair equal the planted agreement, per class and overall."""
    errors = []
    sizes = Counter(label_of(q) for q in questions)
    for (a, b), path in reports.items():
        report = load_json(path)
        want: Counter = Counter()
        for q in questions:
            want[label_of(q)] += q.outcome[a][0] == q.outcome[b][0]
        if (report["model_a"], report["model_b"]) != (a, b):
            errors.append(f"{path.name}: pair {report['model_a']}/{report['model_b']} != {a}/{b}")
        overall = report["overall"]
        if overall["equal_em"] != sum(want.values()) or overall["total"] != len(questions):
            errors.append(f"{a} vs {b}: overall {overall}, expected equal_em {sum(want.values())}")
        for label, size in sizes.items():
            got = report["per_class"].get(label, {})
            if got.get("equal_em") != want[label] or got.get("total") != size:
                errors.append(f"{a} vs {b} class {label}: {got}, expected {want[label]}/{size}")
    return _limit(errors)
