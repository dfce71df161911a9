"""Synthetic SQuAD-format corpus builders shared across the test suite.

Questions are generated from per-class templates that trigger exactly the
intended rule, golds are two normalized tokens (so truncation lands strictly
between 0 and 1), and every context contains filler tokens disjoint from all
golds (so a disjoint corruption span always exists). ``package_calls`` finds
the calls the package's source makes, for tests that pin where a call may be.
"""
from __future__ import annotations

import ast
from pathlib import Path

from qavote import corpus
from qavote.corpus import Dataset, dataset_from_squad_dict

PACKAGE = Path(corpus.__file__).resolve().parent


def package_calls(is_target) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every call in the package whose
    callee ``is_target`` accepts; "<module>" for a call outside any function."""
    found = set()
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_target(node.func):
                enclosing = [f.name for f in functions
                             if f.lineno <= node.lineno <= f.end_lineno]
                found.add((source.stem, enclosing[-1] if enclosing else "<module>"))
    return found

QUESTION_TEMPLATES = {
    "date": "On what date did event {i} take place?",
    "during": "During what period did event {i} happen?",
    "how_are": "How are objects like item {i} produced?",
    "how_big_size": "How big is structure {i}?",
    "how_much_many": "How many parts does device {i} contain?",
    "how_old": "How old is monument {i}?",
    "what": "What is the purpose of device {i}?",
    "what_time": "What time does ceremony {i} begin?",
    "when": "When did event {i} conclude?",
    "where": "Where is structure {i} found?",
    "who": "Who maintains structure {i}?",
    "whom": "To whom was parcel {i} delivered?",
    "why": "Why did event {i} matter?",
    "undefined": "Name the operator of device {i}.",
}

FILLER = "granite bronze marble copper"


def make_squad_dict(
    class_counts: dict[str, int],
    per_paragraph: int = 4,
    paragraphs_per_article: int = 5,
    golds_per_item: int = 1,
) -> dict:
    """SQuAD-format dict with the requested per-class question counts.

    Classes are interleaved round-robin so paragraphs mix classes. Gold for
    question i of class c is "alpha<i> beta<c-index>" (unique first token);
    extra golds append a suffix token.
    """
    labels = [label for label in class_counts if class_counts[label] > 0]
    remaining = dict(class_counts)
    order: list[tuple[str, int]] = []
    serial = 0
    while any(remaining[label] > 0 for label in labels):
        for label in labels:
            if remaining[label] > 0:
                remaining[label] -= 1
                order.append((label, serial))
                serial += 1

    label_index = {label: n for n, label in enumerate(QUESTION_TEMPLATES)}
    entries = []
    for label, i in order:
        gold = f"alpha{i} beta{label_index.get(label, 99)}"
        golds = [gold] + [f"{gold} extra{g}" for g in range(1, golds_per_item)]
        entries.append(
            {
                "label": label,
                "id": f"{label}-{i:07d}",
                "question": QUESTION_TEMPLATES[label].format(i=i),
                "gold_answers": golds,
            }
        )

    articles = []
    for p_start in range(0, len(entries), per_paragraph):
        chunk = entries[p_start : p_start + per_paragraph]
        sentences = [f"Record for {e['id']}: {e['gold_answers'][0]} stands near {FILLER}." for e in chunk]
        context = " ".join(sentences)
        qas = []
        for e in chunk:
            qas.append(
                {
                    "id": e["id"],
                    "question": e["question"],
                    "answers": [
                        {"text": g, "answer_start": context.find(e["gold_answers"][0])}
                        for g in e["gold_answers"]
                    ],
                }
            )
        paragraph = {"context": context, "qas": qas}
        article_idx = (p_start // per_paragraph) // paragraphs_per_article
        while len(articles) <= article_idx:
            articles.append({"title": f"article_{len(articles):05d}", "paragraphs": []})
        articles[article_idx]["paragraphs"].append(paragraph)

    return {"version": "1.1", "data": articles}


def make_dataset(class_counts: dict[str, int], **kwargs) -> Dataset:
    return dataset_from_squad_dict(make_squad_dict(class_counts, **kwargs))


def uniform_counts(per_class: int, labels=None) -> dict[str, int]:
    if labels is None:
        labels = list(QUESTION_TEMPLATES)
    return {label: per_class for label in labels}


def gold_map(dataset: Dataset) -> dict[str, str]:
    """question id -> first gold answer."""
    return {item.id: item.gold_answers[0] for item in dataset.items}
