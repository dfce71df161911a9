"""Reference SQuAD decoder for test_corpus: one ``_require`` per field.

The straightforward decoder that ``corpus.dataset_from_squad_dict`` replaced:
every field is read through its own ``_require`` call with its JSON path, and
each question is a frozen dataclass that checks itself on construction. The
library's decoder must give an equal dataset on valid input and the same
exception type and message on invalid input.
"""
from __future__ import annotations

from dataclasses import dataclass

from qavote.corpus import Dataset, Paragraph, SchemaError


@dataclass(frozen=True)
class RefQaItem:
    id: str
    question: str
    gold_answers: tuple[str, ...]
    answer_starts: tuple[int, ...]

    def __post_init__(self):
        if not self.gold_answers:
            raise SchemaError(f"question {self.id!r}: gold_answers is empty")
        if len(self.answer_starts) != len(self.gold_answers):
            raise SchemaError(
                f"question {self.id!r}: {len(self.answer_starts)} answer_starts "
                f"for {len(self.gold_answers)} gold_answers"
            )


def ref_require(mapping, key, path, kind):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path} must be an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SchemaError(f"missing required field at {path}.{key}")
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise SchemaError(
            f"field {path}.{key} must be {' or '.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )
    return value


def ref_dataset_from_squad_dict(data: dict) -> Dataset:
    """A Dataset of RefQaItems; compare its items with ``ref_items``."""
    articles = ref_require(data, "data", "$", list)
    decoded: list[Paragraph] = []
    seen_ids = set()
    for a_idx, article in enumerate(articles):
        a_path = f"$.data[{a_idx}]"
        paragraphs = ref_require(article, "paragraphs", a_path, list)
        title = ref_require(article, "title", a_path, str) if "title" in article else ""
        for p_idx, paragraph in enumerate(paragraphs):
            p_path = f"{a_path}.paragraphs[{p_idx}]"
            context = ref_require(paragraph, "context", p_path, str)
            qas = ref_require(paragraph, "qas", p_path, list)
            items = []
            for q_idx, qa in enumerate(qas):
                q_path = f"{p_path}.qas[{q_idx}]"
                qid = ref_require(qa, "id", q_path, str)
                question = ref_require(qa, "question", q_path, str)
                answers = ref_require(qa, "answers", q_path, list)
                if not answers:
                    raise SchemaError(f"empty answers list at {q_path}.answers")
                if qid in seen_ids:
                    raise SchemaError(f"duplicate question id {qid!r} at {q_path}.id")
                seen_ids.add(qid)
                golds, starts = [], []
                for ans_idx, answer in enumerate(answers):
                    ans_path = f"{q_path}.answers[{ans_idx}]"
                    golds.append(ref_require(answer, "text", ans_path, str))
                    starts.append(ref_require(answer, "answer_start", ans_path, int))
                items.append(
                    RefQaItem(
                        id=qid,
                        question=question,
                        gold_answers=tuple(golds),
                        answer_starts=tuple(starts),
                    )
                )
            if items:  # a paragraph without questions is dropped
                decoded.append(
                    Paragraph(
                        key=f"p{a_idx:05d}_{p_idx:05d}",
                        title=title,
                        context=context,
                        items=tuple(items),
                    )
                )
    return Dataset(tuple(decoded))


def ref_items(dataset: Dataset) -> list[tuple]:
    """Each item's four fields, in order, for either decoder's dataset."""
    return [(i.id, i.question, i.gold_answers, i.answer_starts) for i in dataset.items]
