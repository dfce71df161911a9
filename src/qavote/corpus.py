"""Dataset and prediction-file ingestion plus the deterministic holdout split.

File formats:
  * dataset: SQuAD v1.1 JSON, {"version", "data": [{"title", "paragraphs":
    [{"context", "qas": [{"id", "question", "answers": [{"text",
    "answer_start"}]}]}]}]}
  * predictions: flat JSON object {question_id: answer_string}
  * split manifest: {"fraction", "seed", "granularity", "pre_eval_ids"}

The splitter orders units (questions, or whole paragraphs) by a seeded hash
of their id and takes the prefix, so identical inputs always produce a
byte-identical split regardless of platform or interpreter version.

Every input file goes through ``read_json`` and every output through
``atomic_write``: an input that is not JSON is one SchemaError naming the
file, and a failed write leaves the previous file in place.

A dataset is decoded in one pass (``dataset_from_squad_dict``): exact type
checks per object, and a JSON path is built only for an object that fails
them. ``write_json`` encodes compact output (datasets, predictions) with one
``json.dumps`` call, the only call that runs CPython's C encoder, and streams
indented output (reports, manifests), which has no C encoder.
"""
from __future__ import annotations

import enum
import hashlib
import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple


class SchemaError(ValueError):
    """Input file violates the expected schema; message carries the JSON path."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.load`` object hook: the object's dict; a repeated key is an error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"duplicate key {key!r}")
    return obj


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _lone_surrogate(value) -> str | None:
    """Where the first string (key or value) of a parsed JSON document holds a
    lone surrogate, as "the string at <JSON path>" or "a key of <JSON path>";
    None if no string does. Walks with its own stack: the document may be
    nested nearly as deep as the recursion limit."""
    stack = [("$", value)]
    while stack:
        path, node = stack.pop()
        if type(node) is str:
            if _SURROGATE.search(node):
                return f"the string at {path}"
        elif type(node) is dict:
            for key in node:
                if _SURROGATE.search(key):
                    return f"a key of {path}"
            stack.extend((f"{path}.{key}", child) for key, child in reversed(node.items()))
        elif type(node) is list:
            stack.extend((f"{path}[{i}]", child) for i, child in reversed(list(enumerate(node))))
    return None


def read_json(path: str | Path):
    """Parse the UTF-8 JSON file at ``path``. Invalid UTF-8 or JSON, nesting too
    deep to parse, a key repeated within one object and a string holding a lone
    surrogate escape (``"\\ud800"``, which no UTF-8 output can hold) all raise
    ``SchemaError("<path>: not valid JSON: <reason>")``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
            value = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    # Only a \uD800-\uDFFF escape makes a surrogate: skip the walk without one.
    if "\\ud" in text or "\\uD" in text:
        where = _lone_surrogate(value)
        if where is not None:
            raise SchemaError(f"{path}: not valid JSON: lone surrogate in {where}")
    return value


@contextmanager
def atomic_write(path: str | Path):
    """Yield a UTF-8 text handle whose content replaces ``path`` once the body finishes.

    The handle writes a temporary file beside ``path``, opened with ``open`` so
    that its mode follows the umask like any file ``open(path, "w")`` creates.
    If the body raises, the temporary file is removed and ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except FileNotFoundError as exc:  # a missing directory: name the target, not tmp
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # e.g. path is a directory: name the target, not tmp
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path: str | Path, indent: int | None = None) -> None:
    """Write ``obj`` as JSON (non-ASCII characters kept) plus a newline, atomically."""
    with atomic_write(path) as fh:
        if indent is None:  # json.dumps runs the C encoder; json.dump never does
            fh.write(json.dumps(obj, ensure_ascii=False))
        else:  # no C encoder for indented output: stream it
            json.dump(obj, fh, ensure_ascii=False, indent=indent)
        fh.write("\n")


class QaItem(NamedTuple):
    """One question: its paragraph context and the accepted gold answers.

    Immutable; build a changed copy with ``item._replace(...)``. A ``Dataset``
    checks its items: at least one gold answer, one start per gold answer.
    """

    id: str
    question: str
    context: str
    gold_answers: tuple[str, ...]
    answer_starts: tuple[int, ...]


@dataclass(frozen=True)
class ParagraphGroup:
    """All questions sharing one context paragraph."""

    key: str
    title: str
    context: str
    item_ids: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of QaItems grouped by paragraph."""

    items: tuple[QaItem, ...]
    provenance: str
    groups: tuple[ParagraphGroup, ...]

    def __post_init__(self):
        for item in self.items:
            if not item.gold_answers:
                raise SchemaError(f"question {item.id!r}: gold_answers is empty")
            if len(item.answer_starts) != len(item.gold_answers):
                raise SchemaError(
                    f"question {item.id!r}: {len(item.answer_starts)} answer_starts "
                    f"for {len(item.gold_answers)} gold_answers"
                )
        ids = [item.id for item in self.items]
        unique = set(ids)
        if len(unique) != len(ids):
            seen, dupes = set(), set()
            for i in ids:
                (dupes if i in seen else seen).add(i)
            raise SchemaError(f"duplicate question ids: {sorted(dupes)[:5]}")
        # With unique ids, equal sizes and equal sets make the groups a permutation.
        grouped = [qid for group in self.groups for qid in group.item_ids]
        if len(grouped) != len(ids) or set(grouped) != unique:
            raise SchemaError("paragraph groups do not partition the item ids")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self.items)

    def by_id(self) -> dict[str, QaItem]:
        return {item.id: item for item in self.items}

    def subset(self, keep_ids: Iterable[str], provenance: str) -> "Dataset":
        """New Dataset with only ``keep_ids``, preserving item and group order."""
        keep = set(keep_ids)
        items = tuple(item for item in self.items if item.id in keep)
        groups = []
        for group in self.groups:
            kept = tuple(qid for qid in group.item_ids if qid in keep)
            if kept:
                groups.append(
                    ParagraphGroup(key=group.key, title=group.title, context=group.context, item_ids=kept)
                )
        return Dataset(items=items, provenance=provenance, groups=tuple(groups))


@dataclass(frozen=True)
class PredictionSet:
    """A named model's answers, keyed by question id.

    May cover only a subset of a dataset's questions; the gap is handled by
    the evaluation missing-prediction policy, not here. ``meta`` carries
    generator-side annotations (e.g. synthetic fallback ids) and is not part
    of the on-disk format.
    """

    model_name: str
    answers: Mapping[str, str]
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.answers)


class Granularity(str, enum.Enum):
    QUESTION = "question"
    PARAGRAPH = "paragraph"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    pre_eval: Dataset
    fraction: float
    seed: int
    granularity: Granularity

    def manifest(self) -> dict:
        """JSON-ready manifest: ``split_pre_eval`` with its fraction, seed and
        granularity rebuilds the split it lists."""
        return {
            "fraction": self.fraction,
            "seed": self.seed,
            "granularity": self.granularity.value,
            "pre_eval_ids": list(self.pre_eval.ids),
        }


def _require(mapping, key, path, kind):
    """``mapping[key]``, which must exist and be a ``kind``: a type or a tuple of
    types (JSON true/false is no int or float). ``path`` is the JSON path of
    ``mapping``, which must be an object."""
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


def dataset_from_squad_dict(data: dict, provenance: str) -> Dataset:
    """Build a Dataset from already-parsed SQuAD-format JSON.

    Every field must have its SQuAD type; nothing is coerced. A violation
    raises SchemaError naming the field's JSON path.

    One pass over the document: each object's fields are tested with exact
    ``type(x) is ...`` checks. Only an object that fails them is read again
    field by field through ``_require``, which builds the JSON path and either
    raises or accepts the value (a ``str`` or ``int`` subclass), so every
    error and every accepted input is the same as a ``_require`` per field.
    """
    articles = _require(data, "data", "$", list)
    items: list[QaItem] = []
    groups: list[ParagraphGroup] = []
    for a_idx, article in enumerate(articles):
        if not (type(article) is dict
                and type(paragraphs := article.get("paragraphs")) is list
                and type(title := article.get("title", "")) is str):
            a_path = f"$.data[{a_idx}]"
            paragraphs = _require(article, "paragraphs", a_path, list)
            title = _require(article, "title", a_path, str) if "title" in article else ""
        for p_idx, paragraph in enumerate(paragraphs):
            if not (type(paragraph) is dict
                    and type(context := paragraph.get("context")) is str
                    and type(qas := paragraph.get("qas")) is list):
                p_path = f"$.data[{a_idx}].paragraphs[{p_idx}]"
                context = _require(paragraph, "context", p_path, str)
                qas = _require(paragraph, "qas", p_path, list)
            group_ids = []
            for q_idx, qa in enumerate(qas):
                if not (type(qa) is dict
                        and type(qid := qa.get("id")) is str
                        and type(question := qa.get("question")) is str
                        and type(answers := qa.get("answers")) is list
                        and answers):
                    q_path = f"$.data[{a_idx}].paragraphs[{p_idx}].qas[{q_idx}]"
                    qid = _require(qa, "id", q_path, str)
                    question = _require(qa, "question", q_path, str)
                    answers = _require(qa, "answers", q_path, list)
                    if not answers:
                        raise SchemaError(f"empty answers list at {q_path}.answers")
                golds, starts = [], []
                for ans_idx, answer in enumerate(answers):
                    if not (type(answer) is dict
                            and type(text := answer.get("text")) is str
                            and type(start := answer.get("answer_start")) is int):
                        ans_path = (f"$.data[{a_idx}].paragraphs[{p_idx}].qas[{q_idx}]"
                                    f".answers[{ans_idx}]")
                        text = _require(answer, "text", ans_path, str)
                        start = _require(answer, "answer_start", ans_path, int)
                    golds.append(text)
                    starts.append(start)
                items.append(QaItem(qid, question, context, tuple(golds), tuple(starts)))
                group_ids.append(qid)
            groups.append(
                ParagraphGroup(
                    key=f"p{a_idx:05d}_{p_idx:05d}",
                    title=title,
                    context=context,
                    item_ids=tuple(group_ids),
                )
            )
    return Dataset(items=tuple(items), provenance=provenance, groups=tuple(groups))


def load_dataset(path: str | Path) -> Dataset:
    """Load a SQuAD v1.1 JSON file. Duplicate question ids are a hard error."""
    return dataset_from_squad_dict(read_json(path), provenance=str(Path(path)))


def dataset_to_squad_dict(dataset: Dataset, version: str = "1.1") -> dict:
    """Inverse of dataset_from_squad_dict; articles keep first-seen title order."""
    by_id = dataset.by_id()
    articles: list[dict] = []
    article_index: dict[str, int] = {}
    for group in dataset.groups:
        if group.title not in article_index:
            article_index[group.title] = len(articles)
            articles.append({"title": group.title, "paragraphs": []})
        qas = []
        for qid in group.item_ids:
            item = by_id[qid]
            qas.append(
                {
                    "id": item.id,
                    "question": item.question,
                    "answers": [
                        {"text": text, "answer_start": start}
                        for text, start in zip(item.gold_answers, item.answer_starts)
                    ],
                }
            )
        articles[article_index[group.title]]["paragraphs"].append(
            {"context": group.context, "qas": qas}
        )
    return {"version": version, "data": articles}


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    write_json(dataset_to_squad_dict(dataset), path)


def load_predictions(path: str | Path, model_name: str) -> PredictionSet:
    """Load a flat {id: answer} prediction file; strings kept byte-for-byte."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: prediction file must be a JSON object")
    for qid, answer in raw.items():
        if not isinstance(answer, str):
            raise SchemaError(f"{path}: value for id {qid!r} is not a string")
    return PredictionSet(model_name=model_name, answers=raw)


def save_predictions(predictions: PredictionSet, path: str | Path) -> None:
    write_json(dict(predictions.answers), path)


def _unit_sort_key(seed: int, unit_id: str) -> tuple[str, str]:
    digest = hashlib.sha256(f"{seed}:{unit_id}".encode("utf-8")).hexdigest()
    return (digest, unit_id)


def split_pre_eval(
    dataset: Dataset,
    fraction: float,
    seed: int,
    granularity: Granularity | str = Granularity.QUESTION,
) -> SplitResult:
    """Hold out a pre-evaluation slice of ~``fraction`` of the questions.

    Units (single questions, or whole paragraphs) are ordered by a seeded
    hash and moved into the holdout until its question count first reaches
    or exceeds ``fraction * len(dataset)``. Paragraph granularity never
    separates questions sharing a paragraph.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    granularity = Granularity(granularity)

    if granularity is Granularity.QUESTION:
        units = [(item.id, (item.id,)) for item in dataset.items]
    else:
        units = [(group.key, group.item_ids) for group in dataset.groups]

    target = fraction * len(dataset)
    ordered = sorted(units, key=lambda unit: _unit_sort_key(seed, unit[0]))
    pre_eval_ids: set[str] = set()
    count = 0
    for _, qids in ordered:
        if count >= target:
            break
        pre_eval_ids.update(qids)
        count += len(qids)

    pre_eval = dataset.subset(pre_eval_ids, provenance=f"{dataset.provenance}[pre_eval]")
    train_ids = [qid for qid in dataset.ids if qid not in pre_eval_ids]
    train = dataset.subset(train_ids, provenance=f"{dataset.provenance}[train]")
    return SplitResult(
        train=train, pre_eval=pre_eval, fraction=fraction, seed=seed, granularity=granularity
    )


def save_split_manifest(split: SplitResult, path: str | Path) -> None:
    write_json(split.manifest(), path, indent=1)
