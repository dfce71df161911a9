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

Every input file goes through ``load_json`` and every output through
``atomic_write``: a malformed input is one error naming the file and the JSON
path (``_require``), and a failed write leaves the previous file in place.

A dataset is decoded in one pass (``dataset_from_squad_dict``): exact type
checks per object, and a JSON path is built only for an object that fails
them. A paragraph without questions is dropped there, as ``Dataset.subset``
drops a paragraph it empties. ``write_json`` encodes its value with one
``json.dumps`` call: compact output (datasets, predictions) runs CPython's C
encoder; indented output (manifests, weights) is small, and the one large
indented file, ``report.json``, has its own writer (``metrics``).
"""
from __future__ import annotations

import enum
import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple


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
# Only a \uD800-\uDFFF escape makes a surrogate: a text without ``\ud`` or ``\uD``
# needs no walk. One search scans the text once; two substring tests scan it twice.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD]")


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
    if _SURROGATE_ESCAPE.search(text):
        where = _lone_surrogate(value)
        if where is not None:
            raise SchemaError(f"{path}: not valid JSON: lone surrogate in {where}")
    return value


def load_json(path: str | Path, decode: Callable):
    """``decode(read_json(path))``; a ValueError from ``decode`` is raised again,
    of its class, with ``path`` in front of its message."""
    value = read_json(path)
    try:
        return decode(value)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
        fh.write(json.dumps(obj, ensure_ascii=False, indent=indent))
        fh.write("\n")


class QaItem(NamedTuple):
    """One question: its paragraph context and the accepted gold answers.

    Immutable; build a changed copy with ``item._replace(...)``. A ``Dataset``
    checks its items: a tuple of at least one gold answer, one start per gold
    answer.
    """

    id: str
    question: str
    context: str
    gold_answers: tuple[str, ...]
    answer_starts: tuple[int, ...]


class Paragraph(NamedTuple):
    """One context paragraph: its key, its article's title, and its questions."""

    key: str
    title: str
    context: str
    items: tuple[QaItem, ...]


class _Frozen:
    """Base of a record that checks its fields. Its constructor takes the
    ``_init_args`` fields in order, checks them and sets each once, through
    ``_set``, in the slot of its name; no slot can be assigned afterwards. Two
    records are equal when they are of one class and their ``_compared``
    fields are equal, so a record never equals a tuple, and it is unhashable.
    ``_replace``, ``copy`` and ``pickle`` build a record from its
    ``_init_args`` fields by the constructor, which checks them again."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for field, value in zip(self._init_args, values, strict=True):
            object.__setattr__(self, field, value)

    def _replace(self, **changes):
        """This record with ``changes`` (field name -> value), built by the
        constructor; an unknown field name is a ValueError, as in a NamedTuple."""
        unknown = changes.keys() - self._init_args
        if unknown:
            raise ValueError(f"got unexpected field names: {sorted(unknown)!r}")
        return type(self)(*[changes.get(f, getattr(self, f)) for f in self._init_args])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._compared)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._init_args)

    def __repr__(self):
        return f"{type(self).__name__}{self.__reduce__()[1]!r}"


class Dataset(_Frozen):
    """An ordered, immutable collection of paragraphs, each holding its questions;
    building one checks every item, that every paragraph holds a question and
    that question ids are unique."""

    __slots__ = ("paragraphs", "items")
    _compared = _init_args = ("paragraphs",)

    def __init__(self, paragraphs: tuple[Paragraph, ...]):
        for paragraph in paragraphs:  # the decoder and ``subset`` drop such paragraphs
            if not paragraph.items:
                raise SchemaError(f"paragraph {paragraph.key!r} has no questions")
        for item in self._fill(paragraphs).items:
            if not isinstance(item.gold_answers, tuple):  # scores are memoized per gold tuple
                raise SchemaError(f"question {item.id!r}: gold_answers must be a tuple")
            if not item.gold_answers:
                raise SchemaError(f"question {item.id!r}: gold_answers is empty")
            if len(item.answer_starts) != len(item.gold_answers):
                raise SchemaError(
                    f"question {item.id!r}: {len(item.answer_starts)} answer_starts "
                    f"for {len(item.gold_answers)} gold_answers"
                )
        ids = self.ids
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise SchemaError(f"duplicate question ids: {dupes[:5]}")

    def _fill(self, paragraphs) -> "Dataset":
        """Set the paragraphs and ``items``, every paragraph's questions in order."""
        self._set(paragraphs)
        object.__setattr__(self, "items", tuple(chain.from_iterable(p.items for p in paragraphs)))
        return self

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self.items)

    def subset(self, keep_ids: Iterable[str]) -> "Dataset":
        """New Dataset with only ``keep_ids``, preserving question and paragraph
        order; a paragraph that keeps every question is reused as it is, and one
        left without questions is dropped. Not checked again:
        a subset of a checked dataset passes every check."""
        keep = set(keep_ids)
        paragraphs = []
        for paragraph in self.paragraphs:
            kept = tuple(item for item in paragraph.items if item.id in keep)
            if kept:
                paragraphs.append(paragraph if len(kept) == len(paragraph.items)
                                  else paragraph._replace(items=kept))
        return object.__new__(Dataset)._fill(tuple(paragraphs))


class PredictionSet(_Frozen):
    """A named model's answers, keyed by question id.

    May cover only a subset of a dataset's questions; the gap is handled by
    the evaluation missing-prediction policy, not here. ``meta`` carries
    generator-side annotations (e.g. synthetic fallback ids); it is not part
    of the on-disk format, nor of equality. The model name, every question id
    and every answer must be a ``str``; the set holds its own copy of
    ``answers``.
    """

    __slots__ = ("model_name", "answers", "meta")
    _compared = ("model_name", "answers")
    _init_args = ("model_name", "answers", "meta")

    def __init__(self, model_name: str, answers: Mapping[str, str],
                 meta: Mapping[str, object] | None = None):
        if not isinstance(model_name, str):
            raise SchemaError(f"model_name must be str, got {type(model_name).__name__}")
        answers = dict(answers)
        for qid, answer in answers.items():
            if not isinstance(qid, str):
                raise SchemaError(f"question id {qid!r} must be str, got {type(qid).__name__}")
            if not isinstance(answer, str):
                raise SchemaError(f"answer to {qid!r} must be str, got {type(answer).__name__}")
        self._set(model_name, answers, {} if meta is None else meta)

    def __len__(self) -> int:
        return len(self.answers)


class Granularity(str, enum.Enum):
    QUESTION = "question"
    PARAGRAPH = "paragraph"


class SplitResult(NamedTuple):
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
    """``mapping[key]``, which must exist and be a ``kind``: a type, a tuple of
    types (JSON true/false is no int or float) or a str Enum, whose member it
    returns. ``path`` is the JSON path of ``mapping``, which must be an object;
    an int ``key`` is a list index (``mapping`` is ``dict(enumerate(a_list))``)."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path} must be an object, got {type(mapping).__name__}")
    field = f"{path}[{key}]" if type(key) is int else f"{path}.{key}"
    if key not in mapping:
        raise SchemaError(f"missing required field at {field}")
    value = mapping[key]
    if isinstance(kind, enum.EnumMeta):
        values = [member.value for member in kind]
        if value not in values:
            raise SchemaError(f"field {field} must be one of {values}, got {value!r}")
        return kind(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise SchemaError(
            f"field {field} must be {' or '.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )
    return value


def _require_float(mapping, key, path) -> float:
    """``mapping[key]``, which must be a JSON number, as a float; an integer too
    large for a float raises SchemaError naming its JSON path."""
    value = _require(mapping, key, path, (int, float))
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"field {path}.{key} is too large for a float") from None


def dataset_from_squad_dict(data: dict) -> Dataset:
    """Build a Dataset from already-parsed SQuAD-format JSON.

    Every field must have its SQuAD type; nothing is coerced. A violation, or
    a question id seen earlier in the document, raises SchemaError naming the
    field's JSON path. A paragraph with no questions is dropped; the others
    keep their ``p<article>_<paragraph>`` keys.

    One pass over the document: each object's fields are tested with exact
    ``type(x) is ...`` checks. Only an object that fails them is read again
    field by field through ``_require``, which builds the JSON path and either
    raises or accepts the value (a ``str`` or ``int`` subclass), so every
    error and every accepted input is the same as a ``_require`` per field.
    These checks are every check ``Dataset`` makes (a gold answer each, one
    start per gold, unique ids), so the result is built without repeating them.
    """
    articles = _require(data, "data", "$", list)
    decoded: list[Paragraph] = []
    seen_ids: set[str] = set()
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
            items = []
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
                if qid in seen_ids:
                    raise SchemaError(f"duplicate question id {qid!r} at "
                                      f"$.data[{a_idx}].paragraphs[{p_idx}].qas[{q_idx}].id")
                seen_ids.add(qid)
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
            if items:
                decoded.append(
                    Paragraph(f"p{a_idx:05d}_{p_idx:05d}", title, context, tuple(items)))
    return object.__new__(Dataset)._fill(tuple(decoded))


def load_dataset(path: str | Path) -> Dataset:
    """Load a SQuAD v1.1 JSON file. Duplicate question ids are a hard error."""
    return load_json(path, dataset_from_squad_dict)


def dataset_to_squad_dict(dataset: Dataset, version: str = "1.1") -> dict:
    """SQuAD JSON of ``dataset``, which ``dataset_from_squad_dict`` reads back with
    the same questions in the same order: each run of consecutive paragraphs
    with one title is one article."""
    return {"version": version, "data": [
        {"title": title, "paragraphs": [
            {"context": paragraph.context, "qas": [
                {
                    "id": item.id,
                    "question": item.question,
                    "answers": [
                        {"text": text, "answer_start": start}
                        for text, start in zip(item.gold_answers, item.answer_starts)
                    ],
                }
                for item in paragraph.items
            ]}
            for paragraph in paragraphs
        ]}
        for title, paragraphs in groupby(dataset.paragraphs, key=lambda p: p.title)
    ]}


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    write_json(dataset_to_squad_dict(dataset), path)


def load_predictions(path: str | Path, model_name: str) -> PredictionSet:
    """Load a flat {id: answer} prediction file; strings kept byte-for-byte."""
    def decode(answers) -> PredictionSet:
        if not isinstance(answers, dict):
            raise SchemaError(f"$ must be an object, got {type(answers).__name__}")
        for qid, answer in answers.items():
            if not isinstance(answer, str):  # read again for the error
                _require(answers, qid, "$", str)
        return PredictionSet(model_name, answers)

    return load_json(path, decode)


def save_predictions(predictions: PredictionSet, path: str | Path) -> None:
    write_json(dict(predictions.answers), path)


def check_fraction(fraction: float) -> None:
    """A split fraction outside [0, 1], NaN included, is a ValueError."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")


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
    from hashlib import sha256  # only a split pays for this import

    check_fraction(fraction)
    granularity = Granularity(granularity)

    if granularity is Granularity.QUESTION:
        units = [(item.id, (item.id,)) for item in dataset.items]
    else:
        units = [(paragraph.key, tuple(item.id for item in paragraph.items))
                 for paragraph in dataset.paragraphs]

    target = fraction * len(dataset)
    ordered = sorted(
        units, key=lambda unit: (sha256(f"{seed}:{unit[0]}".encode("utf-8")).hexdigest(), unit[0]))
    pre_eval_ids: set[str] = set()
    count = 0
    for _, qids in ordered:
        if count >= target:
            break
        pre_eval_ids.update(qids)
        count += len(qids)

    pre_eval = dataset.subset(pre_eval_ids)
    train = dataset.subset(qid for qid in dataset.ids if qid not in pre_eval_ids)
    return SplitResult(
        train=train, pre_eval=pre_eval, fraction=fraction, seed=seed, granularity=granularity
    )


def save_split_manifest(split: SplitResult, path: str | Path) -> None:
    write_json(split.manifest(), path, indent=1)
