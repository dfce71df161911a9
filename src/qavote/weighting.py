"""Voting weights derived from pre-evaluation reports.

Class-specific weights: a model's weight for a class is its mean F1 (or EM
rate) over the pre-evaluation questions of that class. Global weights: the
same mean over all pre-evaluation questions, used both for the
class-ignoring ensemble variant and as the fallback for classes with no
pre-evaluation questions. The globally best model (highest global weight,
ties to earlier model order) answers undefined-class questions.
"""
from __future__ import annotations

import enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import SchemaError, _Frozen, _require, _require_float, load_json, write_json
from .metrics import EvalReport, MissingPolicy
from .taxonomy import CLASS_LABELS


class MetricBasis(str, enum.Enum):
    """Which ``ClassStats`` field a weight is: each value names that field."""

    MEAN_F1 = "mean_f1"
    EM_RATE = "em_rate"


class WeightError(ValueError):
    """Raised for inconsistent report sets or an inconsistent weight table."""


class WeightTable(_Frozen):
    """Per-(class, model) and global voting weights within [0, 1], checked when
    built; ``metric_basis`` may be given as its string value. The table holds
    ``models`` as a tuple, and its own copy of every weight row as a read-only
    mapping, so nothing can change it after the checks."""

    __slots__ = _compared = _init_args = ("models", "metric_basis", "class_weights",
                                          "global_weights")

    def __init__(self, models: tuple[str, ...], metric_basis: MetricBasis | str,
                 class_weights: dict[str, dict[str, float]],  # label -> model -> weight
                 global_weights: dict[str, float]):
        metric_basis = MetricBasis(metric_basis)
        models = tuple(models)
        class_weights = {label: MappingProxyType(dict(row)) for label, row in class_weights.items()}
        global_weights = MappingProxyType(dict(global_weights))
        if not models:
            raise WeightError("weight table needs at least one model")
        if len(set(models)) != len(models):
            raise WeightError(f"models repeat a name: {list(models)}")
        missing = [m for m in models if m not in global_weights]
        unknown = sorted(set(global_weights) - set(models))
        if missing or unknown:
            raise WeightError(
                f"global weights do not match models {list(models)}: "
                f"missing {missing}, not in models {unknown}"
            )
        for model, weight in global_weights.items():
            _check_weight(weight, f"global weight of {model!r}")
        for label, row in class_weights.items():
            if set(row) != set(models):
                raise WeightError(f"class {label!r} is missing weights for some models")
            for model, weight in row.items():
                _check_weight(weight, f"weight of {model!r} in class {label!r}")
        self._set(models, metric_basis, MappingProxyType(class_weights), global_weights)

    @property
    def best_overall(self) -> str:
        """The model with the highest global weight, the first of equal ones:
        it answers undefined-class questions."""
        return max(self.models, key=self.global_weights.__getitem__)

    def row(self, label: str) -> tuple[float, ...]:
        """The label's weights in model order; an unknown label gets the global weights."""
        weights = self.class_weights.get(label, self.global_weights)
        return tuple(weights[model] for model in self.models)

    def ignoring_classes(self) -> "WeightTable":
        """This table with every class row replaced by the global weights, checked."""
        return self._replace(class_weights=dict.fromkeys(self.class_weights, self.global_weights))

    def to_json_dict(self) -> dict:
        return {
            "models": list(self.models),
            "metric_basis": self.metric_basis.value,
            "global": dict(self.global_weights),
            "classes": {label: dict(row) for label, row in self.class_weights.items()},
            "best_overall": self.best_overall,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WeightTable":
        """Table from parsed JSON; nothing is coerced, and a field of the wrong
        type raises SchemaError naming its JSON path."""
        models = dict(enumerate(_require(data, "models", "$", list)))
        classes = _require(data, "classes", "$", dict)
        table = cls(
            models=tuple(_require(models, i, "$.models", str) for i in models),
            metric_basis=_require(data, "metric_basis", "$", MetricBasis),
            class_weights={label: _weight_row(classes, label, "$.classes") for label in classes},
            global_weights=_weight_row(data, "global", "$"),
        )
        best_overall = _require(data, "best_overall", "$", str)
        if best_overall != table.best_overall:
            raise SchemaError(f"field $.best_overall must be {table.best_overall!r}, the "
                              f"global-weight argmax, got {best_overall!r}")
        return table


def _weight_row(mapping: Mapping, key: str, path: str) -> dict[str, float]:
    """``mapping[key]`` as model -> weight; every weight must be a JSON number."""
    row = _require(mapping, key, path, dict)
    return {model: _require_float(row, model, f"{path}.{key}") for model in row}


def _check_weight(weight: float, what: str) -> None:
    if type(weight) is bool or not isinstance(weight, (int, float)):
        raise WeightError(f"{what} must be a number, got {weight!r}")
    if not 0.0 <= weight <= 1.0:
        raise WeightError(f"{what} out of [0, 1]: {weight}")


def _check_reports(reports: Mapping[str, EvalReport]) -> None:
    """``score_as_empty`` reports cover the same questions (an ``exclude`` one
    covers those its model answered), and some report scored a question."""
    if not reports:
        raise WeightError("need at least one model report")
    id_sets = {model: frozenset(report.per_question) for model, report in reports.items()
               if report.missing_policy is MissingPolicy.SCORE_AS_EMPTY}
    first_model = next(iter(id_sets), None)
    for model, ids in id_sets.items():
        if ids != id_sets[first_model]:
            raise WeightError(
                f"pre-evaluation id sets differ between {first_model!r} and {model!r}")
    if not any(report.per_question for report in reports.values()):  # all weights 0.0
        raise WeightError("the pre-evaluation set has no scored question: it is empty, "
                          "or under 'exclude' no model answers any of its questions")


def compute_class_weights(
    reports: Mapping[str, EvalReport],
    basis: MetricBasis | str = MetricBasis.MEAN_F1,
    labels: Sequence[str] = CLASS_LABELS,
) -> WeightTable:
    """Class-specific weight table from per-model pre-evaluation reports.

    ``labels`` is the classifier's label universe; classes with no
    pre-evaluation questions get the model's global weight. Model order
    follows the ``reports`` mapping order and is the tie-break order
    everywhere downstream.
    """
    _check_reports(reports)
    basis = MetricBasis(basis)
    models = tuple(reports)
    global_weights = {
        model: getattr(report.overall, basis.value) for model, report in reports.items()
    }
    all_labels = list(labels)
    for report in reports.values():
        for label in report.per_class:
            if label not in all_labels:
                all_labels.append(label)
    class_weights: dict[str, dict[str, float]] = {}
    for label in all_labels:
        row = {}
        for model in models:
            stats = reports[model].per_class.get(label)
            if stats is None or stats.count == 0:
                row[model] = global_weights[model]
            else:
                row[model] = getattr(stats, basis.value)
        class_weights[label] = row
    return WeightTable(models, basis, class_weights, global_weights)


def compute_global_weights(
    reports: Mapping[str, EvalReport],
    basis: MetricBasis | str = MetricBasis.MEAN_F1,
    labels: Sequence[str] = CLASS_LABELS,
) -> WeightTable:
    """Degenerate table: every class slot holds the model's global weight.

    Voting on it with the undefined special case off is the class-ignoring
    ensemble.
    """
    return compute_class_weights(reports, basis, labels).ignoring_classes()


def save_weights(table: WeightTable, path: str | Path) -> None:
    write_json(table.to_json_dict(), path, indent=1)


def load_weights(path: str | Path) -> WeightTable:
    return load_json(path, WeightTable.from_json_dict)
