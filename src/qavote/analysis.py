"""Pairwise prediction-similarity statistics and tabular report exports.

A pair report is built from two ``EvalReport``s over the same dataset and
classifier. It counts, per class, how often the two models' F1 values are
exactly equal and how often their EM flags agree. Both scores come from
``evaluate``, the same scoring function, so F1 equality is exact float
equality, no epsilon, and nothing here scores or classifies a question.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .corpus import write_json
from .metrics import ClassStats, EvalReport


@dataclass(frozen=True)
class SimTriple:
    equal_f1: int
    equal_em: int
    total: int


@dataclass(frozen=True)
class SimilarityReport:
    model_a: str
    model_b: str
    per_class: dict[str, SimTriple]
    overall: SimTriple
    mean_of_equal_f1s: float
    equal_em_true_count: int
    equal_em_true_rate: float

    def to_json_dict(self) -> dict:
        def triple(t: SimTriple) -> dict:
            return {"equal_f1": t.equal_f1, "equal_em": t.equal_em, "total": t.total}

        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "per_class": {label: triple(t) for label, t in self.per_class.items()},
            "overall": triple(self.overall),
            "mean_of_equal_f1s": self.mean_of_equal_f1s,
            "equal_em_true_count": self.equal_em_true_count,
            "equal_em_true_rate": self.equal_em_true_rate,
        }


def pairwise_similarity(
    report_a: EvalReport,
    report_b: EvalReport,
    label_order: Sequence[str],
) -> SimilarityReport:
    """Count equal-F1 and equal-EM questions per class for a model pair.

    The questions counted are those present in both reports, in
    ``report_a``'s dataset order: every question when both were evaluated
    with the default missing policy, only those both models answered under
    ``exclude``. Classes come in ``label_order`` (the classifier's labels)
    first, then in order of first appearance.
    """
    counts: dict[str, list[int]] = {}
    equal_f1_sum = 0.0
    equal_f1_n = 0
    equal_em_true = 0
    scores_b = report_b.per_question
    for qid, label in report_a.labels.items():
        score_b = scores_b.get(qid)
        if score_b is None:
            continue
        score_a = report_a.per_question[qid]
        bucket = counts.setdefault(label, [0, 0, 0])
        bucket[2] += 1
        if score_a.f1 == score_b.f1:
            bucket[0] += 1
            equal_f1_sum += score_a.f1
            equal_f1_n += 1
        if score_a.em == score_b.em:
            bucket[1] += 1
            if score_a.em:
                equal_em_true += 1

    ordered = [label for label in label_order if label in counts]
    ordered += [label for label in counts if label not in ordered]
    per_class = {label: SimTriple(*counts[label]) for label in ordered}
    overall = SimTriple(
        equal_f1=sum(t.equal_f1 for t in per_class.values()),
        equal_em=sum(t.equal_em for t in per_class.values()),
        total=sum(t.total for t in per_class.values()),
    )
    equal_em_total = overall.equal_em
    return SimilarityReport(
        model_a=report_a.model,
        model_b=report_b.model,
        per_class=per_class,
        overall=overall,
        mean_of_equal_f1s=equal_f1_sum / equal_f1_n if equal_f1_n else 0.0,
        equal_em_true_count=equal_em_true,
        equal_em_true_rate=equal_em_true / equal_em_total if equal_em_total else 0.0,
    )


def _pct(part: int, whole: int) -> str:
    return f"{100 * part / whole:.1f}%" if whole else "0.0%"


def similarity_csv(report: SimilarityReport) -> str:
    """Per-class agreement table: count cells carry their percentage."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", "equal_f1", "equal_em", "total"])
    for label, t in report.per_class.items():
        writer.writerow(
            [
                label,
                f"{t.equal_f1} ({_pct(t.equal_f1, t.total)})",
                f"{t.equal_em} ({_pct(t.equal_em, t.total)})",
                t.total,
            ]
        )
    o = report.overall
    writer.writerow(
        [
            "SUM",
            f"{o.equal_f1} ({_pct(o.equal_f1, o.total)})",
            f"{o.equal_em} ({_pct(o.equal_em, o.total)})",
            o.total,
        ]
    )
    return buf.getvalue()


def eval_breakdown_csv(reports: Sequence[EvalReport]) -> str:
    """Per-class metrics of several reports over one dataset, then a ``SUM`` row.

    Each model has its own ``<name>_count``, ``<name>_f1`` and ``<name>_em``
    columns, since under ``exclude`` models may score different questions; a
    class with none of a model's questions reads count 0 and empty metrics.
    Metric cells are percentages at 2 decimals; the JSON report keeps full
    precision.
    """
    if not reports:
        raise ValueError("need at least one report")
    labels: list[str] = []
    for report in reports:
        for label in report.per_class:
            if label not in labels:
                labels.append(label)

    def cells(stats: ClassStats | None) -> list:
        if stats is None:
            return [0, "", ""]
        return [stats.count, f"{100 * stats.mean_f1:.2f}", f"{100 * stats.em_rate:.2f}"]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class"] + [f"{r.model or 'model'}_{column}" for r in reports
                                 for column in ("count", "f1", "em")])
    for label in labels:
        writer.writerow([label] + [c for r in reports for c in cells(r.per_class.get(label))])
    writer.writerow(["SUM"] + [c for r in reports for c in cells(r.overall)])
    return buf.getvalue()


def save_similarity_json(report: SimilarityReport, path) -> None:
    write_json(report.to_json_dict(), path, indent=1)
