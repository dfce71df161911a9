"""Traced run: every CLI command of a workload, in one process, with layer spans.

    PYTHONPATH=src python3 bench/tracer.py PLAN.json

PLAN.json holds ``{"steps": [[name, argv], ...], "length_buckets", "spans",
"counts"}``. Each step runs ``qavote.cli.main(argv)``, the CLI's own code.
Before that, the layer functions ``qavote.cli`` imports are replaced in its
namespace by wrappers that record a span around each call and count what it
returned; nothing inside ``src/`` is instrumented or copied. The traced run
therefore writes the same files as the CLI would. The one intended
difference: ``evaluate`` is called with the library default of one thread,
so the CLI's ``--threads`` pool shows up in ``cli.<command>.self_s`` and not
in ``metrics.evaluate_s``.

The run is its own process so that the benchmark's generator state does not
slow the interpreter it measures.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("corpus", "taxonomy", "metrics", "weighting", "voting", "analysis", "synth")
MIB = 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: str


@dataclass
class Tracer:
    """Spans and counts kept in memory and written when the run ends."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    run_id: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return covered

    def self_times(self) -> list[float]:
        """Per span, its duration minus the part its child spans cover."""
        return [s.end - s.start - c for s, c in zip(self.spans, self.child_time())]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write(self, spans_path: Path, counts_path: Path) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run_id": s.run_id}) + "\n")
        with open(counts_path, "w", encoding="utf-8") as fh:
            json.dump(self.counts, fh)

    @classmethod
    def read(cls, spans_path: Path, counts_path: Path) -> "Tracer":
        with open(spans_path, encoding="utf-8") as fh:
            spans = [Span(**json.loads(line)) for line in fh]
        with open(counts_path, encoding="utf-8") as fh:
            return cls(spans=spans, counts=Counter(json.load(fh)))


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one span costs the traced run, measured on empty spans."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


# The layer functions ``qavote.cli`` calls, by the names it imports them under.
# Each is replaced in the ``qavote.cli`` namespace by a wrapper that records a
# span named ``<module>.<name>``, so ``cli.main`` runs its real code path.
TRACED = (
    "load_dataset", "load_predictions", "split_pre_eval", "save_dataset", "save_predictions",
    "save_split_manifest",
    "default_rules", "load_rules", "LengthClassifier", "class_distribution",
    "evaluate", "save_report_json", "save_report_csv",
    "compute_class_weights", "compute_global_weights", "load_weights", "save_weights",
    "run_ensemble", "save_traces",
    "pairwise_similarity", "similarity_csv", "save_similarity_json", "eval_breakdown_csv",
    "load_profile", "generate_predictions",
)


class TracedCli:
    """``qavote.cli.main`` with span wrappers around the layer calls it makes."""

    def __init__(self, tracer: Tracer):
        from qavote import cli

        self.t = tracer
        self.cli = cli
        self.questions_seen: dict[str, str] = {}  # id -> question text, every dataset loaded
        self.strings_seen: set[str] = set()  # gold and predicted answers, every file loaded
        for name in TRACED:
            fn = getattr(cli, name)
            layer = fn.__module__.rsplit(".", 1)[-1]
            after = getattr(self, f"after_{name}", None)
            setattr(cli, name, self.wrap(f"{layer}.{name}", fn, after))

    def wrap(self, span_name: str, fn, after):
        def traced(*args, **kwargs):
            if span_name == "metrics.evaluate":
                # The library default of one thread: the CLI's --threads pool
                # then lands in cli.<command>.self_s, not in metrics.evaluate_s.
                kwargs.pop("threads", None)
            with self.t.span(span_name):
                result = fn(*args, **kwargs)
            if after:
                after(result, *args)
            return result

        return traced

    # -- counts, taken after the span of the call they describe --------------
    def after_load_dataset(self, dataset, path):
        self.t.counts["corpus.load_dataset_bytes"] += os.path.getsize(path)
        for item in dataset.items:
            self.questions_seen[item.id] = item.question
            self.strings_seen.update(item.gold_answers)

    def after_load_predictions(self, preds, *_):
        self.strings_seen.update(preds.answers.values())

    def after_evaluate(self, report, preds, dataset, *_):
        self.t.counts["metrics.questions"] += len(report.per_question)
        self.t.counts["metrics.gold_answers"] += sum(len(i.gold_answers) for i in dataset.items)

    def after_run_ensemble(self, result, *_):
        _, traces = result
        self.t.counts["voting.votes"] += len(traces)
        for trace in traces:
            self.t.counts["voting.candidates"] += len(trace.candidates)
            self.t.counts[f"voting.reason.{trace.reason.value}"] += 1

    def after_generate_predictions(self, preds, *_):
        self.t.counts["synth.sentinel_fallbacks"] += len(preds.meta.get("sentinel_fallback_ids", ()))

    def after_pairwise_similarity(self, *_):
        self.t.counts["analysis.pairs"] += 1

    def bytes_written(self, _, __, path):
        self.t.counts["corpus.bytes_written"] += os.path.getsize(path)

    after_save_dataset = after_save_predictions = after_save_split_manifest = bytes_written

    def after_save_traces(self, _, __, path):
        self.t.counts["voting.trace_bytes"] += os.path.getsize(path)

    # -- the run ---------------------------------------------------------------
    def run(self, step: str, argv: list[str]) -> None:
        self.t.run_id = step
        with self.t.span(f"cli.{step}"):
            code = self.cli.main(argv)
        if code:
            raise SystemExit(f"qavote {argv[0]} exited with {code}")

    # -- single-layer probes, outside the command spans ------------------------
    def probe(self, length_buckets: str | None) -> None:
        """Classify every question once and normalize every answer string once."""
        from qavote import LengthClassifier, default_rules, normalize_answer

        self.t.run_id = "probe"
        with self.t.span("probe"):
            if length_buckets:
                classifier = LengthClassifier([int(x) for x in length_buckets.split(",")])
            else:
                classifier = default_rules()
            questions = list(self.questions_seen.values())
            strings = sorted(self.strings_seen)
            with self.t.span("taxonomy.classify"):
                for question in questions:
                    classifier(question)
            with self.t.span("metrics.normalize_answer"):
                for text in strings:
                    normalize_answer(text)


def layer_metrics(tracer: Tracer, e2e_median_s: dict[str, float]) -> dict:
    """Every per-layer metric of one traced run, as {name: (value, unit)}."""
    t, c = tracer, tracer.counts
    self_times = tracer.self_times()
    covered = tracer.child_time()
    root = next(i for i, s in enumerate(t.spans) if s.name == "pipeline")
    in_pipeline = set()
    for i, s in enumerate(t.spans):
        if i == root or (s.parent >= 0 and s.parent in in_pipeline):
            in_pipeline.add(i)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    load_s = t.total("corpus.load_dataset")
    evaluate_s = t.total("metrics.evaluate")
    vote_s = t.total("voting.run_ensemble")
    m = {
        "corpus.load_dataset_s": (load_s, "s"),
        "corpus.load_dataset_mb_per_s":
            (rate(c["corpus.load_dataset_bytes"] / MIB, load_s), "MB/s"),
        "corpus.load_predictions_s": (t.total("corpus.load_predictions"), "s"),
        "corpus.split_pre_eval_s": (t.total("corpus.split_pre_eval"), "s"),
        "corpus.save_dataset_s": (t.total("corpus.save_dataset"), "s"),
        "corpus.bytes_written": (c["corpus.bytes_written"], "count"),
        "taxonomy.classify_s": (t.total("taxonomy.classify"), "s"),
        "taxonomy.class_distribution_s": (t.total("taxonomy.class_distribution"), "s"),
        "metrics.normalize_answer_s": (t.total("metrics.normalize_answer"), "s"),
        "metrics.evaluate_s": (evaluate_s, "s"),
        "metrics.evaluate_questions_per_s": (rate(c["metrics.questions"], evaluate_s), "q/s"),
        "metrics.gold_answers": (c["metrics.gold_answers"], "count"),
        "weighting.compute_weights_s": (t.total("weighting.compute_class_weights")
                                        + t.total("weighting.compute_global_weights"), "s"),
        "voting.run_ensemble_s": (vote_s, "s"),
        "voting.votes_per_s": (rate(c["voting.votes"], vote_s), "votes/s"),
        "voting.candidates": (c["voting.candidates"], "count"),
        "voting.reason.merged_duplicates": (c["voting.reason.merged_duplicates"], "count"),
        "voting.reason.highest_weight_no_duplicates":
            (c["voting.reason.highest_weight_no_duplicates"], "count"),
        "voting.reason.undefined_fallback": (c["voting.reason.undefined_fallback"], "count"),
        "voting.save_traces_s": (t.total("voting.save_traces"), "s"),
        "voting.trace_mb": (c["voting.trace_bytes"] / MIB, "MB"),
        "analysis.pairwise_similarity_s":
            (rate(t.total("analysis.pairwise_similarity"), c["analysis.pairs"]), "s"),
        "synth.generate_predictions_s": (t.total("synth.generate_predictions"), "s"),
        "synth.sentinel_fallbacks": (c["synth.sentinel_fallbacks"], "count"),
    }
    for i, s in enumerate(t.spans):
        if s.name.startswith("cli."):
            step = s.name[len("cli."):]
            m[f"cli.{step}.self_s"] = (e2e_median_s[step] - covered[i], "s")
    for layer in LAYERS:
        total = sum(self_times[i] for i in in_pipeline if t.spans[i].name.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total, "s")
    m["trace.overhead_s"] = (c["trace.span_cost_ns"] * 1e-9 * len(t.spans), "s")
    return m


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    cli = TracedCli(tracer)
    with tracer.span("pipeline"):
        for step, step_argv in plan["steps"]:
            cli.run(step, step_argv)
    cli.probe(plan["length_buckets"])
    tracer.counts["trace.span_cost_ns"] = round(1e9 * span_cost_s())
    tracer.write(Path(plan["spans"]), Path(plan["counts"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
