#!/usr/bin/env python3
"""The qavote pipeline benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a seeded SQuAD-shaped workload (gen.py), then runs the working
tree's CLI (``python -m qavote.cli`` with ``PYTHONPATH=src``) as a user
would: one command at a time, each a fresh process, in a closed loop. The
seven pipeline commands are repeated for ``--seconds`` seconds; the first
repetition's artifacts are checked against the generator's truth (checks.py)
and every later repetition must reproduce them byte for byte.

With ``--trace 0`` the result holds the bounded end-to-end metrics: set-up
time, pipeline time and peak RSS, each a median over the repetitions. With
``--trace 1`` the pipeline is also run once more in one separate process
with layer spans (tracer.py), and the result holds the per-layer metrics
and the per-command times. Every run prints all of them in a
table. Metric definitions are in bench/METRICS.md.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit code 0 means every
command ran and every artifact was correct.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from gen import Shape  # noqa: E402

COMMAND_TIMEOUT_S = 60
SETUP_SAMPLES_PER_REP = 5
SPLIT_FRACTION = 0.05
STEPS = ("classify_stats", "split", "synth", "weights", "ensemble", "evaluate", "compare")
# Bounded end-to-end metrics. The seven per-command times are reported,
# unbounded, with the per-layer metrics: on a shared 2-CPU virtual machine
# the short ones spread by more than the largest bound a metric may have.
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    """Corpus shape plus the flags the seven commands get (why: BENCHMARK.json)."""

    shape: Shape
    length_buckets: str = ""  # "--length-buckets" for every command that classifies
    basis: str = "f1"
    per_class: bool = True
    ensemble_flags: tuple[str, ...] = ()
    evaluate_models: bool = False  # evaluate every model next to the ensemble
    compare_all_pairs: bool = False  # compare --out-dir over all pairs, else one pair
    # Synth and compare on the pre-eval slice, where they stay light, on a
    # workload that runs them only so that every workload reports every metric.
    light_on_pre_eval: bool = False

    def label_of(self) -> Callable[[gen.Question], str]:
        if self.length_buckets:
            edges = tuple(int(x) for x in self.length_buckets.split(","))
            return lambda q: gen.length_label(q.words, edges)
        return lambda q: q.label


WORKLOADS = {
    "train-pipeline": Workload(
        shape=Shape(questions=12000, shares="TRAIN_SHARES", golds=1, answer_tokens=(1, 4),
                    models=3),
    ),
    "dev-multigold": Workload(
        shape=Shape(questions=3000, shares="DEV_SHARES", golds=3, answer_tokens=(1, 5),
                    models=4, missing_rate=0.02, empty_rate=0.01, unicode_punct=True),
        evaluate_models=True,
        compare_all_pairs=True,
    ),
    "variants-8model": Workload(
        shape=Shape(questions=12000, shares="TRAIN_SHARES", golds=1, answer_tokens=(1, 4),
                    models=8),
        length_buckets="6,9,12",
        basis="em",
        per_class=False,
        ensemble_flags=("--mode", "global", "--combine", "max", "--equality", "raw"),
        light_on_pre_eval=True,
    ),
}


@dataclass
class Step:
    name: str
    argv: list[str]
    artifacts: list[Path]
    check: Callable[[], list[str]]


@dataclass
class Inputs:
    corpus: gen.Corpus
    files: dict[str, tuple[int, str]]  # file name -> (bytes, sha256)
    dataset: Path
    models: dict[str, Path]
    profile: Path
    profile_data: dict


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{what}: {e}" for e in errors]
        return not errors


def prepare_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    corpus = gen.generate(workload.shape, seed, ROOT)
    files = {}
    dataset = inputs / ("dev.json" if workload.shape.shares == "DEV_SHARES" else "train.json")
    files[dataset.name] = gen.write_json(corpus.squad, dataset)
    models = {}
    for model in corpus.models:
        models[model] = inputs / f"{model}.json"
        files[f"{model}.json"] = gen.write_json(corpus.predictions(model), models[model])
    if workload.length_buckets:
        labels = [f"len_{i}" for i in range(len(workload.length_buckets.split(",")) + 1)]
    else:
        labels = list(gen.CLASS_PHRASES)
    profile_data = gen.synth_profile(labels, seed)
    profile = inputs / "profile.json"
    files[profile.name] = gen.write_json(profile_data, profile)
    return Inputs(corpus, files, dataset, models, profile, profile_data)


def pipeline_steps(workload: Workload, inp: Inputs, out: Path, seed: int) -> list[Step]:
    """The seven commands in order, each with its artifacts and its check."""
    questions = inp.corpus.questions
    label_of = workload.label_of()
    pre_eval_ids = set(checks.split_ids([q.id for q in questions], SPLIT_FRACTION, seed))
    pre_eval = [q for q in questions if q.id in pre_eval_ids]
    rest = [q for q in questions if q.id not in pre_eval_ids]
    cf = ["--length-buckets", workload.length_buckets] if workload.length_buckets else []
    preds = [f for m, p in inp.models.items() for f in ("--preds", f"{m}={p}")]
    split, models = out / "split", list(inp.models)

    stats = out / "stats.json"
    synth = out / "synth.json"
    weights = out / "weights.json"
    ensemble, trace = out / "ensemble.json", out / "trace.jsonl"
    report = out / "report.json"
    eval_preds = (preds if workload.evaluate_models else []) + ["--preds", f"ensemble={ensemble}"]
    weights_flags = ["--basis", workload.basis] + ([] if workload.per_class else ["--no-classes"])

    def check_evaluate() -> list[str]:
        answers = {"ensemble": checks.load_json(ensemble)}
        if workload.evaluate_models:
            answers = {m: inp.corpus.predictions(m) for m in models} | answers
        return checks.check_evaluate(report, rest, answers, label_of)

    if workload.compare_all_pairs:
        cmp_dir = out / "compare"
        compare_args = preds + ["--out-dir", str(cmp_dir)]
        pairs = {pair: cmp_dir / f"{pair[0]}_vs_{pair[1]}.json" for pair in combinations(models, 2)}
        compare_artifacts = [p for json_path in pairs.values()
                             for p in (json_path, json_path.with_suffix(".csv"))]
    else:
        cmp_json = out / "compare.json"
        compare_args = preds[:4] + ["--json", str(cmp_json)]
        pairs = {(models[0], models[1]): cmp_json}
        compare_artifacts = [cmp_json]
    if workload.light_on_pre_eval:
        synth_dataset, synth_questions = split / "pre_eval.json", pre_eval
        cmp_dataset, cmp_questions = split / "pre_eval.json", pre_eval
    else:
        synth_dataset, synth_questions = inp.dataset, questions
        cmp_dataset, cmp_questions = split / "train.json", rest

    return [
        Step("classify_stats",
             ["classify-stats", "--dataset", str(inp.dataset), *cf, "--json", str(stats)],
             [stats], lambda: checks.check_classify_stats(
                 stats, Counter(label_of(q) for q in questions))),
        Step("split",
             ["split", "--dataset", str(inp.dataset), "--fraction", str(SPLIT_FRACTION),
              "--seed", str(seed), "--out-dir", str(split)],
             [split / "train.json", split / "pre_eval.json", split / "split_manifest.json"],
             lambda: checks.check_split(split, [q.id for q in questions], SPLIT_FRACTION, seed)),
        Step("synth",
             ["synth", "--dataset", str(synth_dataset), "--profile", str(inp.profile),
              "--name", "synth", *cf, "--out", str(synth)],
             [synth], lambda: checks.check_synth(synth, synth_questions, inp.profile_data,
                                                 label_of)),
        Step("weights",
             ["weights", "--pre-eval", str(split / "pre_eval.json"), *preds, *cf, *weights_flags,
              "--out", str(weights)],
             [weights], lambda: checks.check_weights(weights, pre_eval, models, workload.basis,
                                                     workload.per_class, label_of)),
        Step("ensemble",
             ["ensemble", "--dataset", str(split / "train.json"), *preds, "--weights", str(weights),
              *cf, *workload.ensemble_flags, "--out", str(ensemble), "--trace", str(trace)],
             [ensemble, trace], lambda: checks.check_ensemble(ensemble, trace, rest)),
        Step("evaluate",
             ["evaluate", "--dataset", str(split / "train.json"), *eval_preds, *cf,
              "--json", str(report)],
             [report], check_evaluate),
        Step("compare",
             ["compare", "--dataset", str(cmp_dataset), *compare_args, *cf],
             compare_artifacts, lambda: checks.check_compare(pairs, cmp_questions, label_of)),
    ]


@dataclass
class Proc:
    seconds: float
    returncode: int
    peak_rss_mb: float


def run_cli(argv: list[str], stdout, env: dict) -> Proc:
    """One fresh ``qavote`` process; its own peak RSS comes from wait4 on it."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qavote.cli", *argv], stdout=stdout,
                            stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, proc.returncode, usage.ru_maxrss / 1024)


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QAVOTE_RULES", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_setup(work: Path, env: dict, tally: Tally) -> float | None:
    """One fresh ``qavote rules show --json``: interpreter, import, argparse, rule load."""
    out = work / "rules.json"
    with open(out, "wb") as fh:
        proc = run_cli(["rules", "show", "--json"], fh, env)
    errors = [f"exit code {proc.returncode}"] if proc.returncode else []
    if not errors:
        try:
            rules = json.loads(out.read_text(encoding="utf-8"))
        except ValueError as exc:
            rules = []
            errors.append(f"output is not JSON: {exc}")
        if len(rules) != 19:
            errors.append(f"expected the 19 default rules, got {len(rules)}")
    return proc.seconds if tally.record("setup", errors) else None


def run_pipeline(steps: list[Step], out: Path, log, env: dict, tally: Tally,
                 reference: dict[str, str] | None) -> dict[str, Proc] | None:
    """All steps once, writing under ``out``.

    The first time, check each artifact; later, compare hashes with the first.
    """
    procs = {}
    for i, step in enumerate(steps):
        log.write(f"$ qavote {' '.join(step.argv)}\n".encode())
        log.flush()
        proc = run_cli(step.argv, log, env)
        errors = [f"exit code {proc.returncode}"] if proc.returncode else []
        if not errors and reference is None:
            try:
                errors = step.check()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors = [f"artifact unreadable: {exc!r}"]
        elif not errors:
            for path in step.artifacts:
                if checks.sha256_file(path) != reference[str(path.relative_to(out))]:
                    errors.append(f"{path.name} differs from the first repetition")
        if not tally.record(step.name, errors):
            # Later steps would consume an artifact that failed its check.
            for skipped in steps[i + 1:]:
                tally.record(skipped.name, ["skipped: an earlier step failed"])
            return None
        procs[step.name] = proc
    return procs


def artifact_hashes(steps: list[Step], out: Path) -> dict[str, str]:
    """sha256 of every artifact, keyed by its path under ``out``."""
    return {str(p.relative_to(out)): checks.sha256_file(p)
            for step in steps for p in step.artifacts}


def traced_run(workload: Workload, inp: Inputs, seed: int, work: Path, env: dict,
               e2e_median_s: dict, reference: dict[str, str], tally: Tally) -> dict:
    """Replay the pipeline as traced public calls in one fresh process; per-layer metrics."""
    out = work / "traced"
    out.mkdir()
    steps = pipeline_steps(workload, inp, out, seed)
    plan = {
        "steps": [[s.name, s.argv] for s in steps],
        "length_buckets": workload.length_buckets or None,
        "spans": str(work / "spans.jsonl"),
        "counts": str(work / "counts.json"),
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(work / "plan.json")]
    with open(work / "traced.log", "wb") as log:
        try:
            returncode = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                        cwd=ROOT, timeout=COMMAND_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            returncode = "timeout"
    if returncode:
        tally.record("traced run", [f"exit {returncode}, see {work / 'traced.log'}"])
        return {}
    traced = artifact_hashes(steps, out)
    tally.record("traced run", [f"traced run wrote a different {path}"
                                for path, digest in reference.items() if traced[path] != digest])
    t = tracer.Tracer.read(work / "spans.jsonl", work / "counts.json")
    return tracer.layer_metrics(t, e2e_median_s)


def median_metrics(reps: list[dict[str, Proc]], setup: list[float]) -> dict:
    m = {"setup_s": (statistics.median(setup), "s")}
    for name in STEPS:
        m[f"{name}_s"] = (statistics.median(r[name].seconds for r in reps), "s")
    m["pipeline_s"] = (statistics.median(sum(p.seconds for p in r.values()) for r in reps), "s")
    m["peak_rss_mb"] = (statistics.median(max(p.peak_rss_mb for p in r.values()) for r in reps),
                        "MB")
    return m


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workload: Workload | None = None, work: Path | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = workload or WORKLOADS[workload_name]
    work = work or BENCH_DIR / "work" / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = cli_env()
    tally = Tally()

    started = time.perf_counter()
    inp = prepare_inputs(workload, seed, work)
    print(f"workload {workload_name} seed {seed}: {len(inp.corpus.questions)} questions, "
          f"{len(inp.corpus.models)} models, generated in {time.perf_counter() - started:.2f} s")
    for name, (size, digest) in inp.files.items():
        print(f"  input {name:<16} {size:>10} bytes sha256 {digest}")

    deadline = time.perf_counter() + seconds
    reps: list[dict[str, Proc]] = []
    setup: list[float] = []
    reference = None
    slowest = 0.0
    with open(work / "commands.log", "wb") as log:
        run_setup(work, env, tally)  # warm-up: byte-compiles the package once
        while True:
            rep_start = time.perf_counter()
            setup += [s for s in (run_setup(work, env, tally)
                                  for _ in range(SETUP_SAMPLES_PER_REP)) if s is not None]
            # A fresh directory per repetition, deleted right after it: the
            # artifacts are dropped from the page cache before write-back, and
            # no command truncates a file that an earlier repetition wrote.
            out = work / "out" / f"rep{len(reps)}"
            out.mkdir(parents=True)
            procs = run_pipeline(pipeline_steps(workload, inp, out, seed), out, log, env, tally,
                                 reference)
            if procs is None:
                break
            reps.append(procs)
            if reference is None:
                reference = artifact_hashes(pipeline_steps(workload, inp, out, seed), out)
            shutil.rmtree(out)
            slowest = max(slowest, time.perf_counter() - rep_start)
            # Stop before a repetition that could overrun the deadline; a
            # traced run costs at most about one repetition.
            needed = slowest * (1.2 + trace)
            if time.perf_counter() + needed > deadline:
                break

    metrics: dict = {}
    if reps and setup:
        e2e = median_metrics(reps, setup)
        if trace:
            medians = {name: e2e[f"{name}_s"][0] for name in STEPS}
            metrics = traced_run(workload, inp, seed, work, env, medians, reference, tally)
            if metrics:
                metrics.update((name, e2e[name]) for name in e2e if name not in END_TO_END)
        else:
            metrics = {name: e2e[name] for name in END_TO_END}
        hashes = sorted(reference.items())
        digest = hashlib.sha256(json.dumps(hashes).encode()).hexdigest()
        print(f"  {len(reps)} repetitions, {len(setup)} set-up samples; "
              f"artifact sha256 digest {digest}")
        for path, sha in hashes:
            print(f"  artifact {path} sha256 {sha}")
        for name in STEPS:
            samples = " ".join(f"{r[name].seconds:.4f}" for r in reps)
            print(f"  samples {name + '_s':<20} {samples}")
        print(f"  samples {'setup_s':<20} " + " ".join(f"{s:.4f}" for s in setup))
        print_table("end-to-end (median over repetitions)", e2e)
        print(f"  {'failed_ratio':<46} {tally.failed / max(tally.attempted, 1):>14.6g} ratio")
        if trace and metrics:
            print_table("per-layer (traced run)", metrics)
            shares = {layer: metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS}
            total = sum(shares.values()) or 1.0
            print("layer shares of traced self time: " + ", ".join(
                f"{layer} {100 * s / total:.1f}%" for layer, s in
                sorted(shares.items(), key=lambda kv: -kv[1])))
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for sub in ("inputs", "out", "traced"):
        shutil.rmtree(work / sub, ignore_errors=True)
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/qavote/cli.py", "tests/test_acceptance.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a qavote checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
