"""Command-line surface: ingest -> classify -> split -> weights -> ensemble -> evaluate -> compare.

Each command names the files it reads (``reads``, then each ``--preds`` model) and
writes (``plan``) once, from its flags alone, and writes a run manifest so any run can
be reproduced: ``<out-dir>/<command>.manifest.json`` under ``--out-dir`` (split,
compare), else ``<first output>.manifest.json``. Before any input is read, ``main``
checks that no file flag is ``''``, no output names an input or another output and
every input exists. It then builds the classifier (``args.classifier``) and the
missing policy (``args.missing_policy``) of every command with those flags; a command
returns ``(config, seeds)`` of its own settings, or None. The manifest's keys, in
order: ``command``, ``inputs`` (flag or model name -> path, spelled as given),
``config`` (the classifier's keys, the command's, then ``missing_policy``), ``seeds``,
``outputs``, ``duration_seconds`` and ``tool_version``. Each file is written to a
temporary file and then renamed over its path, so a write that fails leaves the
previous file as it was; the manifest is written last.

Exit codes: 0 success, 2 usage, 3 a path (input or output) that does not
exist, is a directory, or is a file where a directory is needed, 4 any
``ValueError`` (a malformed input file or an invalid value, such as an empty path
or an output naming an input or another output; every layer's error class subclasses
it), 1 anything else (with its traceback on stderr).
The classifier is set by ``--rules`` or ``--length-buckets`` alone, never both
(exit 2); no environment variable changes it.

``main`` runs with the cyclic garbage collector paused and turns it back on
(if it was on) when it returns. A command loads a whole corpus and builds
records that hold no reference cycles, which reference counting frees; the
collector would only rescan those objects many times to find almost nothing
(about 600 objects of argparse's, the same at every corpus size). An
in-process caller gets the collector back with whatever cycles a command left.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import combinations
from pathlib import Path

from . import __version__
from .analysis import pairwise_similarity, save_similarity_json, similarity_csv, eval_breakdown_csv
from .corpus import (
    Granularity,
    atomic_write,
    check_fraction,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    save_split_manifest,
    split_pre_eval,
    write_json,
)
from .metrics import MissingPolicy, ScoreMemo, evaluate, save_report_csv, save_report_json
from .synth import generate_predictions, load_profile
from .taxonomy import (
    ClassRuleSet,
    LengthClassifier,
    class_distribution,
    default_rules,
    load_rules,
)
from .voting import Combine, Equality, VoteConfig, run_ensemble, save_traces
from .weighting import (
    MetricBasis,
    compute_class_weights,
    compute_global_weights,
    load_weights,
    save_weights,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_PATH = 3
EXIT_SCHEMA = 4
EXIT_OTHER = 1


def _classifier_from_args(args):
    if args.length_buckets is not None:
        try:
            edges = [int(x) for x in args.length_buckets.split(",")]
            return LengthClassifier(edges), {"length_buckets": edges}
        except ValueError as exc:
            raise ValueError(f"--length-buckets {args.length_buckets!r}: {exc}") from None
    if args.rules is not None:  # never '': main rejects an empty path
        return load_rules(args.rules), {"rules": str(args.rules)}
    return default_rules(), {"rules": "<default>"}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _parse_preds(pairs, reads) -> dict[str, str]:
    """The --preds NAME=PATH pairs as paths by name, in command-line order, each
    path spelled as given, like every input flag's. A name is part of the
    ``compare --out-dir`` file names, so it may hold no path separator; a model
    named like one of the command's ``reads`` is rejected, as it would replace
    that input in the manifest."""
    preds: dict[str, str] = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--preds expects NAME=PATH, got {pair!r}")
        if any(s and s in name for s in ("/", os.sep, os.altsep)):
            raise ValueError(f"--preds model name {name!r} holds a path separator")
        if name in preds:
            raise ValueError(f"duplicate model name in --preds: {name!r}")
        if name in reads:
            raise ValueError(f"--preds model name {name!r} is taken by the {_flag(name)} input")
        preds[name] = path
    return preds


def _score_models(args, dataset_path) -> dict:
    """What evaluate, weights and compare share: ``{name: report}`` of every
    --preds model on the dataset. Two or more models share one score memo;
    one model alone is scored without it (``metrics.ScoreMemo``)."""
    dataset = load_dataset(dataset_path)
    memo = ScoreMemo() if len(args.preds) >= 2 else None
    return {
        name: evaluate(load_predictions(path, name), dataset, args.classifier, args.missing_policy,
                       memo=memo)
        for name, path in args.preds.items()
    }


def _split_paths(args) -> list[Path]:
    """The train, pre-evaluation and split-manifest files ``split`` writes."""
    return [Path(args.out_dir) / f for f in ("train.json", "pre_eval.json", "split_manifest.json")]


def _pair_files(args, name_a: str, name_b: str) -> tuple[str, str]:
    """The CSV and JSON files ``compare --out-dir`` writes for one pair of models."""
    stem = Path(args.out_dir) / f"{name_a}_vs_{name_b}"
    return f"{stem}.csv", f"{stem}.json"


def _compare_plan(args) -> list:
    if len(args.preds) < 2:
        raise ValueError("compare needs at least two --preds")
    if (args.csv or args.json_out) and len(args.preds) > 2:
        raise ValueError("--csv/--json fit one pair; use --out-dir for more models")
    pairs = list(combinations(args.preds, 2)) if args.out_dir else []
    return [*((pair, path) for pair in pairs for path in _pair_files(args, *pair)),
            ("--csv", args.csv), ("--json", args.json_out)]


def _check_distinct(inputs, outputs) -> None:
    """No ``(label, path)`` output may name an input or an earlier output: it would
    replace that file. Two inputs may name one file."""
    first = {}
    for label, path in inputs:
        first.setdefault(os.path.realpath(path), label)
    for label, path in outputs:
        key = os.path.realpath(path)
        if key in first:
            raise ValueError(f"{first[key]} and {label} name the same file {str(path)!r}")
        first[key] = label


def cmd_rules_show(args) -> None:
    if not isinstance(args.classifier, ClassRuleSet):
        print("error: 'rules show' needs a rule-based classifier", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.json:
        print(json.dumps(args.classifier.to_json(), indent=1))
    else:
        print(f"{'priority':>8}  {'class':<14} pattern")
        for rule in args.classifier.rules:
            print(f"{rule.priority:>8}  {rule.question_class.value:<14} {rule.pattern}")


def cmd_classify_stats(args) -> None:
    dataset = load_dataset(args.dataset)
    hist = class_distribution(dataset, args.classifier)
    rows = [(label, count, 100 * hist.share(label)) for label, count in hist.counts.items()]
    rows.append(("SUM", hist.total, 100.0 if hist.total else 0.0))
    print(f"{'class':<16} {'count':>8} {'share':>7}")
    for label, count, share in rows:
        print(f"{label:<16} {count:>8} {share:>6.1f}%")

    if args.csv:
        with atomic_write(args.csv) as fh:
            fh.write("class,count,percentage\n")
            for label, count, share in rows:
                fh.write(f"{label},{count},{share:.1f}\n")
    if args.json_out:
        write_json({"counts": hist.counts, "total": hist.total}, args.json_out, indent=1)


def cmd_split(args) -> tuple[dict, dict]:
    check_fraction(args.fraction)
    dataset = load_dataset(args.dataset)
    split = split_pre_eval(dataset, args.fraction, args.seed, args.granularity)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    train_path, pre_eval_path, manifest_path = _split_paths(args)
    save_dataset(split.train, train_path)
    save_dataset(split.pre_eval, pre_eval_path)
    save_split_manifest(split, manifest_path)
    print(
        f"split {len(dataset)} questions -> train {len(split.train)}, "
        f"pre_eval {len(split.pre_eval)} (fraction {args.fraction}, seed {args.seed}, "
        f"{split.granularity.value} granularity)"
    )
    return {"fraction": args.fraction, "granularity": split.granularity.value}, {"split": args.seed}


def cmd_evaluate(args) -> None:
    reports = _score_models(args, args.dataset)
    for name, report in reports.items():
        print(
            f"{name}: F1={100 * report.overall.mean_f1:.2f}% "
            f"EM={100 * report.overall.em_rate:.2f}% (n={report.overall.count})"
        )
    if args.json_out:
        save_report_json(reports, args.json_out)
    if args.csv:
        save_report_csv(eval_breakdown_csv(list(reports.values())), args.csv)


_BASIS_BY_FLAG = {"f1": MetricBasis.MEAN_F1, "em": MetricBasis.EM_RATE}


def cmd_weights(args) -> tuple[dict, dict]:
    basis = _BASIS_BY_FLAG[args.basis]
    reports = _score_models(args, args.pre_eval)
    compute = compute_global_weights if args.no_classes else compute_class_weights
    table = compute(reports, basis, args.classifier.labels)
    save_weights(table, args.out)
    for model in table.models:
        marker = " (best overall)" if model == table.best_overall else ""
        print(f"{model}: global weight {table.global_weights[model]:.4f}{marker}")
    return {"basis": basis.value, "no_classes": bool(args.no_classes)}, {}


def cmd_ensemble(args) -> tuple[dict, dict]:
    dataset = load_dataset(args.dataset)
    table = load_weights(args.weights)
    unweighted = [label for label in args.classifier.labels if label not in table.class_weights]
    if table.class_weights and unweighted:  # a table without class rows votes globally
        raise ValueError(f"--weights {args.weights} has no row for the labels {unweighted}")
    predictions = {name: load_predictions(path, name) for name, path in args.preds.items()}
    special_case = not args.no_undefined_special_case
    if args.mode == "global":  # the class-aware vote on the class-ignoring table
        table, special_case = table.ignoring_classes(), False
    config = VoteConfig(
        combine=Combine(args.combine),
        undefined_special_case=special_case,
        duplicate_equality=Equality(args.equality),
    )
    ensemble, traces = run_ensemble(dataset, predictions, table, args.classifier, config)
    save_predictions(ensemble, args.out)
    if args.trace:
        save_traces(traces, args.trace)
    print(f"ensemble answers for {len(ensemble)} questions -> {args.out}")
    return {
        "mode": args.mode.replace("-", "_"),
        "combine": config.combine.value,
        "undefined_special_case": config.undefined_special_case,
        "duplicate_equality": config.duplicate_equality.value,
    }, {}


def _write_similarity(report, csv_path, json_path) -> None:
    if csv_path:
        with atomic_write(csv_path) as fh:
            fh.write(similarity_csv(report))
    if json_path:
        save_similarity_json(report, json_path)


def cmd_compare(args) -> None:
    reports = _score_models(args, args.dataset)
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for name_a, name_b in combinations(reports, 2):
        report = pairwise_similarity(reports[name_a], reports[name_b], args.classifier.labels)
        o = report.overall
        print(
            f"{name_a} vs {name_b}: equal F1 {o.equal_f1}/{o.total}, "
            f"equal EM {o.equal_em}/{o.total}, mean equal F1 "
            f"{100 * report.mean_of_equal_f1s:.1f}%, EM true among equal "
            f"{report.equal_em_true_count} ({100 * report.equal_em_true_rate:.1f}%)"
        )
        if args.out_dir:
            _write_similarity(report, *_pair_files(args, name_a, name_b))
        _write_similarity(report, args.csv, args.json_out)


def cmd_synth(args) -> tuple[dict, dict]:
    dataset = load_dataset(args.dataset)
    profile = load_profile(args.profile)
    preds = generate_predictions(dataset, profile, args.name, args.classifier)
    save_predictions(preds, args.out)
    note = ""
    if preds.meta.get("sentinel_fallback_ids"):
        note = f" ({len(preds.meta['sentinel_fallback_ids'])} sentinel fallbacks)"
    print(f"generated {len(preds)} synthetic answers as {args.name!r} -> {args.out}{note}")
    return ({"corruption": profile.corruption.value, "model_name": args.name},
            {"profile": profile.seed})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qavote",
        description="Class-aware weighted-voting ensemble over extractive-QA prediction files.",
    )
    parser.add_argument("--version", action="version", version=f"qavote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several commands share, each defined once and passed as parents=
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True)
    preds = argparse.ArgumentParser(add_help=False)
    preds.add_argument("--preds", action="append", required=True, metavar="NAME=PATH")
    classifier = argparse.ArgumentParser(add_help=False)
    one_classifier = classifier.add_mutually_exclusive_group()
    one_classifier.add_argument("--rules", help="rule file (default: built-in)")
    one_classifier.add_argument(
        "--length-buckets",
        help="comma-separated word-count edges; classify by question length instead of rules",
    )
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument(
        "--missing-policy", default="score-as-empty", choices=["score-as-empty", "exclude"]
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)

    def command(name, func, help, *parents, under=sub, reads=(), plan=lambda args: []):
        """``reads``: the dests of the input file flags, in manifest order; ``plan(args)``:
        ``(flag or model pair, path)`` of each file written, in order."""
        p = under.add_parser(name, parents=list(parents), help=help)
        p.set_defaults(func=func, reads=reads, plan=plan)
        return p

    p_rules = sub.add_parser("rules", help="inspect classification rules")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_rules_show = command("show", cmd_rules_show, "print the effective rule set", classifier,
                           under=rules_sub)
    p_rules_show.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_stats = command("classify-stats", cmd_classify_stats,
                      "question-class histogram of a dataset", dataset, classifier,
                      reads=("dataset",), plan=lambda a: [("--csv", a.csv), ("--json", a.json_out)])
    p_stats.add_argument("--csv", help="write the histogram as CSV")
    p_stats.add_argument("--json", dest="json_out", help="write the histogram as JSON")

    p_split = command("split", cmd_split, "deterministic train / pre-evaluation split", dataset,
                      reads=("dataset",),
                      plan=lambda a: [("--out-dir", path) for path in _split_paths(a)])
    p_split.add_argument("--fraction", type=float, required=True)
    p_split.add_argument("--seed", type=int, required=True)
    p_split.add_argument(
        "--granularity",
        choices=[g.value for g in Granularity],
        default=Granularity.QUESTION.value,
    )
    p_split.add_argument("--out-dir", required=True)

    p_eval = command("evaluate", cmd_evaluate, "score prediction files against a dataset",
                     dataset, preds, classifier, policy, reads=("dataset",),
                     plan=lambda a: [("--json", a.json_out), ("--csv", a.csv)])
    p_eval.add_argument("--json", dest="json_out", help="write the full report(s) as JSON")
    p_eval.add_argument("--csv", help="write the per-class breakdown as CSV")

    p_weights = command("weights", cmd_weights, "voting weights from a pre-evaluation dataset",
                        preds, classifier, policy, out, reads=("pre_eval",),
                        plan=lambda a: [("--out", a.out)])
    p_weights.add_argument("--pre-eval", required=True)
    p_weights.add_argument("--basis", choices=["f1", "em"], default="f1")
    p_weights.add_argument(
        "--no-classes", action="store_true", help="single global weight per model"
    )

    p_ens = command("ensemble", cmd_ensemble, "weighted-voting ensemble over prediction files",
                    dataset, preds, classifier, out, reads=("dataset", "weights"),
                    plan=lambda a: [("--out", a.out), ("--trace", a.trace)])
    p_ens.add_argument("--weights", required=True)
    p_ens.add_argument("--mode", choices=["class-aware", "global"], default="class-aware")
    p_ens.add_argument("--combine", choices=["sum", "max"], default="sum")
    p_ens.add_argument(
        "--no-undefined-special-case",
        action="store_true",
        help="vote undefined-class questions like any other class",
    )
    p_ens.add_argument("--equality", choices=["normalized", "raw"], default="normalized")
    p_ens.add_argument("--trace", help="write one JSON vote trace per question")

    p_cmp = command("compare", cmd_compare, "pairwise prediction-similarity statistics",
                    dataset, preds, classifier, policy, reads=("dataset",),
                    plan=_compare_plan)
    p_cmp.add_argument("--csv", help="write the per-class table (single pair only)")
    p_cmp.add_argument("--json", dest="json_out", help="write the report JSON (single pair only)")
    p_cmp.add_argument("--out-dir", help="write per-pair CSV+JSON files here")

    p_synth = command("synth", cmd_synth, "generate synthetic prediction files",
                      dataset, classifier, out, reads=("dataset", "profile"),
                      plan=lambda a: [("--out", a.out)])
    p_synth.add_argument("--profile", required=True, help="accuracy profile JSON")
    p_synth.add_argument("--name", required=True, help="model name for the output")

    return parser


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring: the command builds no reference cycles
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        start = time.monotonic()
        try:
            args.preds = _parse_preds(getattr(args, "preds", ()), args.reads)
            inputs = {**{dest: getattr(args, dest) for dest in args.reads}, **args.preds}
            read = [*((_flag(dest), inputs[dest]) for dest in args.reads),
                    *((f"--preds {name}", path) for name, path in args.preds.items()),
                    ("--rules", getattr(args, "rules", None))]
            out_dir = getattr(args, "out_dir", None)
            planned = args.plan(args)
            for label, path in [*read, ("--out-dir", out_dir), *planned]:
                if path == "":  # given but empty; an unset optional flag is None
                    raise ValueError(f"{label} '': no path given")
            outputs = [(label, path) for label, path in planned if path is not None]
            if outputs:
                base = Path(out_dir) / args.command if out_dir is not None else outputs[0][1]
                manifest_path = f"{base}.manifest.json"
                _check_distinct([(label, path) for label, path in read if path is not None],
                                [*outputs, ("the manifest", manifest_path)])
            for path in inputs.values():
                os.stat(path)  # a missing input exits 3 before any input is read
            config, policy = {}, {}  # the shared flags' settings, around the command's own
            if hasattr(args, "rules"):
                args.classifier, config = _classifier_from_args(args)
            if hasattr(args, "missing_policy"):
                args.missing_policy = MissingPolicy(args.missing_policy.replace("-", "_"))
                policy = {"missing_policy": args.missing_policy.value}
            own, seeds = args.func(args) or ({}, {})
            if outputs:
                manifest = {
                    "command": args.command,
                    "inputs": inputs,
                    "config": {**config, **own, **policy},
                    "seeds": seeds,
                    "outputs": [str(path) for _, path in outputs],
                    "duration_seconds": time.monotonic() - start,
                    "tool_version": __version__,
                }
                write_json(manifest, manifest_path, indent=1)
            return EXIT_OK
        except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
                ValueError) as exc:  # every layer's error class subclasses ValueError
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SCHEMA if isinstance(exc, ValueError) else EXIT_BAD_PATH
        except Exception as exc:
            import traceback  # only a crash pays for this import

            traceback.print_exc()
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_OTHER
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
