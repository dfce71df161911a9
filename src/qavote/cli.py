"""Command-line surface: ingest -> classify -> split -> weights -> ensemble -> evaluate -> compare.

Every command that writes a file also writes a run manifest,
``<first output>.manifest.json`` (``split``: ``<out-dir>/split.manifest.json``),
so any run can be reproduced exactly. Its keys, in order: ``command``,
``inputs`` (flag or model name -> path), ``config``, ``seeds``, ``outputs``,
``duration_seconds`` and ``tool_version``. Each output and manifest is
written to a temporary file and then renamed over its path, so a write
that fails leaves the previous file as it was; the manifest is written last.

Exit codes: 0 success, 2 usage, 3 a path (input or output) that does not
exist, is a directory, or is a file where a directory is needed, 4 any
``ValueError`` (a malformed input file or an invalid value, such as two
outputs of one command naming one file; every layer's error class subclasses
it), 1 anything else (with its traceback on stderr).
The classifier is set by ``--rules`` or ``--length-buckets`` alone; no
environment variable changes it.

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
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from . import __version__
from .analysis import pairwise_similarity, save_similarity_json, similarity_csv, eval_breakdown_csv
from .corpus import (
    Granularity,
    atomic_write,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    save_split_manifest,
    split_pre_eval,
    write_json,
)
from .metrics import MissingPolicy, evaluate, save_report_csv, save_report_json
from .synth import AccuracyProfile, Corruption, generate_predictions, load_profile
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


@dataclass
class Run:
    """What a command read, its config and seeds, and the files it wrote.

    ``main`` writes this with the command's name, duration and tool version
    to ``<base>.manifest.json``; ``base`` defaults to the first output.
    """

    inputs: dict
    config: dict
    outputs: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    base: Path | None = None


def _classifier_from_args(args):
    if args.length_buckets is not None:
        try:
            edges = [int(x) for x in args.length_buckets.split(",") if x.strip()]
            return LengthClassifier(edges), {"length_buckets": edges}
        except ValueError as exc:
            raise ValueError(f"--length-buckets {args.length_buckets!r}: {exc}") from None
    if args.rules is not None:
        if not args.rules:
            raise ValueError("--rules '': no rule file given")
        return load_rules(args.rules), {"rules": str(args.rules)}
    return default_rules(), {"rules": "<default>"}


def _model_inputs(args, *flags: str) -> tuple[dict[str, Path], dict[str, str]]:
    """The --preds NAME=PATH pairs as paths by name, in command-line order, and the
    manifest inputs: the file of each of ``flags``, then every model file. A name is
    part of the ``compare --out-dir`` file names, so it may hold no path separator;
    a model named like one of ``flags`` is rejected, as it would replace that input
    in the manifest."""
    pred_paths: dict[str, Path] = {}
    for pair in args.preds:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--preds expects NAME=PATH, got {pair!r}")
        if any(s and s in name for s in ("/", os.sep, os.altsep)):
            raise ValueError(f"--preds model name {name!r} holds a path separator")
        if name in pred_paths:
            raise ValueError(f"duplicate model name in --preds: {name!r}")
        pred_paths[name] = Path(path)
    for flag in flags:
        if flag in pred_paths:
            raise ValueError(
                f"--preds model name {flag!r} is taken by the --{flag.replace('_', '-')} input"
            )
    files = {**{flag: getattr(args, flag) for flag in flags}, **pred_paths}
    return pred_paths, {name: str(path) for name, path in files.items()}


def _score_models(args, dataset_flag: str, check=None, **config):
    """What evaluate, weights and compare share: the classifier, ``{name: report}``
    of every --preds model on the dataset, and a Run holding their manifest inputs
    and config (``config`` goes between the classifier's and the policy's keys).
    ``check`` sees the --preds paths before any model file is read."""
    classifier, classifier_cfg = _classifier_from_args(args)
    dataset = load_dataset(getattr(args, dataset_flag))
    policy = MissingPolicy(args.missing_policy.replace("-", "_"))
    pred_paths, inputs = _model_inputs(args, dataset_flag)
    if check:
        check(pred_paths)
    reports = {
        name: evaluate(load_predictions(path, name), dataset, classifier, policy)
        for name, path in pred_paths.items()
    }
    run = Run(inputs, {**classifier_cfg, **config, "missing_policy": policy.value})
    return classifier, reports, run


def _check_distinct_outputs(args) -> None:
    """Two output flags of one command may not name one file: the later write would
    replace the earlier output. Checked before anything is read or written."""
    flag_of: dict[str, str] = {}
    for flag, dest in args.outputs.items():
        path = getattr(args, dest)
        if path:
            other = flag_of.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise ValueError(f"{other} and {flag} name the same file {path!r}")


def cmd_rules_show(args) -> None:
    classifier, _ = _classifier_from_args(args)
    if not isinstance(classifier, ClassRuleSet):
        print("error: 'rules show' needs a rule-based classifier", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.json:
        print(json.dumps(classifier.to_json(), indent=1))
    else:
        print(f"{'priority':>8}  {'class':<14} pattern")
        for rule in classifier.rules:
            print(f"{rule.priority:>8}  {rule.question_class.value:<14} {rule.pattern}")


def cmd_classify_stats(args) -> Run:
    classifier, classifier_cfg = _classifier_from_args(args)
    dataset = load_dataset(args.dataset)
    hist = class_distribution(dataset, classifier)
    rows = [(label, count, 100 * hist.share(label)) for label, count in hist.counts.items()]
    rows.append(("SUM", hist.total, 100.0 if hist.total else 0.0))
    print(f"{'class':<16} {'count':>8} {'share':>7}")
    for label, count, share in rows:
        print(f"{label:<16} {count:>8} {share:>6.1f}%")

    run = Run({"dataset": str(args.dataset)}, classifier_cfg)
    if args.csv:
        with atomic_write(args.csv) as fh:
            fh.write("class,count,percentage\n")
            for label, count, share in rows:
                fh.write(f"{label},{count},{share:.1f}\n")
        run.outputs.append(args.csv)
    if args.json_out:
        write_json({"counts": hist.counts, "total": hist.total}, args.json_out, indent=1)
        run.outputs.append(args.json_out)
    return run


def cmd_split(args) -> Run:
    dataset = load_dataset(args.dataset)
    split = split_pre_eval(dataset, args.fraction, args.seed, args.granularity)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.json"
    pre_eval_path = out_dir / "pre_eval.json"
    manifest_path = out_dir / "split_manifest.json"
    save_dataset(split.train, train_path)
    save_dataset(split.pre_eval, pre_eval_path)
    save_split_manifest(split, manifest_path)
    print(
        f"split {len(dataset)} questions -> train {len(split.train)}, "
        f"pre_eval {len(split.pre_eval)} (fraction {args.fraction}, seed {args.seed}, "
        f"{split.granularity} granularity)"
    )
    return Run(
        inputs={"dataset": str(args.dataset)},
        config={"fraction": args.fraction, "granularity": str(split.granularity)},
        seeds={"split": args.seed},
        outputs=[train_path, pre_eval_path, manifest_path],
        base=out_dir / "split",
    )


def cmd_evaluate(args) -> Run:
    _, reports, run = _score_models(args, "dataset")
    for name, report in reports.items():
        print(
            f"{name}: F1={100 * report.overall.mean_f1:.2f}% "
            f"EM={100 * report.overall.em_rate:.2f}% (n={report.overall.count})"
        )
    if args.json_out:
        save_report_json(reports, args.json_out)
        run.outputs.append(args.json_out)
    if args.csv:
        save_report_csv(eval_breakdown_csv(list(reports.values())), args.csv)
        run.outputs.append(args.csv)
    return run


_BASIS_BY_FLAG = {"f1": MetricBasis.MEAN_F1, "em": MetricBasis.EM_RATE}


def cmd_weights(args) -> Run:
    basis = _BASIS_BY_FLAG[args.basis]
    classifier, reports, run = _score_models(
        args, "pre_eval", basis=basis.value, no_classes=bool(args.no_classes)
    )
    compute = compute_global_weights if args.no_classes else compute_class_weights
    table = compute(reports, basis, classifier.labels)
    save_weights(table, args.out)
    for model in table.models:
        marker = " (best overall)" if model == table.best_overall else ""
        print(f"{model}: global weight {table.global_weights[model]:.4f}{marker}")
    run.outputs.append(args.out)
    return run


def cmd_ensemble(args) -> Run:
    classifier, classifier_cfg = _classifier_from_args(args)
    dataset = load_dataset(args.dataset)
    table = load_weights(args.weights)
    unweighted = [label for label in classifier.labels if label not in table.class_weights]
    if table.class_weights and unweighted:  # a table without class rows votes globally
        raise ValueError(f"--weights {args.weights} has no row for the labels {unweighted}")
    pred_paths, inputs = _model_inputs(args, "dataset", "weights")
    predictions = {name: load_predictions(path, name) for name, path in pred_paths.items()}
    special_case = not args.no_undefined_special_case
    if args.mode == "global":  # the class-aware vote on the class-ignoring table
        table, special_case = table.ignoring_classes(), False
    config = VoteConfig(
        combine=Combine(args.combine),
        undefined_special_case=special_case,
        duplicate_equality=Equality(args.equality),
    )
    ensemble, traces = run_ensemble(dataset, predictions, table, classifier, config)
    save_predictions(ensemble, args.out)
    outputs = [args.out]
    if args.trace:
        save_traces(traces, args.trace)
        outputs.append(args.trace)
    print(f"ensemble answers for {len(ensemble)} questions -> {args.out}")
    return Run(
        inputs,
        {
            **classifier_cfg,
            "mode": args.mode.replace("-", "_"),
            "combine": config.combine.value,
            "undefined_special_case": config.undefined_special_case,
            "duplicate_equality": config.duplicate_equality.value,
        },
        outputs,
    )


def cmd_compare(args) -> Run:
    def check(pred_paths):
        if len(pred_paths) < 2:
            raise ValueError("compare needs at least two --preds")
        if (args.csv or args.json_out) and len(pred_paths) > 2:
            raise ValueError("--csv/--json fit one pair; use --out-dir for more models")
        if args.out_dir:
            pair_of: dict[str, tuple[str, str]] = {}
            for pair in combinations(pred_paths, 2):
                stem = "{}_vs_{}".format(*pair)
                other = pair_of.setdefault(stem, pair)
                if other != pair:
                    raise ValueError(f"--out-dir pairs {other} and {pair} both write "
                                     f"{stem}.csv and {stem}.json")

    classifier, reports, run = _score_models(args, "dataset", check)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name_a, name_b in combinations(reports, 2):
        report = pairwise_similarity(reports[name_a], reports[name_b], classifier.labels)
        o = report.overall
        print(
            f"{name_a} vs {name_b}: equal F1 {o.equal_f1}/{o.total}, "
            f"equal EM {o.equal_em}/{o.total}, mean equal F1 "
            f"{100 * report.mean_of_equal_f1s:.1f}%, EM true among equal "
            f"{report.equal_em_true_count} ({100 * report.equal_em_true_rate:.1f}%)"
        )
        targets = [(args.csv, args.json_out)]
        if out_dir:
            pair = out_dir / f"{name_a}_vs_{name_b}"
            targets.insert(0, (f"{pair}.csv", f"{pair}.json"))
        for csv_path, json_path in targets:
            if csv_path:
                with atomic_write(csv_path) as fh:
                    fh.write(similarity_csv(report))
                run.outputs.append(csv_path)
            if json_path:
                save_similarity_json(report, json_path)
                run.outputs.append(json_path)
    return run


def cmd_synth(args) -> Run:
    classifier, classifier_cfg = _classifier_from_args(args)
    dataset = load_dataset(args.dataset)
    if args.profile:
        profile = load_profile(args.profile)
    else:
        profile = AccuracyProfile(
            per_class={label: args.prob_all for label in classifier.labels},
            corruption=Corruption(args.corruption),
            seed=args.seed,
        )
    preds = generate_predictions(dataset, profile, args.name, classifier)
    save_predictions(preds, args.out)
    note = ""
    if preds.meta.get("sentinel_fallback_ids"):
        note = f" ({len(preds.meta['sentinel_fallback_ids'])} sentinel fallbacks)"
    print(f"generated {len(preds)} synthetic answers as {args.name!r} -> {args.out}{note}")
    return Run(
        inputs={"dataset": str(args.dataset), "profile": str(args.profile or "<inline>")},
        config={**classifier_cfg, "corruption": profile.corruption.value,
                "model_name": args.name},
        seeds={"profile": profile.seed},
        outputs=[args.out],
    )


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
    classifier.add_argument("--rules", help="rule file (default: built-in)")
    classifier.add_argument(
        "--length-buckets",
        help="comma-separated word-count edges; classify by question length instead of rules",
    )
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument(
        "--missing-policy", default="score-as-empty", choices=["score-as-empty", "exclude"]
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)

    def command(name, func, help, *parents, under=sub, outputs=None):
        """``outputs``: output flag -> its dest, for commands with several output flags."""
        p = under.add_parser(name, parents=list(parents), help=help)
        p.set_defaults(func=func, outputs=outputs or {})
        return p

    p_rules = sub.add_parser("rules", help="inspect classification rules")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_rules_show = command("show", cmd_rules_show, "print the effective rule set", classifier,
                           under=rules_sub)
    p_rules_show.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_stats = command("classify-stats", cmd_classify_stats,
                      "question-class histogram of a dataset", dataset, classifier,
                      outputs={"--csv": "csv", "--json": "json_out"})
    p_stats.add_argument("--csv", help="write the histogram as CSV")
    p_stats.add_argument("--json", dest="json_out", help="write the histogram as JSON")

    p_split = command("split", cmd_split, "deterministic train / pre-evaluation split", dataset)
    p_split.add_argument("--fraction", type=float, required=True)
    p_split.add_argument("--seed", type=int, required=True)
    p_split.add_argument(
        "--granularity",
        choices=[g.value for g in Granularity],
        default=Granularity.QUESTION.value,
    )
    p_split.add_argument("--out-dir", required=True)

    p_eval = command("evaluate", cmd_evaluate, "score prediction files against a dataset",
                     dataset, preds, classifier, policy,
                     outputs={"--json": "json_out", "--csv": "csv"})
    p_eval.add_argument("--json", dest="json_out", help="write the full report(s) as JSON")
    p_eval.add_argument("--csv", help="write the per-class breakdown as CSV")

    p_weights = command("weights", cmd_weights, "voting weights from a pre-evaluation dataset",
                        preds, classifier, policy, out)
    p_weights.add_argument("--pre-eval", required=True)
    p_weights.add_argument("--basis", choices=["f1", "em"], default="f1")
    p_weights.add_argument(
        "--no-classes", action="store_true", help="single global weight per model"
    )

    p_ens = command("ensemble", cmd_ensemble, "weighted-voting ensemble over prediction files",
                    dataset, preds, classifier, out, outputs={"--out": "out", "--trace": "trace"})
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
                    dataset, preds, classifier, policy,
                    outputs={"--csv": "csv", "--json": "json_out"})
    p_cmp.add_argument("--csv", help="write the per-class table (single pair only)")
    p_cmp.add_argument("--json", dest="json_out", help="write the report JSON (single pair only)")
    p_cmp.add_argument("--out-dir", help="write per-pair CSV+JSON files here")

    p_synth = command("synth", cmd_synth, "generate synthetic prediction files",
                      dataset, classifier, out)
    p_synth.add_argument("--profile", help="accuracy profile JSON")
    p_synth.add_argument("--prob-all", type=float, default=0.0,
                         help="without --profile: gold probability for every class")
    p_synth.add_argument("--corruption", choices=[c.value for c in Corruption],
                         default=Corruption.DISJOINT_TOKEN.value)
    p_synth.add_argument("--seed", type=int, default=0)
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
            _check_distinct_outputs(args)
            run = args.func(args)
            if run and run.outputs:
                manifest = {
                    "command": args.command,
                    "inputs": run.inputs,
                    "config": run.config,
                    "seeds": run.seeds,
                    "outputs": [str(path) for path in run.outputs],
                    "duration_seconds": time.monotonic() - start,
                    "tool_version": __version__,
                }
                write_json(manifest, f"{run.base or run.outputs[0]}.manifest.json", indent=1)
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
