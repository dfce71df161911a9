from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_squad_dict, package_calls, uniform_counts

from qavote import __version__
import qavote.cli
from qavote.cli import main
from qavote.corpus import load_dataset
from qavote.metrics import score_pair
from qavote.taxonomy import (
    CLASS_LABELS,
    ClassRule,
    ClassRuleSet,
    class_distribution,
    default_rules,
    required_literal,
)


@pytest.fixture()
def corpus_file(tmp_path):
    data = make_squad_dict(uniform_counts(6))
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def write_profile(tmp_path, name, per_class, seed):
    path = tmp_path / f"{name}_profile.json"
    path.write_text(
        json.dumps({"per_class": per_class, "corruption": "disjoint_token", "seed": seed}),
        encoding="utf-8",
    )
    return path


def synth_model(tmp_path, corpus_file, name, classes, seed):
    profile = write_profile(tmp_path, name, {c: 1.0 for c in classes}, seed)
    out = tmp_path / f"{name}.json"
    rc = main(
        [
            "synth",
            "--dataset", str(corpus_file),
            "--profile", str(profile),
            "--name", name,
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestPipeline:
    def test_full_pipeline(self, tmp_path, corpus_file, capsys):
        m1 = synth_model(tmp_path, corpus_file, "m1", ["when", "who", "why"], seed=1)
        m2 = synth_model(tmp_path, corpus_file, "m2", ["what", "where"], seed=2)
        rest = [
            c for c in CLASS_LABELS if c not in {"when", "who", "why", "what", "where"}
        ]
        m3 = synth_model(tmp_path, corpus_file, "m3", rest, seed=3)

        split_dir = tmp_path / "split"
        rc = main(
            [
                "split",
                "--dataset", str(corpus_file),
                "--fraction", "0.25",
                "--seed", "7",
                "--out-dir", str(split_dir),
            ]
        )
        assert rc == 0
        assert (split_dir / "train.json").exists()
        assert (split_dir / "pre_eval.json").exists()
        manifest = json.loads((split_dir / "split_manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["granularity"] == "question"

        weights_path = tmp_path / "weights.json"
        rc = main(
            [
                "weights",
                "--pre-eval", str(split_dir / "pre_eval.json"),
                "--preds", f"m1={m1}",
                "--preds", f"m2={m2}",
                "--preds", f"m3={m3}",
                "--basis", "f1",
                "--out", str(weights_path),
            ]
        )
        assert rc == 0
        table = json.loads(weights_path.read_text())
        assert set(table) == {"models", "metric_basis", "global", "classes", "best_overall"}
        assert table["models"] == ["m1", "m2", "m3"]
        weights_manifest = json.loads((tmp_path / "weights.json.manifest.json").read_text())
        assert weights_manifest["command"] == "weights"
        assert weights_manifest["config"]["basis"] == "mean_f1"

        ensemble_path = tmp_path / "ensemble.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                "ensemble",
                "--dataset", str(split_dir / "train.json"),
                "--preds", f"m1={m1}",
                "--preds", f"m2={m2}",
                "--preds", f"m3={m3}",
                "--weights", str(weights_path),
                "--mode", "class-aware",
                "--combine", "sum",
                "--out", str(ensemble_path),
                "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        ensemble = json.loads(ensemble_path.read_text())
        train = json.loads((split_dir / "train.json").read_text())
        train_ids = [
            qa["id"]
            for article in train["data"]
            for paragraph in article["paragraphs"]
            for qa in paragraph["qas"]
        ]
        assert set(ensemble) == set(train_ids)
        assert len(trace_path.read_text().strip().splitlines()) == len(train_ids)
        ensemble_manifest = json.loads((tmp_path / "ensemble.json.manifest.json").read_text())
        assert ensemble_manifest["outputs"] == [str(ensemble_path), str(trace_path)]
        assert (split_dir / "split.manifest.json").exists()

        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--dataset", str(split_dir / "train.json"),
                "--preds", f"ensemble={ensemble_path}",
                "--preds", f"m1={m1}",
                "--csv", str(tmp_path / "eval.csv"),
                "--json", str(tmp_path / "eval.json"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ensemble: F1=" in out and "m1: F1=" in out
        header = (tmp_path / "eval.csv").read_text().splitlines()[0]
        assert header == "class,ensemble_count,ensemble_f1,ensemble_em,m1_count,m1_f1,m1_em"

        rc = main(
            [
                "compare",
                "--dataset", str(corpus_file),
                "--preds", f"m1={m1}",
                "--preds", f"m2={m2}",
                "--csv", str(tmp_path / "sim.csv"),
                "--json", str(tmp_path / "sim.json"),
            ]
        )
        assert rc == 0
        sim = json.loads((tmp_path / "sim.json").read_text())
        assert sim["model_a"] == "m1" and sim["model_b"] == "m2"
        assert (tmp_path / "sim.csv").read_text().startswith("class,equal_f1,equal_em,total")

    def test_split_reruns_are_byte_identical(self, tmp_path, corpus_file):
        args = [
            "split",
            "--dataset", str(corpus_file),
            "--fraction", "0.2",
            "--seed", "13",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(dir_a)]) == 0
        assert main(args + ["--out-dir", str(dir_b)]) == 0
        for name in ("train.json", "pre_eval.json", "split_manifest.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_manifests_written_alongside_outputs(self, tmp_path, corpus_file):
        out = synth_model(tmp_path, corpus_file, "m1", ["what"], seed=1)
        manifest_path = tmp_path / "m1.json.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "synth"
        assert manifest["tool_version"]
        assert manifest["outputs"] == [str(out)]
        assert manifest["seeds"] == {"profile": 1}
        assert manifest["duration_seconds"] >= 0

    def test_classify_stats(self, tmp_path, corpus_file, capsys):
        csv_path = tmp_path / "stats.csv"
        json_path = tmp_path / "stats.json"
        rc = main(
            [
                "classify-stats",
                "--dataset", str(corpus_file),
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SUM" in out
        stats = json.loads(json_path.read_text())
        assert stats["total"] == 84
        assert sum(stats["counts"].values()) == 84
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "class,count,percentage"
        assert lines[-1].startswith("SUM,84,")

    def test_classify_stats_length_buckets(self, tmp_path, corpus_file, capsys):
        rc = main(
            [
                "classify-stats",
                "--dataset", str(corpus_file),
                "--length-buckets", "6,9",
            ]
        )
        assert rc == 0
        assert "len_0" in capsys.readouterr().out

    def test_rules_show(self, capsys):
        assert main(["rules", "show"]) == 0
        out = capsys.readouterr().out
        assert "what_time" in out and "priority" in out
        assert main(["rules", "show", "--json"]) == 0
        rules = json.loads(capsys.readouterr().out)
        assert all({"pattern", "class", "priority"} <= set(r) for r in rules)

    def test_rules_env_override(self, tmp_path, corpus_file, monkeypatch, capsys):
        """QAVOTE_RULES no longer sets the rules: only --rules does."""
        custom = [{"pattern": r"\bwho\b", "class": "who", "priority": 1}]
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(custom), encoding="utf-8")
        assert main(["classify-stats", "--dataset", str(corpus_file)]) == 0
        default_out = capsys.readouterr().out
        monkeypatch.setenv("QAVOTE_RULES", str(rules_path))
        assert main(["classify-stats", "--dataset", str(corpus_file)]) == 0
        assert capsys.readouterr().out == default_out
        assert main(["classify-stats", "--dataset", str(corpus_file),
                     "--rules", str(rules_path)]) == 0
        # only "who" questions match; everything else is undefined
        assert capsys.readouterr().out != default_out


def _option_tables(parser, command=""):
    """Command -> sorted (option strings, dest, default, choices, required, action type,
    value type) of every option, the root parser's and every subcommand's."""
    rows, nested = [], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            nested += [(f"{command} {name}".strip(), sub) for name, sub in action.choices.items()]
        elif not isinstance(action, argparse._HelpAction):
            rows.append((tuple(action.option_strings), action.dest, action.default,
                         action.choices and list(action.choices), action.required,
                         type(action).__name__, getattr(action.type, "__name__", None)))
    tables = {command: sorted(rows)}
    for name, sub in nested:
        tables.update(_option_tables(sub, name))
    return tables


_STORE, _TRUE, _APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"
_DATASET = (("--dataset",), "dataset", None, None, True, _STORE, None)
_PREDS = (("--preds",), "preds", None, None, True, _APPEND, None)
_CLASSIFIER = [(("--length-buckets",), "length_buckets", None, None, False, _STORE, None),
               (("--rules",), "rules", None, None, False, _STORE, None)]
_POLICY = (("--missing-policy",), "missing_policy", "score-as-empty",
           ["score-as-empty", "exclude"], False, _STORE, None)


def _opt(flag, dest=None, default=None, choices=None, required=False, action=_STORE,
         value_type=None):
    return ((flag,), dest or flag[2:].replace("-", "_"), default, choices, required, action,
            value_type)


OPTION_TABLES = {
    "": [(("--version",), "version", "==SUPPRESS==", None, False, "_VersionAction", None)],
    "rules": [],
    "rules show": [*_CLASSIFIER, _opt("--json", default=False, action=_TRUE)],
    "classify-stats": [_DATASET, *_CLASSIFIER, _opt("--csv"), _opt("--json", "json_out")],
    "split": [_DATASET, _opt("--fraction", required=True, value_type="float"),
              _opt("--seed", required=True, value_type="int"),
              _opt("--granularity", default="question", choices=["question", "paragraph"]),
              _opt("--out-dir", required=True)],
    "evaluate": [_DATASET, _PREDS, *_CLASSIFIER, _POLICY, _opt("--json", "json_out"),
                 _opt("--csv")],
    "weights": [_opt("--pre-eval", required=True), _PREDS, *_CLASSIFIER,
                _opt("--basis", default="f1", choices=["f1", "em"]),
                _opt("--no-classes", default=False, action=_TRUE), _POLICY,
                _opt("--out", required=True)],
    "ensemble": [_DATASET, _PREDS, _opt("--weights", required=True), *_CLASSIFIER,
                 _opt("--mode", default="class-aware", choices=["class-aware", "global"]),
                 _opt("--combine", default="sum", choices=["sum", "max"]),
                 _opt("--no-undefined-special-case", default=False, action=_TRUE),
                 _opt("--equality", default="normalized", choices=["normalized", "raw"]),
                 _opt("--out", required=True), _opt("--trace")],
    "compare": [_DATASET, _PREDS, *_CLASSIFIER, _POLICY, _opt("--csv"),
                _opt("--json", "json_out"), _opt("--out-dir")],
    "synth": [_DATASET, _opt("--profile", required=True), _opt("--name", required=True),
              *_CLASSIFIER, _opt("--out", required=True)],
}


class TestOptionTables:
    def test_every_command_keeps_its_options(self):
        """Every flag keeps its dest, default, choices, required-ness, action and type;
        only the order --help lists them in is free."""
        tables = _option_tables(qavote.cli.build_parser())
        assert tables == {command: sorted(rows) for command, rows in OPTION_TABLES.items()}


MANIFEST_KEYS = ["command", "inputs", "config", "seeds", "outputs", "duration_seconds",
                 "tool_version"]


class TestEvaluateSchema:
    """evaluate writes one JSON and one CSV form, whatever the number of models."""

    @pytest.mark.parametrize("n_models", [1, 2])
    def test_name_keyed_json_and_per_model_csv(self, tmp_path, corpus_file, n_models):
        golds = gold_map(load_dataset(corpus_file))
        half = {qid: "granite" for qid in list(golds)[::2]}  # m2 covers other questions
        flags = []
        for name, answers in list({"m1": golds, "m2": half}.items())[:n_models]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(answers), encoding="utf-8")
            flags += ["--preds", f"{name}={path}"]
        report_path, csv_path = tmp_path / "e.json", tmp_path / "e.csv"
        assert main(["evaluate", "--dataset", str(corpus_file), *flags,
                     "--missing-policy", "exclude",
                     "--json", str(report_path), "--csv", str(csv_path)]) == 0

        names = ["m1", "m2"][:n_models]
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert list(report) == names
        for name in names:
            assert list(report[name]) == [
                "model", "missing_policy", "overall", "per_class", "per_question"]
            assert report[name]["model"] == name
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(
            ["class"] + [f"{n}_{col}" for n in names for col in ("count", "f1", "em")])
        assert len(lines) == 1 + len(CLASS_LABELS) + 1
        want = {"m1": [str(len(golds)), "100.00", "100.00"], "m2": [str(len(half)), "0.00", "0.00"]}
        assert lines[-1].split(",") == ["SUM"] + [cell for n in names for cell in want[n]]

    def test_nested_json_key_order(self, tmp_path, corpus_file):
        """The key order of the evaluate report and of the compare pair JSON, at every
        level: reordering a record's fields must not change an artifact unnoticed."""
        golds = gold_map(load_dataset(corpus_file))
        flags = []
        for name, answers in {"a": golds, "b": {qid: "granite" for qid in golds}}.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(answers), encoding="utf-8")
            flags.append(f"--preds={name}={path}")
        report_path, pair_path = tmp_path / "e.json", tmp_path / "pair.json"
        assert main(["evaluate", "--dataset", str(corpus_file), *flags,
                     "--json", str(report_path)]) == 0
        assert main(["compare", "--dataset", str(corpus_file), *flags,
                     "--json", str(pair_path)]) == 0

        stats_keys = ["mean_f1", "em_rate", "count"]
        for report in json.loads(report_path.read_text(encoding="utf-8")).values():
            assert list(report) == [
                "model", "missing_policy", "overall", "per_class", "per_question"]
            assert list(report["overall"]) == stats_keys
            assert report["per_class"]
            assert all(list(stats) == stats_keys for stats in report["per_class"].values())
            assert list(report["per_question"]) == sorted(golds) != list(golds)
            assert all(list(score) == ["f1", "em"] for score in report["per_question"].values())

        pair = json.loads(pair_path.read_text(encoding="utf-8"))
        assert list(pair) == ["model_a", "model_b", "per_class", "overall", "mean_of_equal_f1s",
                              "equal_em_true_count", "equal_em_true_rate"]
        triples = [pair["overall"], *pair["per_class"].values()]
        assert len(triples) > 1
        assert all(list(t) == ["equal_f1", "equal_em", "total"] for t in triples)


@pytest.fixture()
def run_inputs(tmp_path, corpus_file):
    """Three synthetic models and their class weights, made before the command under test."""
    made = tmp_path / "inputs"
    made.mkdir()
    preds = {
        name: synth_model(made, corpus_file, name, CLASS_LABELS[seed::3], seed)
        for seed, name in enumerate(("m1", "m2", "m3"))
    }
    weights = made / "weights.json"
    assert main(["weights", "--pre-eval", str(corpus_file), *pred_flags(preds),
                 "--out", str(weights)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    return corpus_file, preds, weights, out


def pred_flags(preds):
    return [f"--preds={name}={path}" for name, path in preds.items()]


def manifest_cases(corpus, preds, weights, out):
    """Case id -> (argv, manifest path or None, expected manifest without its duration)."""
    d, p, w = str(corpus), {n: str(path) for n, path in preds.items()}, str(weights)
    two = dict(list(p.items())[:2])
    rules = {"rules": "<default>"}
    score_as_empty = {**rules, "missing_policy": "score_as_empty"}

    def expected(command, inputs, config, outputs, seeds=None):
        return {"command": command, "inputs": inputs, "config": config, "seeds": seeds or {},
                "outputs": [str(out / name) for name in outputs], "tool_version": __version__}

    def ensemble(*flags, mode="class_aware", special_case=True):
        argv = ["ensemble", "--dataset", d, *pred_flags(p), "--weights", w,
                "--out", str(out / "ens.json"), *flags]
        outputs = ["ens.json"] + (["ens.jsonl"] if "--trace" in flags else [])
        config = {**rules, "mode": mode, "combine": "sum",
                  "undefined_special_case": special_case, "duplicate_equality": "normalized"}
        return argv, out / "ens.json.manifest.json", expected(
            "ensemble", {"dataset": d, "weights": w, **p}, config, outputs)

    pairs = ["m1_vs_m2", "m1_vs_m3", "m2_vs_m3"]
    profile = write_profile(weights.parent, "m9", {f"len_{i}": 0.5 for i in range(3)}, 5)
    return {
        "classify-stats": (
            ["classify-stats", "--dataset", d, "--csv", str(out / "s.csv"),
             "--json", str(out / "s.json")],
            out / "s.csv.manifest.json",
            expected("classify-stats", {"dataset": d}, rules, ["s.csv", "s.json"])),
        "classify-stats-no-output": (["classify-stats", "--dataset", d], None, None),
        "split": (
            ["split", "--dataset", d, "--fraction", "0.25", "--seed", "7", "--granularity",
             "paragraph", "--out-dir", str(out)],
            out / "split.manifest.json",
            expected("split", {"dataset": d}, {"fraction": 0.25, "granularity": "paragraph"},
                     ["train.json", "pre_eval.json", "split_manifest.json"], {"split": 7})),
        "synth": (
            ["synth", "--dataset", d, "--length-buckets", "6,9", "--profile", str(profile),
             "--name", "m9", "--out", str(out / "m9.json")],
            out / "m9.json.manifest.json",
            expected("synth", {"dataset": d, "profile": str(profile)},
                     {"length_buckets": [6, 9], "corruption": "disjoint_token",
                      "model_name": "m9"}, ["m9.json"], {"profile": 5})),
        "weights": (
            ["weights", "--pre-eval", d, *pred_flags(two), "--basis", "em", "--no-classes",
             "--missing-policy", "exclude", "--out", str(out / "w.json")],
            out / "w.json.manifest.json",
            expected("weights", {"pre_eval": d, **two},
                     {**rules, "basis": "em_rate", "no_classes": True,
                      "missing_policy": "exclude"}, ["w.json"])),
        "ensemble": ensemble(),
        "ensemble-trace": ensemble("--trace", str(out / "ens.jsonl")),
        "ensemble-global": ensemble("--mode", "global", mode="global", special_case=False),
        "evaluate-one": (
            ["evaluate", "--dataset", d, "--preds", f"m1={p['m1']}",
             "--json", str(out / "e.json")],
            out / "e.json.manifest.json",
            expected("evaluate", {"dataset": d, "m1": p["m1"]}, score_as_empty, ["e.json"])),
        "evaluate-several": (
            ["evaluate", "--dataset", d, *pred_flags(p), "--missing-policy", "exclude",
             "--csv", str(out / "e.csv"), "--json", str(out / "e.json")],
            out / "e.json.manifest.json",
            expected("evaluate", {"dataset": d, **p}, {**rules, "missing_policy": "exclude"},
                     ["e.json", "e.csv"])),
        "compare-pair": (
            ["compare", "--dataset", d, *pred_flags(two), "--json", str(out / "c.json"),
             "--csv", str(out / "c.csv")],
            out / "c.csv.manifest.json",
            expected("compare", {"dataset": d, **two}, score_as_empty, ["c.csv", "c.json"])),
        "compare-out-dir": (
            ["compare", "--dataset", d, *pred_flags(p), "--out-dir", str(out / "cmp")],
            out / "cmp" / "compare.manifest.json",
            expected("compare", {"dataset": d, **p}, score_as_empty,
                     [f"cmp/{pair}.{kind}" for pair in pairs for kind in ("csv", "json")])),
    }


MANIFEST_CASES = ["classify-stats", "classify-stats-no-output", "split", "synth", "weights",
                  "ensemble", "ensemble-trace", "ensemble-global", "evaluate-one",
                  "evaluate-several", "compare-pair", "compare-out-dir"]


class TestManifests:
    @pytest.mark.parametrize("case", MANIFEST_CASES)
    def test_manifest_of_every_command(self, run_inputs, case):
        """The manifest lists every file the command wrote, and the command wrote
        no other file besides the manifest."""
        cases = manifest_cases(*run_inputs)
        assert sorted(cases) == sorted(MANIFEST_CASES)
        argv, path, want = cases[case]
        out = run_inputs[-1]
        assert main(argv) == 0
        written = sorted(str(p) for p in out.rglob("*") if p.is_file())
        if path is None:
            assert written == []
            return
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert written == sorted([*manifest["outputs"], str(path)])
        assert list(manifest) == MANIFEST_KEYS
        assert manifest.pop("duration_seconds") >= 0
        # json.dumps keeps key order, so this also pins the order of nested keys
        assert json.dumps(manifest) == json.dumps(want)

    def test_paths_are_recorded_as_given(self, tmp_path, corpus_file, monkeypatch):
        """A --preds path is spelled in ``inputs`` as given, like a flag input's."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text("{}", encoding="utf-8")
        assert main(["evaluate", "--dataset", f"./{corpus_file.name}", "--preds", "a=./p.json",
                     "--json", "./e.json"]) == 0
        manifest = json.loads((tmp_path / "e.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {"dataset": f"./{corpus_file.name}", "a": "./p.json"}
        assert manifest["outputs"] == ["./e.json"]


class TestGlobalMode:
    def test_global_mode_equals_class_aware_vote_on_no_classes_table(
        self, tmp_path, corpus_file
    ):
        # models strong on different classes, so class and global weights differ
        profiles = {
            "m1": {"what": 0.9, "who": 0.2, "when": 0.8, "undefined": 0.3},
            "m2": {"what": 0.3, "who": 0.9, "when": 0.4, "undefined": 0.8},
            "m3": {"what": 0.6, "who": 0.5, "when": 0.2, "undefined": 0.5},
        }
        preds = []
        for seed, (name, per_class) in enumerate(profiles.items(), start=1):
            profile = write_profile(tmp_path, name, per_class, seed)
            out = tmp_path / f"{name}.json"
            assert main(["synth", "--dataset", str(corpus_file), "--profile", str(profile),
                         "--name", name, "--out", str(out)]) == 0
            preds += ["--preds", f"{name}={out}"]

        def weights(name, *flags):
            path = tmp_path / name
            assert main(["weights", "--pre-eval", str(corpus_file), *preds, *flags,
                         "--out", str(path)]) == 0
            return path

        def ensemble(name, weights_path, *flags):
            out, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
            assert main(["ensemble", "--dataset", str(corpus_file), *preds,
                         "--weights", str(weights_path), *flags,
                         "--out", str(out), "--trace", str(trace)]) == 0
            return out.read_bytes(), trace.read_bytes()

        class_weights = weights("class_weights.json")
        flat_weights = weights("flat_weights.json", "--no-classes")
        global_mode = ensemble("global", class_weights, "--mode", "global")
        flat_vote = ensemble("flat", flat_weights, "--no-undefined-special-case")
        assert global_mode == flat_vote
        # the class-aware vote on the same table decides differently
        assert ensemble("class", class_weights) != global_mode

        manifest = json.loads((tmp_path / "global.json.manifest.json").read_text())
        assert manifest["config"] == {
            "rules": "<default>",
            "mode": "global",
            "combine": "sum",
            "undefined_special_case": False,
            "duplicate_equality": "normalized",
        }


class TestSharedFlagsOnce:
    def test_only_main_builds_the_classifier_and_the_missing_policy(self):
        """``main`` resolves --rules/--length-buckets and --missing-policy for every
        command; a command body reads ``args.classifier`` and ``args.missing_policy``."""
        def is_shared_setup(func):
            return isinstance(func, ast.Name) and func.id in ("_classifier_from_args",
                                                               "MissingPolicy")

        calls = package_calls(is_shared_setup)
        assert {call for call in calls if call[0] == "cli"} == {("cli", "main")}


class TestClassifyOnce:
    def test_compare_matches_each_question_once(self, tmp_path, monkeypatch):
        searches: Counter = Counter()  # (pattern, question) -> regex searches

        class CountingPattern:
            def __init__(self, compiled):
                self.compiled = compiled

            def search(self, question):
                searches[self.compiled.pattern, question] += 1
                return self.compiled.search(question)

        class CountingRule(ClassRule):
            def compiled(self):
                return CountingPattern(super().compiled())

        counting = ClassRuleSet(
            CountingRule(r.pattern, r.question_class, r.priority) for r in default_rules().rules
        )
        monkeypatch.setattr("qavote.cli.default_rules", lambda: counting)

        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(make_squad_dict(uniform_counts(10))), encoding="utf-8")
        dataset = load_dataset(corpus)
        assert len(dataset) == 140
        preds = []
        for n, name in enumerate("abcd"):
            answers = {
                item.id: item.gold_answers[0] if i % 4 != n else "granite"
                for i, item in enumerate(dataset.items)
                if i % 7 != n  # every model misses some questions
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(answers), encoding="utf-8")
            preds += ["--preds", f"{name}={path}"]
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--dataset", str(corpus), *preds, "--out-dir", str(out_dir)]) == 0

        questions = {item.question for item in dataset.items}
        admitted = set()  # rules the prefilter lets search, up to the winning one
        for question in questions:
            folded = question.lower() if question.isascii() else None
            for rule in counting.rules:
                if folded is None or required_literal(rule.pattern) in folded:
                    admitted.add((rule.pattern, question))
                    if re.search(rule.pattern, question, re.IGNORECASE):
                        break
        assert set(searches) == admitted
        assert max(searches.values()) == 1
        fresh = default_rules()
        assert all(counting(q) == fresh(q) for q in questions)
        expected = class_distribution(dataset, fresh).counts
        pair = json.loads((out_dir / "a_vs_d.json").read_text(encoding="utf-8"))
        assert {label: t["total"] for label, t in pair["per_class"].items()} == expected


class TestErrorCodes:
    @pytest.mark.parametrize("policy", ["score-as-empty", "exclude"])
    def test_weights_on_no_scored_question_exit_four(self, tmp_path, corpus_file, capsys,
                                                     policy):
        """An empty pre-evaluation set, or one no model answers under exclude, would
        give every weight 0.0 and leave every vote to model order."""
        pre_eval = corpus_file
        if policy == "score-as-empty":
            pre_eval = tmp_path / "empty.json"
            pre_eval.write_text('{"version": "1.1", "data": []}', encoding="utf-8")
        preds = tmp_path / "p.json"
        preds.write_text('{"no-such-question": "x"}', encoding="utf-8")
        out = tmp_path / "w.json"
        rc = main(["weights", "--pre-eval", str(pre_eval), "--preds", f"a={preds}",
                   "--preds", f"b={preds}", "--missing-policy", policy, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: the pre-evaluation set has no scored question")
        assert len(err.splitlines()) == 1
        # no weights, no manifest, no temporary file
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {corpus_file.name, pre_eval.name, "p.json"})

    def test_weights_under_exclude_rest_on_each_models_own_answers(self, tmp_path, capsys):
        """Under exclude, models that leave different questions unanswered are
        weighted each on the questions it answered: every row is that model's
        mean F1 over its own answered questions of the class (its global mean
        where it answered none), never an error for differing id sets."""
        qas = {"q1": ("Who wrote the song?", "Ann Lee"), "q2": ("Who sang the song?", "Bob Ray"),
               "q3": ("When was the song written?", "1990")}
        pre_eval = tmp_path / "pre_eval.json"
        pre_eval.write_text(json.dumps({"version": "1.1", "data": [{"title": "t", "paragraphs": [
            {"context": "Ann Lee wrote it and Bob Ray sang it in 1990.", "qas": [
                {"id": qid, "question": q, "answers": [{"text": gold, "answer_start": 0}]}
                for qid, (q, gold) in qas.items()]}]}]}), encoding="utf-8")
        answers = {"a": {"q1": "Ann Lee", "q3": "1990"}, "b": {"q1": "Ann", "q2": "Bob Ray"}}
        preds = []
        for model, answered in answers.items():
            path = tmp_path / f"{model}.json"
            path.write_text(json.dumps(answered), encoding="utf-8")
            preds += ["--preds", f"{model}={path}"]
        out = tmp_path / "w.json"
        assert main(["weights", "--pre-eval", str(pre_eval), *preds,
                     "--missing-policy", "exclude", "--out", str(out)]) == 0, capsys.readouterr()
        table = json.loads(out.read_text(encoding="utf-8"))
        rules = default_rules()
        for model, answered in answers.items():
            f1_by_label = {}
            for qid, answer in answered.items():
                question, gold = qas[qid]
                f1_by_label.setdefault(rules(question), []).append(score_pair(answer, [gold])[0])
            f1s = [f1 for by_label in f1_by_label.values() for f1 in by_label]
            assert table["global"][model] == sum(f1s) / len(f1s)
            for label, row in table["classes"].items():
                own = f1_by_label.get(label)
                assert row[model] == (sum(own) / len(own) if own else table["global"][model])
        ann = score_pair("Ann", ["Ann Lee"])[0]
        assert table["classes"]["who"] == {"a": 1.0, "b": (ann + 1.0) / 2}

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["classify-stats", "--dataset", str(missing)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_missing_output_directory_names_the_output(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "no_dir" / "m.json"
        profile = write_profile(tmp_path, "m", {"what": 0.5}, 1)
        rc = main(["synth", "--dataset", str(corpus_file), "--profile", str(profile),
                   "--name", "m", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"'{out}'" in err and ".tmp" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["split", "compare"])
    def test_out_dir_that_is_a_file_exits_three(self, tmp_path, corpus_file, capsys, command):
        out_dir = tmp_path / "afile"
        out_dir.write_text("GOOD\n", encoding="utf-8")
        if command == "split":
            argv = ["split", "--dataset", str(corpus_file), "--fraction", "0.5", "--seed", "1"]
        else:
            preds = tmp_path / "p.json"
            preds.write_text("{}", encoding="utf-8")
            argv = ["compare", "--dataset", str(corpus_file), "--preds", f"a={preds}",
                    "--preds", f"b={preds}"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: [Errno 17] File exists: '{out_dir}'\n"
        assert out_dir.read_text(encoding="utf-8") == "GOOD\n"

    def test_output_that_is_a_directory_names_it(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out_dir"
        out.mkdir()
        profile = write_profile(tmp_path, "m", {"what": 0.5}, 1)
        rc = main(["synth", "--dataset", str(corpus_file), "--profile", str(profile),
                   "--name", "m", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flag",
        [("evaluate", "dataset"), ("compare", "dataset"), ("weights", "pre_eval"),
         ("ensemble", "dataset"), ("ensemble", "weights")],
    )
    def test_model_named_like_an_input_flag_is_rejected(
        self, tmp_path, corpus_file, capsys, command, flag
    ):
        preds = tmp_path / "p.json"
        preds.write_text("{}", encoding="utf-8")
        weights = tmp_path / "w.json"
        assert main(["weights", "--pre-eval", str(corpus_file), "--preds", f"a={preds}",
                     "--preds", f"b={preds}", "--out", str(weights)]) == 0
        data = "--pre-eval" if command == "weights" else "--dataset"
        argv = [command, data, str(corpus_file), "--preds", f"a={preds}",
                "--preds", f"{flag}={preds}"]
        if command == "ensemble":
            argv += ["--weights", str(weights)]
        if command in ("weights", "ensemble"):
            argv += ["--out", str(tmp_path / "out.json")]
        capsys.readouterr()
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"--{flag.replace('_', '-')}" in err and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.json", "p.json", "w.json", "w.json.manifest.json",
        ]

    def test_path_through_a_file_exits_three(self, corpus_file, capsys):
        missing = corpus_file / "x.json"
        assert main(["classify-stats", "--dataset", str(missing)]) == 3
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{missing}'\n"

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        rc = main(["classify-stats", "--dataset", str(bad)])
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_wrong_field_type_exits_four_with_json_path(self, tmp_path, capsys):
        data = make_squad_dict({"what": 2})
        data["data"][0]["paragraphs"][0]["qas"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["classify-stats", "--dataset", str(bad)])
        assert rc == 4
        assert "$.data[0].paragraphs[0].qas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rules, message",
        [([5], "$[0] must be an object, got int"),
         ([{"pattern": "(", "class": "who", "priority": 1}], "index 0: invalid pattern '('"),
         ([{"pattern": "x", "class": "who", "priority": 1},
           {"pattern": "y", "class": "what", "priority": "7"}],
          "field $[1].priority must be int, got str")],
        ids=["not-an-object", "bad-regex", "string-priority"],
    )
    def test_malformed_rule_file_exits_four(self, tmp_path, capsys, rules, message):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules), encoding="utf-8")
        assert main(["rules", "show", "--rules", str(path)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, message",
        [({"corruption": "disjoint_token", "seed": 1}, "$.per_class"),
         ([{"per_class": {}}], "$ must be an object"),
         ({"per_class": {"what": "x"}, "corruption": "disjoint_token", "seed": 1},
          "$.per_class.what"),
         ({"per_class": {"what": 10**400}, "corruption": "disjoint_token", "seed": 1},
          "field $.per_class.what is too large for a float")],
        ids=["no-per-class", "list", "string-probability", "huge-probability"],
    )
    def test_malformed_profile_exits_four(self, tmp_path, corpus_file, capsys, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        rc = main(["synth", "--dataset", str(corpus_file), "--profile", str(path),
                   "--name", "m", "--out", str(tmp_path / "m.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert len(err.splitlines()) == 1

    def test_threads_flag_is_gone(self, corpus_file):
        for command in (["evaluate", "--dataset", str(corpus_file)],
                        ["weights", "--pre-eval", str(corpus_file), "--out", "w.json"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--preds", "a=a.json", "--threads", "2"])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [[], ["--prob-all", "0"], ["--corruption", "random_span"],
                                       ["--seed", "9"]], ids=["no-profile", "prob-all",
                                                             "corruption", "seed"])
    def test_inline_profile_flags_are_gone(self, tmp_path, corpus_file, flags):
        """A profile is given by --profile alone: these flags were silently ignored
        next to it."""
        profile = [] if not flags else ["--profile", str(write_profile(tmp_path, "m", {}, 1))]
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--dataset", str(corpus_file), *profile, *flags, "--name", "m",
                  "--out", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "m.json").exists()

    def test_compare_single_pair_outputs_rejected_before_scoring(
        self, tmp_path, corpus_file, monkeypatch, capsys
    ):
        def no_scoring(*_):
            raise AssertionError("scored before rejecting --csv")

        monkeypatch.setattr("qavote.cli.evaluate", no_scoring)
        preds = [f"--preds={name}={tmp_path / 'p.json'}" for name in "abc"]
        rc = main(["compare", "--dataset", str(corpus_file), *preds,
                   "--csv", str(tmp_path / "sim.csv")])
        assert rc == 4
        assert "--out-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "ensemble", "ensemble-trace-manifest", "evaluate", "classify-stats",
        "classify-stats-json-manifest", "compare", "compare-pairs", "compare-csv-pair",
        "compare-json-manifest",
    ])
    def test_two_files_naming_one_file_exit_four(self, run_inputs, monkeypatch, capsys, case):
        """No two files of one command, its manifest included, may name one file:
        the later write would replace the earlier. Checked before any input is read."""
        corpus, preds, weights, out = run_inputs

        def no_read(*_):
            raise AssertionError("read the dataset before checking the output files")

        monkeypatch.setattr("qavote.cli.load_dataset", no_read)
        d, same, also_same = str(corpus), str(out / "same"), str(out / "." / "same")
        two = pred_flags(dict(list(preds.items())[:2]))
        ensemble = ["ensemble", "--dataset", d, *pred_flags(preds), "--weights", str(weights)]
        a_b = [f"--preds={name}={preds['m1']}" for name in ("a", "b")]
        compare_a_b = ["compare", "--dataset", d, *a_b, "--out-dir", str(out / "d")]
        argv, names = {
            "ensemble": ([*ensemble, "--out", same, "--trace", also_same], ["--out", "--trace"]),
            "ensemble-trace-manifest": (
                [*ensemble, "--out", str(out / "e.json"),
                 "--trace", str(out / "e.json.manifest.json")], ["--trace", "the manifest"]),
            "evaluate": (["evaluate", "--dataset", d, *two, "--json", same, "--csv", also_same],
                         ["--json", "--csv"]),
            "classify-stats": (["classify-stats", "--dataset", d, "--csv", same,
                                "--json", also_same], ["--csv", "--json"]),
            "classify-stats-json-manifest": (
                ["classify-stats", "--dataset", d, "--csv", str(out / "h.csv"),
                 "--json", str(out / "h.csv.manifest.json")], ["--json", "the manifest"]),
            "compare": (["compare", "--dataset", d, *two, "--csv", same, "--json", also_same],
                        ["--csv", "--json"]),
            "compare-pairs": (
                ["compare", "--dataset", d,
                 *(f"--preds={name}={preds['m1']}" for name in ("a_vs", "b", "a", "vs_b")),
                 "--out-dir", str(out / "cmp")], ["('a_vs', 'b')", "('a', 'vs_b')", "a_vs_vs_b"]),
            "compare-csv-pair": ([*compare_a_b, "--csv", str(out / "d" / "a_vs_b.csv")],
                                 ["('a', 'b')", "--csv"]),
            "compare-json-manifest": (
                [*compare_a_b, "--json", str(out / "d" / "compare.manifest.json")],
                ["--json", "the manifest"]),
        }[case]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert all(name in err for name in names) and len(err.splitlines()) == 1, err
        assert list(out.iterdir()) == []

    def test_unexpected_error_prints_traceback(self, corpus_file, monkeypatch, capsys):
        def crash(_):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr("qavote.cli.load_dataset", crash)
        assert main(["classify-stats", "--dataset", str(corpus_file)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "disk on fire" in err
        assert err.splitlines()[-1] == "error: disk on fire"

    def test_expected_errors_print_one_line(self, tmp_path, capsys):
        assert main(["classify-stats", "--dataset", str(tmp_path / "nope.json")]) == 3
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["classify-stats", "--dataset", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify-stats", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_rules_show_without_rules_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["rules", "show", "--length-buckets", "6"])
        assert excinfo.value.code == 2
        assert "needs a rule-based classifier" in capsys.readouterr().err

    def test_bad_preds_argument(self, tmp_path, corpus_file, capsys):
        rc = main(
            [
                "evaluate",
                "--dataset", str(corpus_file),
                "--preds", "missing-equals-sign",
            ]
        )
        assert rc == 4
        assert "NAME=PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../evil", "a/b"])
    def test_model_name_with_a_path_separator_is_rejected(self, tmp_path, corpus_file, capsys,
                                                          name):
        """A model name becomes part of ``compare --out-dir`` file names, so one that
        holds a separator could write outside the directory."""
        (tmp_path / "work").mkdir()
        preds = tmp_path / "work" / "p.json"
        preds.write_text(json.dumps(gold_map(load_dataset(corpus_file))), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        rc = main(["compare", "--dataset", str(corpus_file), "--out-dir",
                   str(tmp_path / "work" / "cmp"), "--preds", f"{name}={preds}",
                   "--preds", f"b={preds}"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "--preds" in err and repr(name) in err and len(err.splitlines()) == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_weight_table_repeating_a_model_exits_four(self, tmp_path, corpus_file, capsys):
        """A model listed twice used to vote twice, merged with itself."""
        ids = load_dataset(corpus_file).ids
        preds = []
        for model, answer in (("a", "x"), ("b", "y")):
            path = tmp_path / f"{model}.json"
            path.write_text(json.dumps({qid: answer for qid in ids}), encoding="utf-8")
            preds += ["--preds", f"{model}={path}"]
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(
            {"models": ["a", "b", "a"], "metric_basis": "mean_f1", "global": {"a": 0.4, "b": 0.6},
             "classes": {label: {"a": 0.4, "b": 0.6} for label in CLASS_LABELS},
             "best_overall": "b"}), encoding="utf-8")
        out = tmp_path / "e.json"
        assert main(["ensemble", "--dataset", str(corpus_file), *preds,
                     "--weights", str(weights), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {weights}: models repeat a name: ['a', 'b', 'a']\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "learned, voted, unweighted",
        [([], ["--length-buckets", "3,6"], ["len_0", "len_1", "len_2"]),
         (["--length-buckets", "6,9"], ["--length-buckets", "6,9,12"], ["len_3"])],
        ids=["rules-then-buckets", "more-buckets"],
    )
    def test_weights_of_another_classifier_exit_four(self, tmp_path, corpus_file, capsys,
                                                     learned, voted, unweighted):
        """A label without a row used to vote with the global weights, silently."""
        golds = tmp_path / "p.json"
        golds.write_text(json.dumps(gold_map(load_dataset(corpus_file))), encoding="utf-8")
        preds = ["--preds", f"a={golds}", "--preds", f"b={golds}"]
        weights = tmp_path / "w.json"
        assert main(["weights", "--pre-eval", str(corpus_file), *preds, *learned,
                     "--out", str(weights)]) == 0
        capsys.readouterr()
        out = tmp_path / "e.json"
        assert main(["ensemble", "--dataset", str(corpus_file), *preds, *voted,
                     "--weights", str(weights), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: --weights {weights} has no row for the labels {unweighted}\n")
        assert not out.exists()

    def test_weights_without_class_rows_vote_globally(self, tmp_path, corpus_file):
        golds = tmp_path / "p.json"
        golds.write_text(json.dumps(gold_map(load_dataset(corpus_file))), encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(
            {"models": ["a", "b"], "metric_basis": "mean_f1", "global": {"a": 0.4, "b": 0.6},
             "classes": {}, "best_overall": "b"}), encoding="utf-8")
        assert main(["ensemble", "--dataset", str(corpus_file), "--preds", f"a={golds}",
                     "--preds", f"b={golds}", "--length-buckets", "6,9", "--weights",
                     str(weights), "--out", str(tmp_path / "e.json")]) == 0

    def test_weights_naming_another_best_overall_exit_four(self, tmp_path, corpus_file,
                                                           capsys):
        """``best_overall`` is derived from the global weights; a file naming
        another model is refused, not silently corrected."""
        golds = tmp_path / "p.json"
        golds.write_text(json.dumps(gold_map(load_dataset(corpus_file))), encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(
            {"models": ["a", "b"], "metric_basis": "mean_f1", "global": {"a": 0.4, "b": 0.6},
             "classes": {}, "best_overall": "a"}), encoding="utf-8")
        out = tmp_path / "e.json"
        assert main(["ensemble", "--dataset", str(corpus_file), "--preds", f"a={golds}",
                     "--preds", f"b={golds}", "--weights", str(weights),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {weights}: field $.best_overall must be 'b', the global-weight argmax, "
            "got 'a'\n")
        assert not out.exists()

    @pytest.mark.parametrize("edges", ["", ",", "6,x", "6,,9", "6,"],
                             ids=["empty", "comma", "not-int", "empty-field", "trailing-comma"])
    def test_length_buckets_that_are_no_edge_list_exit_four(self, corpus_file, capsys, edges):
        assert main(["classify-stats", "--dataset", str(corpus_file),
                     "--length-buckets", edges]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: --length-buckets {edges!r}: ")
        assert len(err.splitlines()) == 1

    def test_empty_rules_path_exits_four(self, tmp_path, corpus_file, capsys):
        """An empty --rules used to classify with the built-in rules, silently."""
        out = tmp_path / "h.json"
        assert main(["classify-stats", "--dataset", str(corpus_file), "--rules", "",
                     "--json", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: --rules '': ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rules show", "classify-stats", "evaluate", "weights",
                                         "ensemble", "compare", "synth"])
    def test_rules_and_length_buckets_together_exit_two(self, tmp_path, capsys, command):
        """--length-buckets used to win silently: the --rules file went unread, even
        when malformed, and the manifest showed only the buckets."""
        bad_rules = tmp_path / "bad_rules.json"
        bad_rules.write_text("{", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        d, p = ["--dataset", str(tmp_path / "c.json")], ["--preds", f"a={tmp_path / 'a.json'}"]
        argv = {
            "rules show": [],
            "classify-stats": [*d, "--json", str(out / "h.json")],
            "evaluate": [*d, *p, "--json", str(out / "e.json")],
            "weights": ["--pre-eval", str(tmp_path / "c.json"), *p, "--out", str(out / "w.json")],
            "ensemble": [*d, *p, "--weights", str(tmp_path / "w.json"),
                         "--out", str(out / "e.json")],
            "compare": [*d, *p, "--preds", f"b={tmp_path / 'a.json'}",
                        "--json", str(out / "pair.json")],
            "synth": [*d, "--profile", str(tmp_path / "p.json"), "--name", "m",
                      "--out", str(out / "m.json")],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), *argv, "--rules", str(bad_rules), "--length-buckets", "6,9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--rules" in err and "--length-buckets" in err, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", ["compare-out-dir", "evaluate-json", "classify-stats-csv",
                                      "ensemble-trace", "split-out-dir", "synth-out",
                                      "weights-out"])
    def test_empty_output_path_exits_four(self, run_inputs, tmp_path, monkeypatch, capsys,
                                          case):
        """An output flag given as '' used to mean "not given" (no file written), the
        current directory (split) or a late error naming no flag (synth, weights)."""
        corpus, preds, weights, out = run_inputs
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)

        def no_read(*_):
            raise AssertionError("read the dataset before checking the output paths")

        monkeypatch.setattr("qavote.cli.load_dataset", no_read)
        d, two = ["--dataset", str(corpus)], pred_flags(dict(list(preds.items())[:2]))
        profile = write_profile(tmp_path, "m", {"what": 0.5}, 1)
        argv, flag = {
            "compare-out-dir": (["compare", *d, *two, "--out-dir", ""], "--out-dir"),
            "evaluate-json": (["evaluate", *d, *two, "--json", ""], "--json"),
            "classify-stats-csv": (["classify-stats", *d, "--csv", ""], "--csv"),
            "ensemble-trace": (["ensemble", *d, *pred_flags(preds), "--weights", str(weights),
                                "--out", str(out / "e.json"), "--trace", ""], "--trace"),
            "split-out-dir": (["split", *d, "--fraction", "0.5", "--seed", "1",
                               "--out-dir", ""], "--out-dir"),
            "synth-out": (["synth", *d, "--profile", str(profile), "--name", "m", "--out", ""],
                          "--out"),
            "weights-out": (["weights", "--pre-eval", str(corpus), *two, "--out", ""], "--out"),
        }[case]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} '': ") and len(err.splitlines()) == 1, err
        assert list(out.iterdir()) == [] and list(cwd.iterdir()) == []

    def test_compare_needs_two_models(self, tmp_path, corpus_file, capsys):
        preds = tmp_path / "p.json"
        preds.write_text("{}", encoding="utf-8")
        rc = main(
            ["compare", "--dataset", str(corpus_file), "--preds", f"a={preds}"]
        )
        assert rc == 4


def _command(command: str, files: dict[str, Path], out: Path) -> list[str]:
    """Argv of ``command`` reading ``files`` and writing under ``out``."""
    dataset = ["--dataset", str(files["dataset"])]
    models = ["--preds", f"a={files['preds']}", "--preds", f"b={files['preds']}"]
    return {
        "classify-stats": ["classify-stats", *dataset, "--rules", str(files["rules"])],
        "split": ["split", *dataset, "--fraction", "0.5", "--seed", "1",
                  "--out-dir", str(out / "split")],
        "evaluate": ["evaluate", *dataset, *models],
        "weights": ["weights", "--pre-eval", str(files["dataset"]), *models,
                    "--out", str(out / "w.json")],
        "ensemble": ["ensemble", *dataset, *models, "--weights", str(files["weights"]),
                     "--out", str(out / "e.json")],
        "compare": ["compare", *dataset, *models],
        "synth": ["synth", *dataset, "--profile", str(files["profile"]), "--name", "m",
                  "--out", str(out / "m.json")],
    }[command]


# (command, the kind of input file it reads through the flag under test)
INPUT_FLAGS = [
    ("classify-stats", "dataset"), ("split", "dataset"), ("evaluate", "dataset"),
    ("ensemble", "dataset"), ("compare", "dataset"), ("synth", "dataset"),
    ("weights", "dataset"),  # --pre-eval
    ("evaluate", "preds"), ("ensemble", "weights"), ("synth", "profile"),
    ("classify-stats", "rules"),
]
INPUT_FLAG_IDS = [f"{command}-{kind}" for command, kind in INPUT_FLAGS]


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _write_inputs(root: Path, per_class: int) -> dict[str, Path]:
    """One valid file of each input kind under ``root``, keyed by kind; the
    dataset holds ``per_class`` questions of every class."""
    files = {kind: root / f"{kind}.json" for kind in
             ("dataset", "preds", "weights", "profile", "rules")}
    files["dataset"].write_text(json.dumps(make_squad_dict(uniform_counts(per_class))),
                                encoding="utf-8")
    golds = {item.id: item.gold_answers[0] for item in load_dataset(files["dataset"]).items}
    files["preds"].write_text(json.dumps(golds), encoding="utf-8")
    files["profile"].write_text(
        json.dumps({"per_class": {"what": 0.5}, "corruption": "disjoint_token", "seed": 1}),
        encoding="utf-8",
    )
    files["rules"].write_text(json.dumps(default_rules().to_json()), encoding="utf-8")
    assert main(["weights", "--pre-eval", str(files["dataset"]), "--preds", f"a={files['preds']}",
                 "--preds", f"b={files['preds']}", "--out", str(files["weights"])]) == 0
    return files


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """One small valid file of each input kind, keyed by kind, and their directory."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("mutated", "out"):
        (root / name).mkdir()
    return _write_inputs(root, 1), root


class TestMalformedInputs:
    """No input file makes a command exit 1: every file that cannot be read as
    UTF-8 JSON is exit 4 (exit 3 for a directory), one line naming the file."""

    BAD_INPUTS = {
        "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, 4),
        "directory": (None, 3),
        "invalid-utf8": (b'{"k": "\xff\xfe"}', 4),
        "duplicate-key": (b'{"k": "Paris", "k": "London"}', 4),
        "lone-surrogate": (b'{"k": "\\ud800"}', 4),
        "wrong-schema": (b'{"k": 1}', 4),
    }

    @pytest.mark.parametrize("bad", list(BAD_INPUTS))
    @pytest.mark.parametrize("command, kind", INPUT_FLAGS, ids=INPUT_FLAG_IDS)
    def test_bad_file_exits_three_or_four_naming_it(self, tmp_path, input_files, command,
                                                    kind, bad):
        files, _ = input_files
        content, expected = self.BAD_INPUTS[bad]
        path = tmp_path / "bad_input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, err = _run_quietly(_command(command, {**files, kind: path}, tmp_path))
        assert code == expected, err
        assert str(path) in err and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(INPUT_FLAGS), data=st.data())
    def test_mutated_file_never_crashes(self, input_files, case, data):
        files, root = input_files
        command, kind = case
        content = data.draw(_mutations(files[kind].read_bytes()), label="content")
        path = root / "mutated" / f"{kind}.json"
        path.write_bytes(content)
        code, err = _run_quietly(_command(command, {**files, kind: path}, root / "out"))
        assert code in (0, 3, 4), err
        assert "Traceback" not in err


def _flag_of(command: str, kind: str) -> str:
    """The flag through which ``command`` reads the input file of ``kind``."""
    return "--pre-eval" if (command, kind) == ("weights", "dataset") else f"--{kind}"


def _commands(parser, name=""):
    """(name, parser) of every command under ``parser``, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                full = f"{name} {sub_name}".strip()
                if sub.get_default("func") is not None:
                    yield full, sub
                yield from _commands(sub, full)


class TestReadPlan:
    """``main`` checks every input a command names before it reads any of them."""

    @pytest.fixture()
    def no_read(self, monkeypatch):
        def fail(path):
            raise AssertionError(f"read {path} before checking every input")

        monkeypatch.setattr("qavote.corpus.read_json", fail)

    @pytest.mark.parametrize("command, kind", INPUT_FLAGS, ids=INPUT_FLAG_IDS)
    def test_empty_input_path_exits_four(self, tmp_path, input_files, no_read, command, kind):
        """An input flag given as '' used to exit 3 with an error naming no flag."""
        files, _ = input_files
        code, err = _run_quietly(_command(command, {**files, kind: ""}, tmp_path))
        assert code == 4, err
        assert err.startswith(f"error: {_flag_of(command, kind)} ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, kind", [case for case in INPUT_FLAGS if case[1] != "rules"],
                             ids=[i for i in INPUT_FLAG_IDS if not i.endswith("-rules")])
    def test_missing_input_exits_three(self, tmp_path, input_files, no_read, command, kind):
        """A missing input used to exit 3 only after the inputs before it were read."""
        files, _ = input_files
        missing = tmp_path / "missing.json"
        code, err = _run_quietly(_command(command, {**files, kind: missing}, tmp_path))
        assert code == 3, err
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", ["nan", "1.5", "-0.1"])
    def test_fraction_out_of_range_exits_four(self, tmp_path, input_files, no_read, fraction):
        """The fraction is checked before the corpus is read and decoded."""
        files, _ = input_files
        argv = ["split", "--dataset", str(files["dataset"]), "--fraction", fraction,
                "--seed", "1", "--out-dir", str(tmp_path / "split")]
        code, err = _run_quietly(argv)
        assert code == 4
        assert err == f"error: fraction must be within [0, 1], got {float(fraction)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["classify-stats", "classify-stats-rules", "split",
                                      "evaluate", "weights", "ensemble", "compare", "synth",
                                      "manifest"])
    def test_output_naming_an_input_exits_four(self, tmp_path, input_files, no_read, case):
        """An output that names an input used to replace it: ``evaluate --json`` over
        its own ``--preds`` file exited 0 with the report in place of the predictions."""
        files, _ = input_files
        names = {"dataset": "train.json", "preds": "e.json.manifest.json", "weights": "w.json",
                 "profile": "f.json", "rules": "r.json"}
        for kind, name in names.items():
            shutil.copyfile(files[kind], tmp_path / name)
        d, p, w, f, r = (str(tmp_path / names[kind]) for kind in names)
        models = ["--preds", f"a={p}", "--preds", f"b={p}"]
        argv, labels, victim = {
            "classify-stats": (["classify-stats", "--dataset", d, "--json", d],
                               ("--dataset", "--json"), d),
            "classify-stats-rules": (["classify-stats", "--dataset", d, "--rules", r,
                                      "--csv", r], ("--rules", "--csv"), r),
            "split": (["split", "--dataset", d, "--fraction", "0.5", "--seed", "1",
                       "--out-dir", str(tmp_path)], ("--dataset", "--out-dir"), d),
            "evaluate": (["evaluate", "--dataset", d, *models, "--json", p],
                         ("--preds a", "--json"), p),
            "weights": (["weights", "--pre-eval", d, *models, "--out", d],
                        ("--pre-eval", "--out"), d),
            "ensemble": (["ensemble", "--dataset", d, *models, "--weights", w,
                          "--out", str(tmp_path / "e.json"), "--trace", w],
                         ("--weights", "--trace"), w),
            "compare": (["compare", "--dataset", d, *models, "--csv", d],
                        ("--dataset", "--csv"), d),
            "synth": (["synth", "--dataset", d, "--profile", f, "--name", "m", "--out", f],
                      ("--profile", "--out"), f),
            "manifest": (["evaluate", "--dataset", d, *models, "--json", str(tmp_path / "e.json")],
                         ("--preds a", "the manifest"), p),
        }[case]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        code, err = _run_quietly(argv)
        assert code == 4, err
        assert err == f"error: {labels[0]} and {labels[1]} name the same file {victim!r}\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_every_command_declares_its_reads(self):
        """A command reads only its own flags, and declares every input flag it has:
        an undeclared input would go unchecked and missing from the manifest."""
        input_dests = {"dataset", "pre_eval", "weights", "profile"}
        commands = dict(_commands(qavote.cli.build_parser()))
        assert sorted(commands) == sorted(c for c in OPTION_TABLES if c not in ("", "rules"))
        for name, parser in commands.items():
            dests = {action.dest for action in parser._actions}
            reads = parser.get_default("reads")
            assert set(reads) <= dests, name
            assert input_dests & dests <= set(reads), name


class TestLoneSurrogate:
    def test_ensemble_with_trace_names_the_prediction_file(self, tmp_path, input_files):
        """A lone surrogate cannot be written as UTF-8: the read that let it
        through used to fail only in the ensemble and trace writes, naming
        neither the file nor the question."""
        files, _ = input_files
        golds = json.loads(files["preds"].read_text(encoding="utf-8"))
        qid = sorted(golds)[0]
        bad = tmp_path / "surrogate.json"
        bad.write_text(json.dumps({**golds, qid: "Par\ud800is"}), encoding="utf-8")
        argv = ["ensemble", "--dataset", str(files["dataset"]), "--preds", f"a={files['preds']}",
                "--preds", f"b={bad}", "--weights", str(files["weights"]),
                "--out", str(tmp_path / "e.json"), "--trace", str(tmp_path / "t.jsonl")]
        code, err = _run_quietly(argv)
        assert code == 4
        assert err == f"error: {bad}: not valid JSON: lone surrogate in the string at $.{qid}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["surrogate.json"]


COMMANDS = ["classify-stats", "split", "evaluate", "weights", "ensemble", "compare", "synth"]


class TestGcPause:
    """``main`` pauses the cyclic collector for the command and restores it after."""

    @pytest.fixture(scope="class")
    def sizes(self, tmp_path_factory):
        """Input files for two corpora, 14 and 140 questions."""
        return [_write_inputs(tmp_path_factory.mktemp(f"x{n}"), n) for n in (1, 10)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cyclic_garbage_does_not_grow_with_the_corpus(self, tmp_path, sizes, command):
        """What the paused collector would have found: the same at both sizes, so
        a command leaves no cycle per question, paragraph or answer."""
        found = []
        for n, files in enumerate(sizes):
            (tmp_path / f"out{n}").mkdir()
            gc.collect()
            gc.disable()  # so that no collection runs between main and the count
            try:
                code, err = _run_quietly(_command(command, files, tmp_path / f"out{n}"))
                found.append(gc.collect())
            finally:
                gc.enable()
            assert code == 0, err
        assert found[0] == found[1]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("bad", [False, True], ids=["success", "exit-4"])
    def test_collector_state_is_restored(self, tmp_path, input_files, enabled, bad):
        files, _ = input_files
        if bad:
            (tmp_path / "bad.json").write_bytes(b"{broken")
            files = {**files, "preds": tmp_path / "bad.json"}
        (gc.enable if enabled else gc.disable)()
        try:
            code, err = _run_quietly(_command("evaluate", files, tmp_path))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert code == (4 if bad else 0), err


_SWAP_VALUES = [None, True, 0, -1, 2.5, "", "x", [], {}, [1], {"k": None}]


def _nodes(value, path=()):
    """Every (path, value) in a parsed JSON document, the root included."""
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, (*path, key))


def _replace(document, path, new):
    if not path:
        return new
    copy = document.copy()
    copy[path[0]] = _replace(document[path[0]], path[1:], new)
    return copy


_DUPLICATE = "\0duplicate-key-marker\0"


@st.composite
def _mutations(draw, valid: bytes):
    """Bytes near ``valid``: truncated, a byte flipped, one value swapped for a value
    of another JSON type, nested deep, or one object with a key written twice."""
    document = json.loads(valid)
    kind = draw(st.sampled_from(["truncate", "flip", "swap", "nest", "duplicate"]))
    if kind == "truncate":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(valid) - 1))
        return valid[:i] + bytes([valid[i] ^ draw(st.integers(1, 255))]) + valid[i + 1:]
    if kind == "nest":
        depth = draw(st.sampled_from([1, 50, 5_000, 100_000]))
        return b"[" * depth + valid + b"]" * depth
    nodes = list(_nodes(document))
    if kind == "swap":
        path, _ = draw(st.sampled_from(nodes))
        return json.dumps(_replace(document, path, draw(st.sampled_from(_SWAP_VALUES)))).encode()
    objects = [(path, node) for path, node in nodes if isinstance(node, dict) and node]
    path, node = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(node)))
    members = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in node.items()]
    members.append(f"{json.dumps(key)}: {json.dumps(draw(st.sampled_from(_SWAP_VALUES)))}")
    text = json.dumps(_replace(document, path, _DUPLICATE))
    return text.replace(json.dumps(_DUPLICATE), "{" + ", ".join(members) + "}").encode()


class TestTracedNames:
    """bench/tracer.py wraps these ``qavote.cli`` names and names each span after the
    module the function comes from; a name that moves or vanishes zeroes a layer metric."""

    MODULES = {
        "qavote.corpus": ["load_dataset", "load_predictions", "split_pre_eval", "save_dataset",
                          "save_predictions", "save_split_manifest"],
        "qavote.taxonomy": ["default_rules", "load_rules", "LengthClassifier",
                            "class_distribution"],
        "qavote.metrics": ["evaluate", "save_report_json", "save_report_csv"],
        "qavote.weighting": ["compute_class_weights", "compute_global_weights", "load_weights",
                             "save_weights"],
        "qavote.voting": ["run_ensemble", "save_traces"],
        "qavote.analysis": ["pairwise_similarity", "similarity_csv", "save_similarity_json",
                            "eval_breakdown_csv"],
        "qavote.synth": ["load_profile", "generate_predictions"],
    }

    @staticmethod
    def traced() -> tuple[str, ...]:
        source = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        return next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        )

    def test_every_traced_name_resolves_to_its_module(self):
        traced = self.traced()
        expected = {name: module for module, names in self.MODULES.items() for name in names}
        assert sorted(traced) == sorted(expected)
        for name in traced:
            assert getattr(qavote.cli, name).__module__ == expected[name], name

    def test_every_traced_name_is_called_through_cli(self, tmp_path, corpus_file, monkeypatch):
        """Wrapped in ``qavote.cli`` the way the tracer wraps them, every traced name is
        called by a pipeline that reaches each: a command that calls the layer function
        some other way would zero its layer metric without this failing."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.traced():
            monkeypatch.setattr(qavote.cli, name, counted(name, getattr(qavote.cli, name)))
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(default_rules().to_json()), encoding="utf-8")
        d = str(corpus_file)
        preds = {}
        for seed, (name, classifier) in enumerate(
            [("m1", ["--rules", str(rules)]), ("m2", ["--length-buckets", "6,9"]), ("m3", [])]
        ):
            profile = write_profile(tmp_path, name, {c: 1.0 for c in CLASS_LABELS[seed::3]}, seed)
            preds[name] = tmp_path / f"{name}.json"
            assert main(["synth", "--dataset", d, "--profile", str(profile), "--name", name,
                         *classifier, "--out", str(preds[name])]) == 0
        flags, two = pred_flags(preds), pred_flags(dict(list(preds.items())[:2]))
        out = tmp_path / "out"
        for argv in (
            ["classify-stats", "--dataset", d],
            ["split", "--dataset", d, "--fraction", "0.5", "--seed", "1", "--out-dir", str(out)],
            ["weights", "--pre-eval", d, *flags, "--out", str(out / "w.json")],
            ["weights", "--pre-eval", d, *flags, "--no-classes", "--out", str(out / "g.json")],
            ["ensemble", "--dataset", d, *flags, "--weights", str(out / "w.json"),
             "--out", str(out / "ens.json"), "--trace", str(out / "ens.jsonl")],
            ["evaluate", "--dataset", d, *flags, "--csv", str(out / "e.csv"),
             "--json", str(out / "e.json")],
            ["compare", "--dataset", d, *two, "--csv", str(out / "c.csv"),
             "--json", str(out / "c.json")],
            ["compare", "--dataset", d, *flags, "--out-dir", str(out / "cmp")],
        ):
            assert main(argv) == 0, argv
        assert [name for name in self.traced() if not calls[name]] == []


class TestStartupBudget:
    """Every command starts a fresh interpreter: an import that one command needs
    is made where it is used, not paid by every start. ``dataclasses`` (with
    ``inspect``, ``ast``, ``dis`` and ``tokenize``), ``hashlib``, ``csv`` and
    ``string`` cost about 20 ms of each start together. Of the package, a command
    loads ``cli``, ``corpus``, ``taxonomy`` and the layers it declares
    (``command(..., layers=...)``), with what those import."""

    DEFERRED = ("dataclasses", "inspect", "hashlib", "csv", "string")
    ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def loaded(self, code: str, *argv: str) -> set[str]:
        """The modules loaded after running ``code`` in a fresh interpreter."""
        modules = "; sys.stderr.write(' '.join(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code + modules, *argv], env=self.ENV,
                              capture_output=True, text=True, timeout=60, check=True)
        return set(proc.stderr.split())

    def test_rules_show_loads_no_deferred_module(self):
        run = "import sys, qavote.cli; assert qavote.cli.main(['rules', 'show', '--json']) == 0"
        added = self.loaded(run) - self.loaded("import sys")
        assert "qavote.cli" in added
        assert sorted(added.intersection(self.DEFERRED)) == []

    def test_import_qavote_loads_no_submodule(self):
        assert {m for m in self.loaded("import sys, qavote") if m.startswith("qavote")} == {
            "qavote"}

    @staticmethod
    def with_imports(layers) -> set[str]:
        """``qavote.<layer>`` of each of ``layers`` and of every package module
        each imports at its top level, transitively, read from the source."""
        package = Path(qavote.cli.__file__).parent
        found, todo = set(), list(layers)
        while todo:
            layer = todo.pop()
            if layer not in found:
                found.add(layer)
                tree = ast.parse((package / f"{layer}.py").read_text(encoding="utf-8"))
                todo += [node.module for node in tree.body
                         if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
        return {f"qavote.{module}" for module in found}

    LAYERS = {"rules-show": (), "classify-stats": (), "split": (),
              "evaluate": ("metrics", "analysis"), "compare": ("metrics", "analysis"),
              "weights": ("metrics", "weighting"), "ensemble": ("weighting", "voting"),
              "synth": ("synth",)}

    @pytest.mark.parametrize("command", list(LAYERS))
    def test_a_command_loads_only_its_layers(self, tmp_path, input_files, command):
        files, _ = input_files
        argv = (["rules", "show", "--json"] if command == "rules-show"
                else _command(command, files, tmp_path))
        run = "import sys, qavote.cli; assert qavote.cli.main(sys.argv[1:]) == 0"
        loaded = {m for m in self.loaded(run, *argv) if m.startswith("qavote")}
        assert loaded == {"qavote", "qavote.cli"} | self.with_imports(
            ["corpus", "taxonomy", *self.LAYERS[command]])


class TestTracerContract:
    """``bench/tracer.py`` replaces a layer function in ``qavote.cli`` with
    ``setattr`` after reading it with ``getattr``, in an interpreter where no
    command has run yet, and names each span after the function's module. A
    command must call the replacement: one that imported the function some
    other way would zero that layer's metrics."""

    @pytest.mark.parametrize("command, name", [
        ("evaluate", "evaluate"), ("weights", "save_weights"), ("ensemble", "run_ensemble"),
        ("compare", "pairwise_similarity"), ("synth", "generate_predictions"),
    ])
    def test_a_replaced_layer_function_is_called(self, tmp_path, input_files, monkeypatch,
                                                 command, name):
        files, _ = input_files
        namespace = vars(qavote.cli)
        layer = qavote.cli._LAYER_OF[name]
        for unbound in qavote.cli._LAYER_NAMES[layer]:  # as before any command ran
            monkeypatch.delitem(namespace, unbound, raising=False)
        real = getattr(qavote.cli, name)
        assert real.__module__ == f"qavote.{layer}"
        calls = []

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(qavote.cli, name, spy)
        code, err = _run_quietly(_command(command, files, tmp_path))
        assert code == 0, err
        assert calls and namespace[name] is spy
