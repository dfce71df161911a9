from __future__ import annotations

import ast
import contextlib
import gc
import io
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gold_map, make_squad_dict, uniform_counts

from qavote import __version__
import qavote.cli
from qavote.cli import main
from qavote.corpus import load_dataset
from qavote.taxonomy import (
    CLASS_LABELS,
    ClassRule,
    ClassRuleSet,
    class_distribution,
    default_rules,
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
        custom = [{"pattern": r"\bwho\b", "class": "who", "priority": 1}]
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps(custom), encoding="utf-8")
        monkeypatch.setenv("QAVOTE_RULES", str(rules_path))
        rc = main(["classify-stats", "--dataset", str(corpus_file)])
        assert rc == 0
        out = capsys.readouterr().out
        # only "who" questions match; everything else is undefined
        assert any(line.startswith("who") and " 6 " in line for line in out.splitlines())


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
            ["synth", "--dataset", d, "--length-buckets", "6,9", "--prob-all", "0.5",
             "--seed", "5", "--name", "m9", "--out", str(out / "m9.json")],
            out / "m9.json.manifest.json",
            expected("synth", {"dataset": d, "profile": "<inline>"},
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
            out / "cmp" / "m1_vs_m2.csv.manifest.json",
            expected("compare", {"dataset": d, **p}, score_as_empty,
                     [f"cmp/{pair}.{kind}" for pair in pairs for kind in ("csv", "json")])),
    }


MANIFEST_CASES = ["classify-stats", "classify-stats-no-output", "split", "synth", "weights",
                  "ensemble", "ensemble-trace", "ensemble-global", "evaluate-one",
                  "evaluate-several", "compare-pair", "compare-out-dir"]


class TestManifests:
    @pytest.mark.parametrize("case", MANIFEST_CASES)
    def test_manifest_of_every_command(self, run_inputs, case):
        cases = manifest_cases(*run_inputs)
        assert sorted(cases) == sorted(MANIFEST_CASES)
        argv, path, want = cases[case]
        out = run_inputs[-1]
        assert main(argv) == 0
        written = sorted(p.relative_to(out) for p in out.rglob("*.manifest.json"))
        if path is None:
            assert written == []
            return
        assert written == [path.relative_to(out)]
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert list(manifest) == MANIFEST_KEYS
        assert manifest.pop("duration_seconds") >= 0
        # json.dumps keeps key order, so this also pins the order of nested keys
        assert json.dumps(manifest) == json.dumps(want)


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

        class_weights, flat_weights = weights("class.json"), weights("flat.json", "--no-classes")
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
        top_pattern = counting.rules[0].pattern
        assert sum(n for (p, _), n in searches.items() if p == top_pattern) == 140
        assert {q for _, q in searches} == questions
        assert max(searches.values()) == 1
        fresh = default_rules()
        assert all(counting(q) == fresh(q) for q in questions)
        expected = class_distribution(dataset, fresh).counts
        pair = json.loads((out_dir / "a_vs_d.json").read_text(encoding="utf-8"))
        assert {label: t["total"] for label, t in pair["per_class"].items()} == expected


class TestErrorCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["classify-stats", "--dataset", str(missing)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_missing_output_directory_names_the_output(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "no_dir" / "m.json"
        rc = main(["synth", "--dataset", str(corpus_file), "--name", "m", "--out", str(out)])
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
        rc = main(["synth", "--dataset", str(corpus_file), "--name", "m", "--out", str(out)])
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
        [([5], "index 0: must be an object"),
         ([{"pattern": "(", "class": "who", "priority": 1}], "index 0: invalid pattern '('"),
         ([{"pattern": "x", "class": "who", "priority": 1},
           {"pattern": "y", "class": "what", "priority": "7"}],
          "index 1: 'priority' must be an int")],
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
          "$.per_class.what")],
        ids=["no-per-class", "list", "string-probability"],
    )
    def test_malformed_profile_exits_four(self, tmp_path, corpus_file, capsys, profile, message):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile), encoding="utf-8")
        rc = main(["synth", "--dataset", str(corpus_file), "--profile", str(path),
                   "--name", "m", "--out", str(tmp_path / "m.json")])
        assert rc == 4
        assert message in capsys.readouterr().err

    def test_threads_flag_is_gone(self, corpus_file):
        for command in (["evaluate", "--dataset", str(corpus_file)],
                        ["weights", "--pre-eval", str(corpus_file), "--out", "w.json"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + ["--preds", "a=a.json", "--threads", "2"])
            assert excinfo.value.code == 2

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

    def test_every_traced_name_resolves_to_its_module(self):
        source = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        traced = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        )
        expected = {name: module for module, names in self.MODULES.items() for name in names}
        assert sorted(traced) == sorted(expected)
        for name in traced:
            assert getattr(qavote.cli, name).__module__ == expected[name], name
