#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark on two source trees.

    python3 tools/ab.py --base DIR --head DIR --workload W --seeds 741 742 ... \\
        --seconds S [--out BENCH_<n>.json] [--base-rev REV] [--head-rev REV]

Each seed is one pair: ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` runs in each tree, with that tree's own ``bench/`` and ``src/``,
and the tree that runs first alternates from pair to pair. Every number comes
from ``bench/run.py``: the last line of its output (a JSON object) and its
``artifact sha256 digest`` line. The two trees must write the same artifacts,
so a pair whose digests differ, or a run that is not ``correct``, fails the
tool (exit 1).

Per end-to-end metric of the head tree's ``BENCHMARK.json``, the report gives
each side's median, the base's interquartile range, the head's wins (pairs in
which it is better; ties count for neither side), whether the head's median
is worse than the base's by more than the metric's bound, whether a gain
may be claimed: at least nine tenths of at least ten pairs won, and a median
gap, in the better direction, larger than the base's interquartile range, and
whether the metric is unresolved: the base's interquartile range is wider than
the bound times the base's median, so the runs cannot tell a change within
the bound from none, and not every head run is better than every base run.

``--out`` writes the report of this workload into a JSON file, next to the
reports of other workloads already in it; each workload's report records the
two revisions given, the Python version and the CPU count of its own run.
Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"artifact sha256 digest ([0-9a-f]{64})")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """``{"correct", "failed", "digest", "metrics": {name: value}}`` of one
    ``bench/run.py`` output; a run without its result line or digest is a
    ValueError."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ValueError("no result line: the last line of the output is not JSON") from None
    digests = DIGEST.findall(stdout)
    if len(digests) != 1:
        raise ValueError(f"expected one artifact digest line, found {len(digests)}")
    return {"correct": result["correct"], "failed": result["failed"], "digest": digests[0],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_errors(pairs: list[dict]) -> list[str]:
    """Why the pairs cannot be compared: a run that is not correct, or a pair
    whose two trees wrote different artifacts."""
    errors = []
    for pair in pairs:
        for side in ("base", "head"):
            if not pair[side]["correct"]:
                errors.append(f"seed {pair['seed']}: the {side} run is not correct "
                              f"({pair[side]['failed']} failed)")
        if pair["base"]["digest"] != pair["head"]["digest"]:
            errors.append(f"seed {pair['seed']}: artifact digests differ, base "
                          f"{pair['base']['digest']}, head {pair['head']['digest']}")
    return errors


def quartile_gap(values: list[float]) -> float:
    """The distance between the lower and the upper quartile."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4)
    return upper - lower


def summarize(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs (``base[i]`` and ``head[i]`` are pair i)."""
    sign = -1.0 if better == "lower" else 1.0  # > 0: the head is better
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head, strict=True))
    base_median, head_median = statistics.median(base), statistics.median(head)
    iqr = quartile_gap(base)
    gain = sign * (head_median - base_median)
    every_head_run_better = max(head) < min(base) if better == "lower" else min(head) > max(base)
    return {
        "base": base_median,
        "head": head_median,
        "change": (head_median - base_median) / base_median if base_median else 0.0,
        "base_iqr": iqr,
        "wins": wins,
        "pairs": len(base),
        "worse_than_bound": -gain > bound * abs(base_median),
        "unresolved": iqr > bound * abs(base_median) and not every_head_run_better,
        "claim_met": (len(base) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(base))
                      and gain > iqr),
    }


def report(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Every end-to-end metric of ``end_to_end`` (BENCHMARK.json's entries) over ``pairs``."""
    return {spec["name"]: summarize([p["base"]["metrics"][spec["name"]] for p in pairs],
                                    [p["head"]["metrics"][spec["name"]] for p in pairs],
                                    spec["better"], spec["bound"])
            for spec in end_to_end}


def add_workload(path: Path, workload: str, entry: dict) -> None:
    """Write ``entry`` as ``workload``'s report into the JSON file ``path``,
    keeping the other workloads' reports, each with its own revisions."""
    document = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
                else {"workloads": {}})
    document["workloads"][workload] = entry
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"error: {tree} seed {seed} (exit {proc.returncode}): {exc}\n"
                         f"{proc.stderr}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the parent's source tree")
    parser.add_argument("--head", type=Path, required=True, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, help="JSON file to add this workload's report to")
    parser.add_argument("--base-rev", help="the base's revision, recorded with this workload in --out")
    parser.add_argument("--head-rev", help="the head's revision, recorded with this workload in --out")
    args = parser.parse_args(argv)

    spec = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {pair['base']['metrics'].get(name, math.nan):.4g} -> "
            f"{pair['head']['metrics'].get(name, math.nan):.4g}"
            for name in (m["name"] for m in spec["end_to_end"])), flush=True)

    errors = run_errors(pairs)
    if errors:
        for error in errors:
            print(f"FAILED {error}", file=sys.stderr)
        return 1
    metrics = report(pairs, spec["end_to_end"])
    for name, m in metrics.items():
        print(f"{name}: median {m['base']:.4g} -> {m['head']:.4g} ({100 * m['change']:+.1f} %), "
              f"base IQR {m['base_iqr']:.3g}, head better in {m['wins']}/{m['pairs']}, "
              f"claim {'met' if m['claim_met'] else 'not met'}"
              + (", WORSE THAN ITS BOUND" if m["worse_than_bound"] else "")
              + (", UNRESOLVED: base IQR wider than its bound" if m["unresolved"] else ""))

    if args.out:
        add_workload(args.out, args.workload, {
            "base": args.base_rev, "head": args.head_rev,
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "seconds": args.seconds,
            "metrics": metrics,
            "pairs": [{"seed": p["seed"], "first": p["first"], "digest": p["base"]["digest"],
                       **{side: p[side]["metrics"] for side in ("base", "head")}}
                      for p in pairs],
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
