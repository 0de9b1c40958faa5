#!/usr/bin/env python3
"""Run alternating benchmark pairs from two source trees and summarise them.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload facility_run --seed 5 --pairs 10 --seconds 50 \\
        --out BENCH_17.json

Each pair runs ``perfbench/run.py`` once in each tree, one after the
other; odd pairs run the parent first and even pairs the change first,
so a drift of the machine falls on both sides alike.  Each tree must be
a full checkout (``src/`` and ``perfbench/``), for example a
``git worktree`` or ``git archive`` of the parent commit and the
working tree.  The record of every run, read from the tree's
``.perfbench/results/``, is kept in the output file together with a
summary per metric: medians, quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the number of
pairs in which the change reads better (the direction comes from
``BENCHMARK.json``) and the failed and attempted operation counts.

The summary also states the two rules a change is held to.  A claimed
gain needs the change to read better in at least 9 of 10 pairs and the
medians to differ by more than the parent's interquartile range
(``parent_iqr``, ``gap_exceeds_parent_iqr``).  An end-to-end metric
must not read worse than the parent's median by more than its
``bound`` in ``BENCHMARK.json`` times that median
(``worse_beyond_bound``; null for a metric without a bound).

The output file is updated in place: a second call with another
workload, seed or ``--trace`` adds its runs beside the first's.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", action="append", default=[],
                        help="a line for the file's notes (repeatable)")
    return parser.parse_args(argv)


def run_once(tree: Path, args: argparse.Namespace) -> dict:
    """One benchmark run in ``tree``; returns the record it wrote."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {tree} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    return json.loads((tree / ".perfbench" / "results" / f"{stem}.json").read_text())


def _metric_specs(tree: Path) -> list[dict]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return [m for key in ("end_to_end", "per_layer") for m in spec.get(key, [])]


def directions(tree: Path) -> dict[str, str]:
    """``better`` ("lower" or "higher") of every metric in BENCHMARK.json."""
    return {m["name"]: m["better"] for m in _metric_specs(tree)}


def bounds(tree: Path) -> dict[str, float]:
    """``bound`` of every metric in BENCHMARK.json that has one."""
    return {m["name"]: m["bound"] for m in _metric_specs(tree) if "bound" in m}


def summarise(runs: dict[str, list[dict]], better: dict[str, str],
              bound: dict[str, float]) -> dict:
    parent, change = runs["parent"], runs["change"]
    pairs = min(len(parent), len(change))
    summary = {}
    for name in parent[0]["metrics"]:
        if name not in better:
            continue
        values = {side: [r["metrics"][name]["value"] for r in runs[side][:pairs]]
                  for side in SIDES}
        sign = 1 if better[name] == "higher" else -1
        entry = {}
        for side in SIDES:
            entry[f"{side}_median"] = statistics.median(values[side])
            entry[f"{side}_q1_q3"] = quartiles(values[side])
        entry["change_wins"] = sum(sign * (c - p) > 0
                                   for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = pairs
        q1, q3 = entry["parent_q1_q3"]
        gap = entry["change_median"] - entry["parent_median"]
        entry["parent_iqr"] = q3 - q1
        entry["gap_exceeds_parent_iqr"] = abs(gap) > q3 - q1
        entry["worse_beyond_bound"] = None if name not in bound else \
            -sign * gap > bound[name] * abs(entry["parent_median"])
        summary[name] = entry
    summary["failed_of_attempted"] = {
        side: [sum(r["failed"] for r in runs[side]),
               sum(r["attempted"] for r in runs[side])] for side in SIDES}
    return summary


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        print(f"error: --pairs must be at least 1, got {args.pairs}", file=sys.stderr)
        return 2
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: {side} tree {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    key = f"{args.workload} seed {args.seed} trace {args.trace}"
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            record = run_once(trees[side], args)
            runs[side].append(record)
            value = record["metrics"].get("sweep_runs_per_s", {}).get("value")
            print(f"pair {pair} {side}: sweep_runs_per_s {value} "
                  f"failed {record['failed']} of {record['attempted']}", flush=True)

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("what", (
        "perfbench/run.py records of the parent and of the change, run as "
        f"alternating pairs on one machine ({platform.machine()}, Python "
        f"{platform.python_version()}); pair i ran the parent first when i is "
        "odd and the change first when it is even.  Quartiles are "
        "statistics.quantiles(n=4, method='inclusive'); change_wins counts "
        "pairs where the change reads better."))
    out.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                              "--seconds N --trace T")
    out.setdefault("notes", []).extend(args.note)
    out.setdefault("runs", {})[key] = runs
    out.setdefault("summary", {})[key] = summarise(
        runs, directions(trees["change"]), bounds(trees["change"]))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["summary"][key], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
