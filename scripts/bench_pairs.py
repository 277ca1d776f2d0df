#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload learn-w64 --pairs 10

Pair k runs perfbench/run.py --workload W --seed K+k-1 --trace 0 once
from each checkout, for the change's BENCHMARK.json run_seconds, the
parent first in odd pairs and the change first in even ones, one run at
a time. K is --first-seed, 1 by default; another K checks a claim again
on seeds not used while the change was written.
For each end-to-end metric of that BENCHMARK.json it then prints each
side's median and quartiles, the change's median relative to the
parent's, the parent's interquartile range relative to its median, and in
how many pairs the change did better. Only pairs in which both runs
reported themselves correct count; the last lines say how many pairs were
left out and how many runs were correct.

The two checkouts must lie at absolute paths of equal length, such as
sibling clones a/ and b/: a run's temporary directories live under its
checkout, and the path's length alone moves fieldtest's rate by a few
percent and checkpoint_mb by the bytes by which the paths differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def path_problem(parent: Path, change: Path) -> str | None:
    """Why two checkouts cannot be compared, or None."""
    for tree in (parent, change):
        if not (tree / "perfbench" / "run.py").is_file():
            return f"{tree} has no perfbench/run.py"
    if parent == change:
        return "the two checkouts are one directory"
    if len(str(parent)) != len(str(change)):
        return (f"the checkouts' absolute paths differ in length ({len(str(parent))} and "
                f"{len(str(change))} characters): use sibling clones with names of one length")
    return None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from tree: its JSON result line, or a failed one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[dict]:
    """One row per (name, better) metric over (parent, change) result pairs.

    Pairs in which either run is not correct are left out: a failed run
    still reports every metric, some of them as 0.0. A row holds each
    side's (q1, median, q3) over the kept pairs in which both runs measured
    the metric, n, the number of those pairs, wins, those in which the
    change did strictly better ("higher" or "lower"), and left_out, the
    number of pairs left out.
    """
    kept = [(p, c) for p, c in pairs if p["correct"] and c["correct"]]
    rows = []
    for name, better in metrics:
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in kept
                if name in p["metrics"] and name in c["metrics"]]
        sign = 1.0 if better == "higher" else -1.0
        row = {"name": name, "better": better, "n": len(both),
               "wins": sum(sign * (c - p) > 0 for p, c in both),
               "left_out": len(pairs) - len(kept)}
        for side, k in (("parent", 0), ("change", 1)):
            values = [pair[k] for pair in both]
            row[side] = tuple(np.percentile(values, [25, 50, 75]).tolist()) if values else None
        rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    """The summary table's lines."""
    lines = [f"{'metric':<28}{'better':<8}{'parent median [q1, q3]':<32}"
             f"{'change median [q1, q3]':<32}{'change':>9}{'parent IQR':>12}{'wins':>8}"]
    for r in rows:
        if r["n"] == 0:
            lines.append(f"{r['name']:<28}{r['better']:<8}not measured in any pair")
            continue
        (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
        rel = f"{cm / pm - 1:+.1%}" if pm else "-"
        iqr = f"{(pq3 - pq1) / pm:.1%}" if pm else "-"
        parent_col = f"{pm:.6g} [{pq1:.6g}, {pq3:.6g}]"
        change_col = f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
        wins = f"{r['wins']}/{r['n']}"
        lines.append(f"{r['name']:<28}{r['better']:<8}{parent_col:<32}{change_col:<32}"
                     f"{rel:>9}{iqr:>12}{wins:>8}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1, dest="first_seed",
                    help="the seed of pair 1; pair k runs seed first_seed + k - 1")
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    problem = path_problem(parent, change)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    bench = json.loads((change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    pairs = []
    for k in range(1, args.pairs + 1):
        seed = args.first_seed + k - 1
        order = (parent, change) if k % 2 else (change, parent)
        got = {tree: run_once(tree, args.workload, seed, bench["run_seconds"]) for tree in order}
        pairs.append((got[parent], got[change]))
        print(f"pair {k} (seed {seed}): {'parent' if order[0] == parent else 'change'} first",
              flush=True)
    rows = summarize(pairs, metrics)
    for line in format_rows(rows):
        print(line)
    print(f"pairs left out, a run not correct: {rows[0]['left_out']} of {len(pairs)}")
    correct = sum(side["correct"] for pair in pairs for side in pair)
    print(f"correct runs: {correct} of {2 * len(pairs)}")
    return 0 if correct == 2 * len(pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
