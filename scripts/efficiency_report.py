#!/usr/bin/env python3
"""Summarize the data-efficiency comparison from finished training runs.

Prints the baseline's 100-episode moving-mean level at its final episode,
the enhanced runs' crossing episode, and the implied efficiency ratio. When
a run is missing, or the runs come from different numerics, it prints one
line saying so on stderr and exits 1. Acceptance criterion 6
(tests/test_acceptance.py) loads this file for its reader and checks.
Usage: python3 scripts/efficiency_report.py [runs_dir]
"""

import os
import sys

import numpy as np

ENHANCED_RUNS = ["wrist_sacbar_s101", "wrist_sacbar_s102"]
BASELINE_RUNS = ["wrist_baseline_s101", "wrist_baseline_s102"]


def read_avg_rewards(path):
    """The avg_reward column of a rewards.csv, in episode order."""
    eps, avg = [], []
    for line in open(path):
        if line.startswith("#") or line.startswith("episode"):
            continue
        parts = line.strip().split(",")
        eps.append(int(parts[0]))
        avg.append(float(parts[4]))
    order = np.argsort(eps)
    return np.array(avg)[order]


def moving_mean(values, window=100):
    out = np.full(len(values), np.nan)
    c = np.cumsum(np.insert(values, 0, 0.0))
    for i in range(window - 1, len(values)):
        out[i] = (c[i + 1] - c[i + 1 - window]) / window
    return out


def numerics_stamp(csv_path):
    """The numerics= value on a CSV's provenance line, or None if it carries none."""
    with open(csv_path) as fh:
        head = fh.readline()
    if head.startswith("#"):
        for field in head.split():
            if field.startswith("numerics="):
                return field.partition("=")[2]
    return None


def numerics_mismatch(csv_paths):
    """One line naming each run's stamp when the runs do not share one, else None."""
    stamps = {os.path.basename(os.path.dirname(p)): numerics_stamp(p) for p in csv_paths}
    if None not in stamps.values() and len(set(stamps.values())) == 1:
        return None
    return "runs come from different numerics: " + ", ".join(
        f"{run}={stamp or 'unstamped'}" for run, stamp in stamps.items())


def unusable(runs_dir):
    """One line saying why the runs under runs_dir cannot be compared, else None."""
    runs = ENHANCED_RUNS + BASELINE_RUNS
    missing = [f"{run}/rewards.csv" for run in runs
               if not os.path.exists(os.path.join(runs_dir, run, "rewards.csv"))]
    if missing:
        return (f"training artifacts missing under {runs_dir}: {missing}; "
                "run scripts/acceptance_runs.sh first")
    return numerics_mismatch([os.path.join(runs_dir, run, "rewards.csv") for run in runs])


def crossing_episode(base, bar, horizon):
    """(baseline level, enhanced curve, first episode the curve reaches the level or None).

    The level is the baselines' mean 100-episode moving mean at episode
    horizon; the curve is the moving mean of the enhanced runs' mean.
    """
    level = float(np.mean([moving_mean(b[:horizon])[horizon - 1] for b in base]))
    n = min(map(len, bar))
    curve = moving_mean(np.mean([b[:n] for b in bar], axis=0))
    crossed = np.nonzero(curve >= level)[0]
    return level, curve, int(crossed[0]) + 1 if crossed.size else None


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    runs = args[0] if args else "runs"
    reason = unusable(runs)
    if reason is not None:
        print(reason, file=sys.stderr)
        return 1
    base = [read_avg_rewards(os.path.join(runs, run, "rewards.csv")) for run in BASELINE_RUNS]
    bar = [read_avg_rewards(os.path.join(runs, run, "rewards.csv")) for run in ENHANCED_RUNS]
    horizon = min(map(len, base))
    level, curve, first = crossing_episode(base, bar, horizon)
    print(f"baseline level at episode {horizon}: {level:.4f} (100-episode moving mean, 2 seeds)")
    if first is None:
        print(f"enhanced runs never reach the baseline level within {len(curve)} episodes "
              f"(final moving mean {curve[~np.isnan(curve)][-1]:.4f})")
    else:
        print(f"enhanced runs reach it at episode {first} "
              f"-> {horizon / first:.2f}x data-efficiency gain")
    for name, c in (("baseline", [moving_mean(b) for b in base]),
                    ("enhanced", [moving_mean(b) for b in bar])):
        for i, mm in enumerate(c):
            marks = [200, 500, 1000, 1600, 2400, 3500]
            pts = ", ".join(f"{m}:{mm[m - 1]:.2f}" for m in marks if m <= len(mm))
            print(f"  {name} seed {101 + i}: {pts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
