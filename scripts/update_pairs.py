#!/usr/bin/env python3
"""Time SacAgent.update of two checkouts in one process, in alternating blocks.

    OMP_NUM_THREADS=1 python3 scripts/update_pairs.py PARENT_DIR CHANGE_DIR --width 64

Each checkout's src/musclerl is loaded under its own package name, and
each builds the agent a stock wrist Trainer of that width and seed holds.
The batches come from one PID demonstration pre-fill (the change's code,
PREFILL episodes) sampled once into BATCHES batches, so both agents
update on the same batches in the same order. Round k times one block of --updates updates
on each side, the parent first in odd rounds and the change first in even
ones, after one untimed block a side. A block's time is its median update
in process CPU time. The script prints each side's median and quartiles
over the rounds, the change's median relative to the parent's, the
parent's interquartile range relative to its median, and in how many
rounds the change's block was faster.

The agents then hold the same number of updates on the same batches, so a
change that keeps every byte leaves the two agents' state() equal. The
exit status is 0 when it is, 1 when it is not, 2 when the checkouts cannot
be loaded.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PREFILL = 20  # PID demonstration episodes the batches are sampled from
BATCHES = 40  # distinct batches, used in turn
SEED = 11     # both Trainers' seed


def load_package(tree: Path, name: str):
    """tree's src/musclerl imported as the package name (its imports are relative)."""
    init = tree / "src" / "musclerl" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{tree} has no src/musclerl")
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a package loaded under this name before, from any tree
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def trainer_for(package: str, width: int, seed: int):
    """A stock wrist Trainer of the given width and seed, from package's code."""
    config = importlib.import_module(package + ".config")
    trainer = importlib.import_module(package + ".trainer")
    return trainer.Trainer(config.RunConfig(preset="wrist", seed=seed, gru_hidden=width))


def time_block(agent, batches, start: int, count: int, gamma: float) -> float:
    """The median process CPU time (ms) of count updates on batches from start on."""
    times = []
    for k in range(start, start + count):
        t0 = time.process_time()
        agent.update(batches[k % len(batches)], gamma)
        times.append(time.process_time() - t0)
    return 1e3 * statistics.median(times)


def states_match(a, b) -> bool:
    """Whether two agents' checkpoint states (meta and every array) are byte-equal."""
    (meta_a, arrays_a), (meta_b, arrays_b) = a.state(), b.state()
    return meta_a == meta_b and arrays_a.keys() == arrays_b.keys() and all(
        arrays_a[k].dtype == arrays_b[k].dtype and arrays_a[k].tobytes() == arrays_b[k].tobytes()
        for k in arrays_a)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--width", type=int, default=64, help="GRU width of every network")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--updates", type=int, default=30, help="updates per timed block")
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent == change:
        print("the two checkouts are one directory", file=sys.stderr)
        return 2
    try:
        for tree, name in ((parent, "parent_musclerl"), (change, "change_musclerl")):
            load_package(tree, name)
    except (FileNotFoundError, ImportError) as exc:
        print(exc, file=sys.stderr)
        return 2

    sides = {name: trainer_for(name + "_musclerl", args.width, SEED)
             for name in ("parent", "change")}
    source = sides["change"]
    source.bootstrap_phase(stop=PREFILL)
    cfg = source.cfg
    batches = [source.buffer.sample(cfg.batch_size, source.sample_rng)
               for _ in range(BATCHES)]
    agents = {name: tr.agent for name, tr in sides.items()}

    done = {name: 0 for name in agents}
    blocks: dict[str, list[float]] = {name: [] for name in agents}
    for k in range(args.rounds + 1):  # round 0 is the untimed warm-up
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for name in order:
            ms = time_block(agents[name], batches, done[name], args.updates, cfg.gamma)
            done[name] += args.updates
            if k:
                blocks[name].append(ms)

    wins = sum(c < p for p, c in zip(blocks["parent"], blocks["change"]))
    (pq1, pm, pq3), (cq1, cm, cq3) = (np.percentile(blocks[name], [25, 50, 75])
                                      for name in ("parent", "change"))
    print(f"width {args.width}, batch {cfg.batch_size}, T {batches[0][0].length}, "
          f"{args.rounds} rounds of {args.updates} updates a side (ms per update, "
          f"median of a block, process CPU time)")
    print(f"parent  {pm:.3f} [{pq1:.3f}, {pq3:.3f}]")
    print(f"change  {cm:.3f} [{cq1:.3f}, {cq3:.3f}]")
    print(f"change/parent {cm / pm - 1:+.1%}, parent IQR {(pq3 - pq1) / pm:.1%}, "
          f"change faster in {wins} of {args.rounds} rounds")
    same = states_match(agents["parent"], agents["change"])
    print(f"agent states after {done['change']} updates: "
          f"{'byte-identical' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
