#!/usr/bin/env python3
"""musclerl benchmark: four closed-loop workloads on the wrist preset.

Run one workload (the last stdout line is the result as JSON):

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 30 --trace 0

or every workload, untraced and traced, with one table of every metric:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see README.md for why each exists):

- ``bootstrap``: the stock demonstration phase (M = 500 PID episodes with
  n = 10 augmentation), then full-checkpoint save and restore.
- ``learn-w64`` / ``learn-w256``: policy episodes with stock SAC updates
  at GRU width 64 and 256, over a replay buffer pre-filled in setup.
- ``fieldtest``: the 81-target field test with the stock PID and with a
  policy loaded from a seeded policy checkpoint.

Each workload runs whole units of work (a bootstrap phase, a training
episode, a PID + policy field-test pair), each a stock call timed whole
in calibrated CPU seconds (see speed.py), while the next unit is predicted
to fit in ``--seconds``, and always at least one. The next unit starts
only when the previous one ends. The seed becomes the ``RunConfig`` seed,
so the program's own named streams draw targets, muscles and noise. BLAS
thread variables left unset are pinned to one thread before numpy loads; a
run with one set above that is reported as failed. Scratch checkpoints go to a
temporary directory under ``.perfbench/``, and spans and output digests to
``.perfbench/`` itself.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("bootstrap", "learn-w64", "learn-w256", "fieldtest")
# the calibration kernel (see speed.py) for the kind of work of each
# workload's timed calls; setups and imports use "interpreter"
WORKLOAD_KERNELS = {"bootstrap": "interpreter", "learn-w64": "blas",
                    "learn-w256": "blas", "fieldtest": "interpreter"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = 1

PRESET = "wrist"
DESK_WIDTH = 64
PREFILL_EPISODES = 20     # PID episodes in the learn workloads' replay pre-fill
SETUP_REPS = 5            # setups per untraced run
IMPORT_REPS = 5           # package imports timed per run, each in a fresh interpreter
IMPORT_PROBES = 30        # calibration kernel runs after each import
CKPT_PAIRS = 3            # checkpoint save/restore pairs per run

# CALIBRATED CPU TIME: every time behind an end-to-end metric is the process
# CPU time of a stock call, scaled to a fixed machine speed by speed.probed().
# The program runs in one thread (the BLAS variables are pinned and the
# benchmark starts no workers), so on an idle machine a call's CPU time is
# its wall time; work moved to another thread still counts, because process
# CPU time sums every thread. The speed of a shared host's CPU drifts in both
# directions from call to call, so a run reports the median call of each
# kind rather than the fastest. setup_s is the median import time plus the
# median of several setups, each calibrated by the interpreter kernel.

# (name, unit, better, bound) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("episodes_per_calibrated_s", "1/s", "higher", 0.25),
    ("checkpoint_mb", "MB", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


# -- environment and provenance --------------------------------------------------


def pin_threads(env) -> list[str]:
    """Set every unset BLAS thread variable to the pinned count; return those set."""
    pinned = [v for v in THREAD_VARS if v not in env]
    for v in pinned:
        env[v] = str(PINNED_THREADS)
    return pinned


def thread_problems(env) -> list[str]:
    """Reasons the thread environment is not pinned (unset or above the pin)."""
    out = []
    for v in THREAD_VARS:
        raw = env.get(v)
        if raw is None:
            out.append(f"{v} is unset")
            continue
        try:
            n = int(raw)
        except ValueError:
            out.append(f"{v}={raw!r} is not a thread count")
            continue
        if n > PINNED_THREADS or n < 1:
            out.append(f"{v}={n} is not the pinned count {PINNED_THREADS}")
    return out


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def code_sha256() -> str:
    """Hash of the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "musclerl").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, pinned: list[str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_pinned_by_benchmark": pinned,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "code_sha256": code_sha256(),
    }


# -- one run --------------------------------------------------------------------


class Run:
    """State of one workload run: timings, checks, and the output digest."""

    def __init__(self, args, import_s: float, tmp: Path, tracer):
        self.seed = args.seed
        self.kernel = WORKLOAD_KERNELS[args.workload]
        self.seconds = args.seconds
        self.import_s = import_s
        self.tmp = tmp
        self.tracer = tracer
        self.reps = 1 if tracer is not None else SETUP_REPS
        self.metrics: dict[str, tuple[float, int]] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.digest = hashlib.sha256()
        # kind of stock call -> (episodes in one call, calibrated time of each call)
        self.calls: dict[str, tuple[int, list[float]]] = {}
        self.episodes = 0
        self.failed_episodes = 0
        self.slowdowns: list[float] = []   # machine speed of each probed block

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench." + name)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def calibrated(self, fn, *args, kernel: str | None = None):
        """fn(*args) and its time in CPU seconds calibrated by the named kernel.

        The kernel is the workload's (see WORKLOAD_KERNELS) unless given. A
        traced run takes the kernel's runs out of the spans they fall in.
        """
        import speed

        with speed.probed(speed.KERNELS[kernel or self.kernel]) as probe:
            out = fn(*args)
        self.slowdowns.append(probe.speed)
        if self.tracer is not None:
            self.tracer.pauses.extend(probe.pauses)
        return out, probe.calibrated_s

    def setup(self, make, digest=None):
        """Build the workload state self.reps times.

        setup_s is the median import time plus the median of these builds.
        """
        with self.phase("setup"):
            times, digests = [], []
            for _ in range(self.reps):
                state, seconds = self.calibrated(make, kernel="interpreter")
                times.append(seconds)
                if digest is not None:
                    digests.append(digest(state))
        self.metrics["setup_s"] = (self.import_s + statistics.median(times), len(times))
        if digests:
            self.check("setup_repeats_identical", len(set(digests)) == 1)
        return state

    def timed(self, unit) -> None:
        """Run unit() while another is predicted to fit in --seconds, at least once.

        unit() makes stock calls, each timed whole by self.calibrated, and
        returns (kind, episodes, seconds) for each; see median_rate.
        """
        units, elapsed = 0, 0.0
        with self.phase("timed"):
            start = time.perf_counter()
            try:
                while units == 0 or elapsed * (units + 1) / units <= self.seconds:
                    for kind, episodes, seconds in unit():
                        self.calls.setdefault(kind, (episodes, []))[1].append(seconds)
                        self.episodes += episodes
                    units += 1
                    elapsed = time.perf_counter() - start
            finally:
                if self.calls:
                    self.metrics["episodes_per_calibrated_s"] = (
                        median_rate(self.calls), sum(len(t) for _, t in self.calls.values()))

    def checkpoint(self, trainer, include_buffer: bool) -> None:
        """CKPT_PAIRS saves and restores; the restored trainer must re-save identically.

        Their times are the traced run's trainer.Trainer.save and .restore
        metrics; the untraced run reports only the size.
        """
        from musclerl.trainer import Trainer

        path, again = self.tmp / "a.ckpt", self.tmp / "b.ckpt"
        with self.phase("checkpoint"):
            for _ in range(CKPT_PAIRS):
                trainer.save(str(path), include_buffer=include_buffer)
                restored = None  # one restored trainer alive at a time
                restored = Trainer.restore(str(path))
            restored.save(str(again), include_buffer=include_buffer)
        same = path.read_bytes() == again.read_bytes()
        self.check("checkpoint_roundtrip", same, "" if same else "re-saved checkpoint differs")
        self.metrics["checkpoint_mb"] = (path.stat().st_size / 1e6, 1)


def median_rate(calls: dict[str, tuple[int, list[float]]]) -> float:
    """Episodes of one call of each kind over the summed median time of each kind.

    With one kind this is episodes per median call; on the field test, a
    PID call and a policy call together, so both controllers always count.
    """
    episodes = sum(n for n, _ in calls.values())
    return episodes / sum(statistics.median(times) for _, times in calls.values())


def rewards_digest(buffer) -> str:
    h = hashlib.sha256()
    for traj in buffer.snapshot():
        h.update(traj.rewards.tobytes())
    return h.hexdigest()


def report_digest(report: dict) -> bytes:
    return json.dumps({k: repr(v) for k, v in sorted(report.items())}).encode()


def _config(run: Run, **overrides):
    from musclerl.config import RunConfig

    fields = dict(preset=PRESET, seed=run.seed, gru_hidden=DESK_WIDTH, out_dir=str(run.tmp))
    fields.update(overrides)
    return RunConfig(**fields)


def workload_bootstrap(run: Run) -> None:
    """Stock demonstration phase (M = 500), then full checkpoint save/restore."""
    from musclerl.trainer import Trainer

    cfg = _config(run)
    trainer = run.setup(lambda: Trainer(cfg))
    phases = []

    def unit():
        # each phase starts from a new trainer, built outside the timed call
        nonlocal trainer
        if phases:
            trainer = Trainer(cfg)
        _, seconds = run.calibrated(trainer.bootstrap_phase)
        phases.append(rewards_digest(trainer.buffer))
        return [("phase", trainer.cfg.bootstrap_episodes, seconds)]

    run.timed(unit)
    run.check("phase_repeats_identical", len(set(phases)) == 1)
    run.digest.update(phases[0].encode())
    run.checkpoint(trainer, True)


def workload_learn(run: Run, width: int) -> None:
    """SAC learning episodes over a PID-filled replay buffer."""
    from musclerl.trainer import Trainer

    cfg = _config(run, gru_hidden=width, bootstrap_episodes=PREFILL_EPISODES)

    def make():
        tr = Trainer(cfg)
        tr.bootstrap_phase()
        return tr

    trainer = run.setup(make, digest=lambda tr: rewards_digest(tr.buffer))
    run.digest.update(rewards_digest(trainer.buffer).encode())
    # before any episode, so that the checkpoint's size does not depend on
    # how many episodes ran
    run.checkpoint(trainer, True)
    reports = []

    def unit():
        (traj, report), seconds = run.calibrated(trainer.train_episode)
        reports.append(report)
        if len(reports) == 1:
            run.digest.update(traj.rewards.tobytes() + report_digest(report))
        return [("episode", 1, seconds)]

    try:
        run.timed(unit)
    except FloatingPointError as err:
        run.failed_episodes += 1
        run.check("finite_updates", False, str(err))
        return
    finite = all(r is not None and all(math.isfinite(v) for v in r.values()) for r in reports)
    run.check("finite_updates", finite)


def summary_matches(summary: dict, reference: dict) -> list[str]:
    """Keys where the field-test summary leaves the reference tolerance."""
    tol = reference["abs_tol_deg"]
    bad = [] if summary["count"] == reference["count"] else ["count"]
    for key in ("mean", "sd", "median", "q1", "q3", "max"):
        if not abs(summary[key] - reference[key]) <= tol:
            bad.append(f"{key}: {summary[key]!r} vs {reference[key]!r}")
    return bad


def workload_fieldtest(run: Run) -> None:
    """81-target field test with the stock PID and with a loaded policy."""
    import musclerl.fieldtest as fieldtest
    import musclerl.trainer as trainer_mod

    source = trainer_mod.Trainer(_config(run))
    policy_path = str(run.tmp / "policy.ckpt")
    source.save(policy_path, include_buffer=False)

    def make():
        agent, _ = trainer_mod.load_policy(policy_path)
        return fieldtest.PolicyController(agent), fieldtest.pid_controller_for(PRESET)

    policy, pid = run.setup(make)
    run.checkpoint(source, False)
    pairs = []

    def unit():
        timings, rows = [], []
        for kind, controller in (("pid", pid), ("policy", policy)):
            out, seconds = run.calibrated(fieldtest.run_field_test, PRESET, controller)
            timings.append((kind, len(out), seconds))
            rows.append(out)
        pairs.append(tuple(rows))
        return timings

    run.timed(unit)
    reference = json.loads(REFERENCE.read_text())["fieldtest_pid_summary"]
    bad = summary_matches(fieldtest.summarize(pairs[0][0]), reference)
    run.check("pid_field_reference", not bad, "; ".join(bad))
    run.check("field_repeats_identical", all(p == pairs[0] for p in pairs))
    run.digest.update(repr(pairs[0]).encode())


def check_digest_store(run: Run, workload: str, code: str) -> None:
    """Every run of one code version at one seed must give one output digest."""
    STATE_DIR.mkdir(exist_ok=True)
    store_path = STATE_DIR / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = f"{code[:16]}:{workload}:{run.seed}"
    digest = run.digest.hexdigest()
    prior = store.setdefault(key, digest)
    run.check("output_digest_stable", prior == digest,
              "" if prior == digest else f"digest {digest[:12]} != earlier {prior[:12]}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def fresh_import_s() -> float:
    """Import CPU time of the package in a new interpreter, which this waits for.

    The new interpreter calibrates it by the speed of IMPORT_PROBES runs of
    the interpreter kernel right after the import; the kernel needs numpy,
    so it cannot run before.
    """
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.process_time(); "
            "import numpy, musclerl, musclerl.fieldtest, musclerl.trainer; "
            "took = time.process_time() - t; sys.path.insert(0, 'perfbench'); import speed; "
            "probe = speed.Probe(speed.INTERPRETER); "
            f"[probe.sample() for _ in range({IMPORT_PROBES})]; "
            "print(took / probe.speed)")
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout)


def run_workload(args, pinned: list[str]) -> int:
    problems = thread_problems(os.environ)
    if problems:
        for p in problems:
            print(f"not measured: {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    sys.path.insert(0, str(ROOT / "src"))
    import_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPS))

    import spans

    prov = provenance(args, pinned)
    STATE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR))
    tracer = spans.Tracer() if args.trace else None
    try:
        run = Run(args, import_s, tmp, tracer)
        body = {
            "bootstrap": workload_bootstrap,
            "learn-w64": lambda r: workload_learn(r, 64),
            "learn-w256": lambda r: workload_learn(r, 256),
            "fieldtest": workload_fieldtest,
        }[args.workload]
        with spans.installed(tracer) if tracer is not None else contextlib.nullcontext():
            body(run)
        prov["machine_slowdown_median"] = statistics.median(run.slowdowns)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        run.metrics["peak_rss_mb"] = (peak_rss, 1)
        check_digest_store(run, args.workload, prov["code_sha256"])
        if tracer is not None:
            tracer.write_jsonl(str(STATE_DIR / f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer is None:
        declared = [(name, unit) for name, unit, _, _ in END_TO_END]
        measured = run.metrics
    else:
        declared = [(name, unit) for name, unit, _ in spans.LAYER_METRICS]
        measured = spans.analyze(tracer)
        if "episodes_per_calibrated_s" in run.metrics:
            measured["trace.episodes_per_calibrated_s"] = run.metrics["episodes_per_calibrated_s"]
    units = dict(declared)
    for name, unit in declared:
        if name in measured:
            value, n = measured[name]
            print(f"metric {name} {value:.6g} {unit} n={n}")
        else:
            print(f"metric {name} - {unit} (not measured: see the .n of its function)")
    # what the catalogue does not name, such as a network pass of an unknown
    # shape, is still printed under its own label
    for name, (value, n) in measured.items():
        if name not in units:
            print(f"metric {name} {value:.6g} {spans.unit_of(name)} n={n}")
    attempted = run.episodes + run.failed_episodes + len(run.checks)
    failed = run.failed_episodes + sum(1 for _, ok, _ in run.checks if not ok)
    for name, ok, detail in run.checks:
        print(f"check {name} {'ok' if ok else 'FAILED'} {detail}".rstrip())
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("provenance " + json.dumps(prov, sort_keys=True))
    # a layer that did not run in this workload reads 0, as its `n` shows
    result = {name: {"value": measured.get(name, (0.0, 0))[0], "unit": unit}
              for name, unit in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced then traced, one subprocess at a time."""
    status = 0
    summary = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"{workload} trace={trace} {line}")
            sys.stderr.write(proc.stderr)
            try:
                results[trace] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                results[trace] = None
            if proc.returncode != 0 or not results[trace] or not results[trace]["correct"]:
                status = 1
        if results[0] and results[1]:
            plain = results[0]["metrics"]["episodes_per_calibrated_s"]["value"]
            traced_rate = results[1]["metrics"]["trace.episodes_per_calibrated_s"]["value"]
            summary.append(f"{workload}: tracing overhead {1 - traced_rate / plain:.1%} of "
                           f"episodes_per_calibrated_s ({traced_rate:.4g} traced vs {plain:.4g})")
    for line in summary:
        print(line)
    print("all workloads correct" if status == 0 else "a workload FAILED")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pinned = pin_threads(os.environ)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, pinned)


if __name__ == "__main__":
    sys.exit(main())
