"""Span tracing for the benchmark's traced runs.

Wrappers are installed from outside the package, at the attribute each
caller looks up (for example ``musclerl.env.advance``, the name the
environment calls, not ``musclerl.plant.advance``), so no source under
``src/`` changes. A span is only recorded while a benchmark phase span is
open, which keeps input generation out of the profile. Spans live in
memory and are written out by the caller when the run ends.

A span's duration is its wall time less the calibration kernel's runs
inside it (see speed.py). Self time is a span's duration minus the
durations of its direct children. Per-layer metrics are named
``<module>.<function>.<stat>`` with the stats ``n``, ``ms_p50``,
``ms_p90`` (only when n >= 100) and ``self_share`` (self time over the
traced wall time, which is the summed duration of the phase spans).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import statistics
import time

P90_MIN_SAMPLES = 100
PHASE_PREFIX = "bench."

# Functions whose calls are frequent enough for a p90, and the rare ones
# (checkpointing, parents called a few times per run) that get no p90 metric.
FREQUENT = (
    "plant.advance",
    "env.TrackingEnv.step",
    "env.TrackingEnv.reset",
    "randomize.sample_muscle_set",
    "randomize.apply_observation_noise",
    "pid.PidActionPolicy.act",
    "augment.augment_trajectory",
    "sac.ReplayBuffer.push",
    "trainer.Trainer.store_with_augmentation",
    "trainer.Trainer.rollout",
    "sac.SacAgent.update",
    "sac.ReplayBuffer.sample",
    "sac.SacAgent.act.stochastic",
    "sac.SacAgent.act.deterministic",
    "fieldtest.default_episode_runner",
    "nets.forward_stacked",
    "nets.backward_stacked",
)
RARE = (
    "trainer.Trainer.train_episode",
    "trainer.Trainer.bootstrap_phase",
    "fieldtest.run_field_test.pid",
    "fieldtest.run_field_test.policy",
    "trainer.Trainer.save",
    "checkpoint.save_checkpoint",
    "trainer.Trainer.restore",
    "checkpoint.load_checkpoint",
    "trainer.load_policy",
)
PER_UPDATE = (
    "nets.forward_stacked",
    "nets.backward_stacked",
    "nets.adam_update",
    "nets.grads_to_flat",
    "nets.StackedNets",
)

# The network passes of one SAC update, keyed by call shape: (function,
# stack size, sequence kind, gradient use). The sequence is "states" when
# T equals the trajectory length + 1 and "steps" when it equals the length.
# A forward's gradient use is that of the backward that consumes its cache
# ("none" when no backward does). The deterministic act forward (T = 1) is
# listed too, so it does not show up as an unknown pass.
KNOWN_PASSES = {
    ("nets.forward_stacked", 1, "states", "param"): "actor",
    ("nets.forward_stacked", 2, "steps", "none"): "target",
    ("nets.forward_stacked", 2, "steps", "param"): "critic",
    ("nets.forward_stacked", 2, "steps", "input"): "critic_pi",
    ("nets.backward_stacked", 2, "steps", "param"): "critic",
    ("nets.backward_stacked", 2, "steps", "input"): "critic_pi",
    ("nets.backward_stacked", 1, "states", "param"): "actor",
    ("nets.forward_stacked", 1, "T1", "none"): "act",
}
UNLABELLED = "unlabelled"


def _catalogue() -> list[tuple[str, str, str]]:
    out = []
    for fn in FREQUENT + RARE:
        out.append((f"{fn}.n", "count", "higher"))
        out.append((f"{fn}.ms_p50", "ms", "lower"))
        if fn in FREQUENT:
            out.append((f"{fn}.ms_p90", "ms", "lower"))
        out.append((f"{fn}.self_share", "fraction", "lower"))
    for fn in ("nets.forward_stacked", "nets.backward_stacked"):
        for label in dict.fromkeys(v for k, v in KNOWN_PASSES.items() if k[0] == fn):
            out.append((f"{fn}.{label}.n", "count", "higher"))
            out.append((f"{fn}.{label}.ms_p50", "ms", "lower"))
        out.append((f"{fn}.{UNLABELLED}.n", "count", "lower"))
    for fn in PER_UPDATE:
        out.append((f"{fn}.calls_per_update", "count", "lower"))
    for fn in PER_UPDATE[2:]:
        out.append((f"{fn}.self_share", "fraction", "lower"))
    out += [
        ("checkpoint.bytes", "bytes", "lower"),
        ("sac.SacAgent.update.episode_share", "fraction", "higher"),
        ("bench.self_share", "fraction", "lower"),
        ("bench.setup.share", "fraction", "lower"),
        ("bench.timed.share", "fraction", "higher"),
        ("bench.checkpoint.share", "fraction", "lower"),
        ("trace.episodes_per_calibrated_s", "1/s", "higher"),
    ]
    return out


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = _catalogue()


def unit_of(name: str) -> str:
    """Unit of a per-layer metric from its stat suffix."""
    stat = name.rsplit(".", 1)[-1]
    return {"n": "count", "ms_p50": "ms", "ms_p90": "ms"}.get(stat, "fraction")


class Tracer:
    """In-memory spans: name, start, end, parent index and optional attrs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack: list[int] = []
        # wall-clock intervals in which the calibration kernel ran (see
        # speed.py); durations() takes them out of every span around them
        self.pauses: list[tuple[float, float]] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append(None)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                row = {"id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                       "parent": self.parents[i]}
                if self.attrs[i]:
                    row["attrs"] = self.attrs[i]
                fh.write(json.dumps(row) + "\n")
            for start, end in self.pauses:
                fh.write(json.dumps({"pause": [start, end]}) + "\n")


def traced(tracer: Tracer, name: str, fn, label=None, attrs=None):
    """Wrap fn so each call inside a phase records one span.

    label(args, kwargs) returns a suffix for the span name; attrs(args,
    kwargs, result) returns a dict stored with the span.
    """

    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        i = tracer.open(name if label is None else f"{name}.{label(args, kwargs)}")
        try:
            out = fn(*args, **kwargs)
            if attrs is not None:
                tracer.attrs[i] = attrs(args, kwargs, out)
            return out
        finally:
            tracer.close(i)

    return wrapper


def _arg(args, kwargs, pos, key, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    import musclerl.env
    import musclerl.fieldtest
    import musclerl.sac
    import musclerl.trainer
    from musclerl.env import TrackingEnv
    from musclerl.pid import PidActionPolicy
    from musclerl.sac import ReplayBuffer, SacAgent
    from musclerl.trainer import Trainer

    def fwd_attrs(args, kwargs, out):
        sp, x = args[0], args[1]
        return {"S": sp.S, "T": int(x.shape[1]), "cache": id(out[2])}

    def bwd_attrs(args, kwargs, out):
        cache = args[0]
        return {"S": cache.S, "T": cache.T, "cache": id(cache),
                "param": bool(_arg(args, kwargs, 3, "need_param_grads", True))}

    def file_bytes(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}

    def field_label(args, kwargs):
        return "pid" if isinstance(args[1], PidActionPolicy) else "policy"

    def act_label(args, kwargs):
        return "deterministic" if _arg(args, kwargs, 3, "deterministic", False) else "stochastic"

    # (owner, attribute, span name, label, attrs)
    table = [
        (musclerl.env, "advance", "plant.advance", None, None),
        (TrackingEnv, "step", "env.TrackingEnv.step", None, None),
        (TrackingEnv, "reset", "env.TrackingEnv.reset", None, None),
        (musclerl.env, "sample_muscle_set", "randomize.sample_muscle_set", None, None),
        (musclerl.env, "apply_observation_noise", "randomize.apply_observation_noise",
         None, None),
        (PidActionPolicy, "act", "pid.PidActionPolicy.act", None, None),
        (musclerl.trainer, "augment_trajectory", "augment.augment_trajectory", None, None),
        (ReplayBuffer, "push", "sac.ReplayBuffer.push", None, None),
        (ReplayBuffer, "sample", "sac.ReplayBuffer.sample", None, None),
        (Trainer, "store_with_augmentation", "trainer.Trainer.store_with_augmentation",
         None, None),
        (Trainer, "rollout", "trainer.Trainer.rollout", None, None),
        (Trainer, "train_episode", "trainer.Trainer.train_episode", None, None),
        (Trainer, "bootstrap_phase", "trainer.Trainer.bootstrap_phase", None, None),
        (Trainer, "save", "trainer.Trainer.save", None, None),
        (Trainer, "restore", "trainer.Trainer.restore", None, None),
        (musclerl.trainer, "save_checkpoint", "checkpoint.save_checkpoint", None, file_bytes),
        (musclerl.trainer, "load_checkpoint", "checkpoint.load_checkpoint", None, None),
        (musclerl.trainer, "load_policy", "trainer.load_policy", None, None),
        (SacAgent, "update", "sac.SacAgent.update", None,
         lambda args, kwargs, out: {"steps": args[1][0].length}),
        (SacAgent, "act", "sac.SacAgent.act", act_label, None),
        (musclerl.sac, "forward_stacked", "nets.forward_stacked", None, fwd_attrs),
        (musclerl.sac, "backward_stacked", "nets.backward_stacked", None, bwd_attrs),
        (musclerl.sac, "adam_update", "nets.adam_update", None, None),
        (musclerl.sac, "grads_to_flat", "nets.grads_to_flat", None, None),
        (musclerl.sac, "StackedNets", "nets.StackedNets", None, None),
        (musclerl.fieldtest, "default_episode_runner", "fieldtest.default_episode_runner",
         None, None),
        (musclerl.fieldtest, "run_field_test", "fieldtest.run_field_test", field_label, None),
    ]
    saved = []
    try:
        for owner, attr, name, label, attrs in table:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(traced(tracer, name, raw.__func__, label, attrs))
            else:
                new = traced(tracer, name, raw, label, attrs)
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- analysis ------------------------------------------------------------------


def durations(tracer: Tracer) -> list[float]:
    """Each span's wall time minus the pauses inside it.

    A pause is a signal handler's run, between two bytecodes of the traced
    program, so it lies wholly inside or wholly outside any span.
    """
    pauses = sorted(tracer.pauses)
    begins = [start for start, _ in pauses]
    before = [0.0]  # before[k]: summed length of the first k pauses
    for start, end in pauses:
        before.append(before[-1] + end - start)
    out = []
    for start, end in zip(tracer.starts, tracer.ends):
        i, j = bisect.bisect_left(begins, start), bisect.bisect_left(begins, end)
        out.append(end - start - (before[j] - before[i]))
    return out


def self_times(tracer: Tracer, dur: list[float] | None = None) -> list[float]:
    """Each span's duration minus the summed durations of its direct children."""
    dur = durations(tracer) if dur is None else dur
    own = list(dur)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            own[p] -= dur[i]
    return own


def percentiles(durations_ms: list[float]) -> dict[str, float]:
    """n, median and, from 100 samples on, the 90th percentile."""
    n = len(durations_ms)
    out = {"n": n}
    if n == 0:
        return out
    out["ms_p50"] = statistics.median(durations_ms)
    if n >= P90_MIN_SAMPLES:
        out["ms_p90"] = statistics.quantiles(durations_ms, n=10, method="inclusive")[8]
    return out


def _sequence_kind(T: int, steps: int | None) -> str:
    if steps is not None and T == steps + 1:
        return "states"
    if steps is not None and T == steps:
        return "steps"
    return f"T{T}"


def pass_labels(tracer: Tracer) -> dict[int, str]:
    """Label every forward/backward span by its call shape.

    Shapes in KNOWN_PASSES get their pass name; any other shape gets a label
    spelled from the shape itself, such as ``S4-steps-param``.
    """
    steps_of = {i: (tracer.attrs[i] or {}).get("steps")
                for i, n in enumerate(tracer.names) if n == "sac.SacAgent.update"}
    consumer = {}
    for i, name in enumerate(tracer.names):
        if name == "nets.backward_stacked":
            a = tracer.attrs[i]
            consumer[(tracer.parents[i], a["cache"])] = "param" if a["param"] else "input"
    labels = {}
    for i, name in enumerate(tracer.names):
        if name not in ("nets.forward_stacked", "nets.backward_stacked"):
            continue
        a = tracer.attrs[i]
        steps = steps_of.get(tracer.parents[i])
        if name == "nets.backward_stacked":
            grads = "param" if a["param"] else "input"
        else:
            grads = consumer.get((tracer.parents[i], a["cache"]), "none")
        kind = _sequence_kind(a["T"], steps)
        labels[i] = KNOWN_PASSES.get((name, a["S"], kind, grads), f"S{a['S']}-{kind}-{grads}")
    return labels


def analyze(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, sample count).

    Pass labels outside KNOWN_PASSES are reported under their own shape
    label, and their count is also summed into ``<function>.unlabelled.n``.
    """
    dur = durations(tracer)
    own = self_times(tracer, dur)
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    wall = sum(dur[i] for i in roots)
    by_name: dict[str, list[int]] = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    out: dict[str, tuple[float, int]] = {}

    def add_stats(key, idx, with_share=True):
        durs = [dur[i] * 1e3 for i in idx]
        stats = percentiles(durs)
        n = stats.pop("n")
        out[f"{key}.n"] = (float(n), n)
        for stat, value in stats.items():
            out[f"{key}.{stat}"] = (value, n)
        if with_share and wall > 0:
            out[f"{key}.self_share"] = (sum(own[i] for i in idx) / wall, n)

    for name, idx in by_name.items():
        if not name.startswith(PHASE_PREFIX):
            add_stats(name, idx)

    labels = pass_labels(tracer)
    for fn in ("nets.forward_stacked", "nets.backward_stacked"):
        groups: dict[str, list[int]] = {}
        for i in by_name.get(fn, []):
            groups.setdefault(labels[i], []).append(i)
        known = set(KNOWN_PASSES.values())
        unlabelled = 0
        for label, idx in groups.items():
            add_stats(f"{fn}.{label}", idx, with_share=False)
            if label not in known:
                unlabelled += len(idx)
        out[f"{fn}.{UNLABELLED}.n"] = (float(unlabelled), unlabelled)

    updates = set(by_name.get("sac.SacAgent.update", []))
    for fn in PER_UPDATE:
        calls = sum(1 for i in by_name.get(fn, []) if tracer.parents[i] in updates)
        out[f"{fn}.calls_per_update"] = (calls / len(updates) if updates else 0.0, len(updates))

    sizes = [tracer.attrs[i]["bytes"] for i in by_name.get("checkpoint.save_checkpoint", [])]
    if sizes:
        out["checkpoint.bytes"] = (float(statistics.median(sizes)), len(sizes))
    episodes = by_name.get("trainer.Trainer.train_episode", [])
    if updates and episodes:
        upd = sum(dur[i] for i in updates)
        ep = sum(dur[i] for i in episodes)
        out["sac.SacAgent.update.episode_share"] = (upd / ep, len(episodes))
    if wall > 0:
        out["bench.self_share"] = (sum(own[i] for i in roots) / wall, len(roots))
        for i in roots:
            name = tracer.names[i]
            prev = out.get(f"{name}.share", (0.0, 0))
            out[f"{name}.share"] = (prev[0] + dur[i] / wall,
                                    prev[1] + 1)
    return out
