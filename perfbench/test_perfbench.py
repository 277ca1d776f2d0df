"""Tests of the benchmark's own helpers: run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import re
import time
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_p90_only_from_100_samples_and_n_always_reported():
    assert spans.percentiles([]) == {"n": 0}
    few = spans.percentiles([float(i) for i in range(99)])
    assert few["n"] == 99 and few["ms_p50"] == 49.0 and "ms_p90" not in few
    many = spans.percentiles([float(i) for i in range(100)])
    assert many["n"] == 100 and many["ms_p90"] == pytest.approx(89.1)


def _tracer(rows):
    """Tracer from (name, start, end, parent) rows."""
    tr = spans.Tracer()
    for name, start, end, parent in rows:
        tr.names.append(name)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
        tr.attrs.append(None)
    return tr


def test_self_time_subtracts_direct_children_only():
    tr = _tracer([
        ("bench.timed", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),   # sibling of b
        ("b", 4.0, 8.0, 0),
        ("c", 5.0, 6.0, 2),   # nested in b
    ])
    assert spans.self_times(tr) == [4.0, 2.0, 3.0, 1.0]
    m = spans.analyze(tr)
    assert m["b.self_share"][0] == pytest.approx(0.3)
    assert m["c.self_share"][0] == pytest.approx(0.1)
    assert m["bench.self_share"][0] == pytest.approx(0.4)
    assert m["bench.timed.share"][0] == pytest.approx(1.0)


def test_pauses_are_taken_out_of_the_spans_around_them():
    tr = _tracer([
        ("bench.timed", 0.0, 10.0, -1),
        ("b", 4.0, 8.0, 0),
        ("c", 5.0, 6.0, 1),
    ])
    tr.pauses = [(5.2, 5.4), (7.0, 7.5), (9.0, 9.1)]
    assert spans.durations(tr) == pytest.approx([9.2, 3.3, 0.8])
    assert spans.self_times(tr) == pytest.approx([5.9, 2.5, 0.8])
    m = spans.analyze(tr)
    assert m["c.ms_p50"][0] == pytest.approx(800.0)
    assert m["b.self_share"][0] == pytest.approx(2.5 / 9.2)


def test_metric_names_match_pattern_and_benchmark_json():
    layer = [name for name, _, _ in spans.LAYER_METRICS]
    e2e = [name for name, _, _, _ in run.END_TO_END]
    for name in layer + e2e:
        assert NAME.fullmatch(name), name
    assert len(set(layer)) == len(layer) <= 128
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b in spans.LAYER_METRICS]
    assert bench["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": x}
                                   for n, u, b, x in run.END_TO_END]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_one_width16_update_gives_the_seven_known_passes():
    from musclerl.randomize import SeededRng
    from musclerl.sac import SacAgent, Trajectory

    rng = np.random.default_rng(0)
    T = 40
    batch = [Trajectory(rng.normal(size=(T + 1, 6)), rng.normal(size=(T + 1, 4)),
                        rng.uniform(0, 10, size=(T, 3)), rng.normal(size=T))
             for _ in range(20)]
    agent = SacAgent(obs_dim=6, action_dim=3, rng=SeededRng(0), gru_hidden=16)
    tr = spans.Tracer()
    with spans.installed(tr), tr.span("bench.timed"):
        agent.update(batch, 0.99)
    update = tr.names.index("sac.SacAgent.update")
    children = [i for i, p in enumerate(tr.parents) if p == update]
    fwd = [i for i in children if tr.names[i] == "nets.forward_stacked"]
    bwd = [i for i in children if tr.names[i] == "nets.backward_stacked"]
    assert len(fwd) == 4 and len(bwd) == 3
    labels = spans.pass_labels(tr)
    assert sorted(labels[i] for i in fwd) == ["actor", "critic", "critic_pi", "target"]
    assert sorted(labels[i] for i in bwd) == ["actor", "critic", "critic_pi"]
    m = spans.analyze(tr)
    assert m["nets.forward_stacked.unlabelled.n"][0] == 0
    assert m["nets.StackedNets.calls_per_update"][0] == 4


def test_unknown_pass_shape_gets_its_own_label():
    tr = _tracer([("sac.SacAgent.update", 0.0, 1.0, -1),
                  ("nets.forward_stacked", 0.1, 0.2, 0)])
    tr.attrs[0] = {"steps": 40}
    tr.attrs[1] = {"S": 4, "T": 40, "cache": 1}
    assert spans.pass_labels(tr) == {1: "S4-steps-none"}
    m = spans.analyze(tr)
    assert m["nets.forward_stacked.S4-steps-none.n"][0] == 1
    assert m["nets.forward_stacked.unlabelled.n"][0] == 1


def test_wrappers_are_removed_after_the_block():
    import musclerl.env
    import musclerl.trainer

    before = (musclerl.env.advance, vars(musclerl.trainer.Trainer)["restore"])
    with spans.installed(spans.Tracer()):
        assert musclerl.env.advance is not before[0]
    assert (musclerl.env.advance, vars(musclerl.trainer.Trainer)["restore"]) == before


def test_thread_env_unset_or_above_pin_is_a_problem():
    pinned = {v: "1" for v in run.THREAD_VARS}
    assert run.thread_problems(pinned) == []
    assert len(run.thread_problems({**pinned, "OMP_NUM_THREADS": "2"})) == 1
    unset = dict(pinned)
    del unset["MKL_NUM_THREADS"]
    assert run.thread_problems(unset) == ["MKL_NUM_THREADS is unset"]
    env = {}
    assert run.pin_threads(env) == list(run.THREAD_VARS)
    assert run.thread_problems(env) == []


def test_field_reference_tolerance():
    ref = json.loads(run.REFERENCE.read_text())["fieldtest_pid_summary"]
    summary = {k: ref[k] for k in ("count", "mean", "sd", "median", "q1", "q3", "max")}
    assert run.summary_matches({**summary, "mean": ref["mean"] + 5e-11}, ref) == []
    assert run.summary_matches({**summary, "max": ref["max"] + 1e-3}, ref) != []
    assert run.summary_matches({**summary, "count": 80}, ref) == ["count"]


def test_median_rate_counts_the_median_call_of_every_kind():
    assert run.median_rate({"episode": (1, [2.5, 2.0, 4.0])}) == 0.4
    calls = {"pid": (81, [4.0, 3.0, 3.5]), "policy": (81, [3.0, 3.2, 3.1])}
    assert run.median_rate(calls) == pytest.approx(162 / 6.6)
    # a slower policy moves the rate although PID calls stay the slower ones
    calls["policy"] = (81, [3.3, 3.2, 3.4])
    assert run.median_rate(calls) == pytest.approx(162 / 6.8)


def test_probed_calibrates_and_restores_the_alarm():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.probed(speed.INTERPRETER, interval=0.02) as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 2    # before, after, and from the alarm
    # the block's CPU time is the loop's, less the handler's inside it
    assert 0.0 < probe.seconds < 0.2 <= probe.seconds + probe.in_block
    mean = sum(probe.samples) / len(probe.samples)
    assert probe.calibrated_s == pytest.approx(
        probe.seconds * speed.INTERPRETER.nominal_s / mean)
    assert len(probe.pauses) == len(probe.samples) - 2
