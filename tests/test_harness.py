import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

import musclerl.env
import musclerl.fieldtest
import musclerl.trainer
from musclerl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from musclerl.cli import main as cli_main
from musclerl.config import (
    CODE_STAMP,
    NUMERICS,
    RunConfig,
    __version__,
    field_type,
    load_config,
    parse_config_file,
)
from musclerl.env import TrackingEnv, run_episode
from musclerl.fieldtest import (
    FieldTestSpec,
    PolicyController,
    field_spec_for,
    grid_targets,
    make_eval_env,
    pid_controller_for,
    run_field_test,
    steady_state_error,
    summarize,
)
from musclerl.randomize import NO_RANDOMIZATION, SeededRng
from musclerl.sac import SacAgent
from musclerl.trainer import CsvLog, Trainer, load_policy


def tiny_cfg(out_dir, **kw):
    base = dict(preset="wrist", seed=11, episodes=8, bootstrap_episodes=3,
                gru_hidden=8, augment_copies=1, updates_per_episode=5,
                checkpoint_every=4, out_dir=str(out_dir))
    base.update(kw)
    return RunConfig(**base)


# -- config -------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# smoke settings\n"
        "preset = eye\n"
        "seed = 42\n"
        "episodes = 20\n"
        "no_augment = true\n"
        "augment_delta = 1.5\n"
    )
    fields = parse_config_file(str(p))
    assert fields == {"preset": "eye", "seed": 42, "episodes": 20,
                      "no_augment": True, "augment_delta": 1.5}


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("learning_rate = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(str(p))


def test_config_override_precedence(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 1\npreset = eye\n")
    cfg = load_config(str(p))
    assert cfg.seed == 1 and cfg.preset == "eye"
    cfg = load_config(str(p), overrides={"seed": 3})
    assert cfg.seed == 3 and cfg.preset == "eye"  # CLI beats file


def test_config_preset_defaults_and_validation():
    wrist = RunConfig(preset="wrist").resolved()
    assert (wrist.episodes, wrist.bootstrap_episodes, wrist.episode_length) == (3500, 500, 40)
    assert wrist.updates_per_episode == 40
    eye = RunConfig(preset="eye").resolved()
    assert (eye.episodes, eye.bootstrap_episodes, eye.episode_length) == (2000, 250, 30)
    with pytest.raises(ValueError):
        RunConfig(preset="wrist", episodes=5, bootstrap_episodes=10).resolved()
    with pytest.raises(ValueError):
        RunConfig(preset="ankle")


@pytest.mark.parametrize("gamma", [1.5, 0.0, -0.5, math.nan])
def test_gamma_outside_the_unit_interval_is_rejected(gamma, tmp_path):
    # a config file's gamma is outside input; nothing downstream checks it
    with pytest.raises(ValueError, match="gamma"):
        Trainer(RunConfig(gamma=gamma, gru_hidden=8, out_dir=str(tmp_path)))
    assert RunConfig(gamma=1.0).resolved().gamma == 1.0


@pytest.mark.parametrize("key", ["batch_size", "checkpoint_every"])
@pytest.mark.parametrize("value", [0, -2])
def test_batch_size_or_checkpoint_every_below_one_is_rejected(key, value, tmp_path):
    # refused when the trainer is built, not after the bootstrap phase
    # (an empty batch or a modulo by zero in the first update episode)
    with pytest.raises(ValueError, match=key):
        Trainer(RunConfig(gru_hidden=8, out_dir=str(tmp_path), **{key: value}))
    assert getattr(RunConfig(**{key: 1}).resolved(), key) == 1


def test_buffer_smaller_than_a_batch_is_rejected_naming_both_keys(tmp_path):
    # no update could ever sample a batch, so training would skip every one
    with pytest.raises(ValueError, match="buffer_capacity.*batch_size") as info:
        Trainer(RunConfig(preset="eye", buffer_capacity=5, batch_size=6, gru_hidden=8,
                          out_dir=str(tmp_path)))
    assert "\n" not in str(info.value)
    assert RunConfig(buffer_capacity=6, batch_size=6).resolved().buffer_capacity == 6


@pytest.mark.parametrize("key, value", [
    ("tau", 2.0), ("tau", -0.5), ("tau", math.nan), ("lr", -0.1), ("lr", 0.0), ("lr", math.nan),
    ("lr", math.inf), ("episode_length", 0), ("updates_per_episode", 0),
    ("bootstrap_episodes", -3), ("augment_copies", -1), ("target_range", math.nan),
    ("target_range", -5.0), ("target_range", math.inf), ("augment_delta", math.nan),
    ("augment_delta", -1.0), ("pid_gain_scale", math.nan), ("pid_gain_scale", math.inf),
    ("pid_gain_scale", -1.0)])
def test_an_out_of_range_training_number_is_refused_in_one_line(key, value, tmp_path, capsys):
    # each once ran on: into a traceback after the demonstration phase or at
    # the first update, or silently (M=-3 ran as M=0, a negative lr climbed)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"preset = eye\n{key} = {value!r}\n")
    assert cli_main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and key in err, err
    assert not (tmp_path / "run").exists()


def test_the_ends_of_each_training_number_range_are_accepted():
    for tau in (0.0, 1.0):
        assert RunConfig(tau=tau).resolved().tau == tau
    edge = dict(lr=5e-324, episode_length=1, updates_per_episode=1, bootstrap_episodes=0,
                augment_copies=0, target_range=0.0, augment_delta=0.0, pid_gain_scale=0.0)
    cfg = RunConfig(**edge).resolved()
    assert {k: getattr(cfg, k) for k in edge} == edge


def test_cli_train_reports_a_config_error_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = eye\nbuffer_capacity = 5\nbatch_size = 6\n")
    rest = tmp_path / "rest.cfg"
    rest.write_text("preset = eye\nplant_rest_length = 8.0\n")
    for argv in (["--checkpoint-every", "0"], ["--config", str(bad)],
                 ["--config", str(tmp_path / "missing.cfg")], ["--config", str(rest)],
                 ["--variance-multiplier", "inf"], ["--variance-multiplier", "nan"],
                 ["--preset", "eye", "--variance-multiplier", "300"],
                 ["--preset", "eye", "--variance-multiplier", "1e308"],
                 ["--preset", "wrist", "--variance-multiplier", "1e308"]):
        assert cli_main(["train", "--out-dir", str(tmp_path / "run")] + argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "run").exists()


def test_every_config_field_round_trips_through_a_config_file(tmp_path):
    # one non-default value per field; a field whose type has no rule here
    # (or no parsing rule in config) fails
    by_type = {int: 7, float: 0.25, bool: True}
    want = {"preset": "eye", "out_dir": "runs/elsewhere"}
    for f in dataclasses.fields(RunConfig):
        if f.name not in want:
            want[f.name] = by_type[field_type(f.name)[0]]
        assert want[f.name] != getattr(RunConfig(), f.name), f.name
    p = tmp_path / "all.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in want.items()))
    # repr, not ==: 7.0 == 7, but an int field read as a float changes the hash
    assert repr(RunConfig(**parse_config_file(str(p)))) == repr(RunConfig(**want))


def test_config_hash_ignores_out_dir_only():
    a = RunConfig(out_dir="x")
    b = RunConfig(out_dir="y")
    c = RunConfig(out_dir="x", seed=5)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_plant_overrides_from_config_file(tmp_path):
    from musclerl.trainer import Trainer

    p = tmp_path / "plant.cfg"
    text = ("preset = wrist\nepisodes = 1\nbootstrap_episodes = 1\ngru_hidden = 8\n"
            "plant_moment_arm = 2.5\nplant_damping = 4.0\n"
            f"out_dir = {tmp_path / 'run'}\n")
    p.write_text(text)
    cfg = load_config(str(p))
    tr = Trainer(cfg)
    plant = tr.env.nominal
    assert plant.r == 2.5 and plant.d == 4.0
    assert abs(plant.routing[0, 0] - 2.5) < 1e-12
    # the linearized routing cancels the rest length: the key would only move the hash
    p.write_text(text + "plant_rest_length = 8.0\n")
    with pytest.raises(ValueError, match="plant_rest_length"):
        Trainer(load_config(str(p)))


# -- field test ----------------------------------------------------------------


def test_grid_has_81_targets():
    targets = grid_targets(FieldTestSpec())
    assert len(targets) == 81
    assert (10.0, 10.0) in targets and (-10.0, -10.0) in targets


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldTestSpec(spacing=3.0)
    with pytest.raises(ValueError):
        FieldTestSpec(settle=30.0, duration=25.0)
    assert field_spec_for("eye").duration == 15.0
    assert field_spec_for("wrist").duration == 25.0
    shortest = field_spec_for("wrist", 0.3)  # the shortest span that rounds to one step
    assert (shortest.steps, shortest.settle_steps) == (1, 1)


@pytest.mark.parametrize("duration, settle", [
    (0.0, 0.0), (-1.0, 5.0), (0.2, 0.2), (0.25, 0.25), (math.nan, 5.0), (math.inf, 5.0),
    (3.0, 0.2), (3.0, -1.0)])
def test_field_spec_refuses_spans_without_an_action_step(duration, settle):
    # the episode and its settle window must each round to one 0.5 s step
    with pytest.raises(ValueError, match="at least one 0.5 s action step"):
        FieldTestSpec(duration=duration, settle=settle)


@pytest.mark.parametrize("verb, duration", [
    ("eval-field", "0"), ("eval-field", "-2"), ("episode", "0"), ("episode", "-2"),
    ("episode", "0.2")])
def test_cli_refuses_a_field_duration_without_an_action_step(verb, duration, capsys):
    # --duration 0 once ran the preset's duration, a negative one ended in a
    # traceback and 0.2 s ran a zero-step episode with a NaN e_ss
    assert cli_main([verb, "--pid", "--preset", "wrist", "--duration", duration]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "at least one 0.5 s action step" in err


@pytest.mark.parametrize("verb", ["eval-field", "episode"])
@pytest.mark.parametrize("flags, named", [
    (["--pid"], ["--pid"]), (["--preset", "eye"], ["--preset"]),
    (["--pid", "--preset", "wrist"], ["--pid", "--preset"])])
def test_cli_refuses_a_checkpoint_next_to_pid_or_preset(verb, flags, named, tmp_path, capsys):
    # --pid with --checkpoint once evaluated the stock PID and exited 0, and
    # --preset with --checkpoint was ignored for the checkpoint's own preset
    ckpt = str(tmp_path / "missing.ckpt")
    assert cli_main([verb, "--checkpoint", ckpt] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "--checkpoint" in err
    assert all(flag in err for flag in named) and ("--pid" in err) == ("--pid" in named)


@pytest.mark.parametrize("flag, value", [("--target1", "nan"), ("--target2", "inf"),
                                         ("--target1", "-inf")])
def test_cli_episode_refuses_a_non_finite_target(flag, value, capsys):
    # a NaN or infinite target once ended in the env's observation traceback
    assert cli_main(["episode", "--pid", "--preset", "wrist", f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "must be finite" in err


def test_teleporting_oracle_scores_zero():
    spec = FieldTestSpec()
    for target in grid_targets(spec):
        angles = np.tile(np.asarray(target), (spec.steps, 1))
        assert steady_state_error(angles, target, spec.settle_steps) == 0.0


def test_constant_offset_scores_sqrt_two():
    spec = FieldTestSpec()
    for target in grid_targets(spec):
        angles = np.tile(np.asarray(target) + 1.0, (spec.steps, 1))
        e = steady_state_error(angles, target, spec.settle_steps)
        assert e == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_steady_state_error_uses_final_window_only():
    angles = np.zeros((50, 2))
    angles[:40] = 100.0  # junk outside the settle window
    assert steady_state_error(angles, (0.0, 0.0), 10) == 0.0


def test_steady_state_error_of_a_batch_is_each_episode_s():
    # a batch of (..., steps, 2) angles against (..., 2) targets gives, row
    # by row, the bytes of the one-episode call, which returns a float
    rng = np.random.default_rng(5)
    angles = rng.normal(scale=3.0, size=(3, 4, 30, 2))
    targets = rng.uniform(-10.0, 10.0, size=(3, 4, 2))
    errors = steady_state_error(angles, targets, 10)
    assert errors.shape == (3, 4) and errors.dtype == np.float64
    for i in range(3):
        for j in range(4):
            one = steady_state_error(angles[i, j], tuple(targets[i, j]), 10)
            assert type(one) is float and struct.pack("d", one) == errors[i, j].tobytes()


def test_summary_statistics():
    rows = [(0, 0, float(v)) for v in range(1, 10)]
    s = summarize(rows)
    assert s["count"] == 9 and s["median"] == 5.0 and s["mean"] == 5.0


def test_field_test_builds_the_plant_step_map_once(monkeypatch):
    # counts the plant rows of every map built: one for the field test, one
    # for a randomized env's stability check when it is built, a row per
    # episode for a randomized reset, and one map that every row shares
    # without randomization, built anew at each reset
    built = []
    real = musclerl.env.StepMap

    def counting(*args):
        sm = real(*args)
        built.append(sm.rows)
        return sm

    monkeypatch.setattr(musclerl.env, "StepMap", counting)
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    assert len(run_field_test("wrist", pid_controller_for("wrist"), spec)) == 9
    assert built == [1]
    env = TrackingEnv("wrist", SeededRng(0))  # randomized muscles: new maps every reset
    assert built == [1, 1]
    env.reset()
    env.reset(4)
    assert built == [1, 1, 1, 4]
    env = TrackingEnv("wrist", SeededRng(0), randomization=NO_RANDOMIZATION)
    env.reset(5)
    env.reset(3)
    env.reset()
    assert built == [1, 1, 1, 4, 1, 1, 1]
    assert env.plant.stack is env.step_map.stack


def test_field_tests_of_one_spec_share_the_grid_targets():
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    assert grid_targets(spec) is grid_targets(FieldTestSpec(5.0, 5.0, 3.0, 1.0))
    rows = [run_field_test("wrist", pid_controller_for("wrist"), spec) for _ in range(2)]
    assert rows[0] == rows[1]
    for a, b, (t1, t2) in zip(*rows, grid_targets(spec)):
        assert a[0] is b[0] is t1 and a[1] is b[1] is t2


def _perturbed_policy(preset, tmp_path):
    # a width-16 actor with every parameter, biases included, nonzero
    agent = Trainer(RunConfig(preset=preset, seed=21, gru_hidden=16,
                              out_dir=str(tmp_path))).agent
    agent.actor.flat += np.random.default_rng(22).normal(scale=0.2, size=agent.actor.size)
    return PolicyController(agent)


@pytest.mark.parametrize("preset", ["wrist", "eye"])
@pytest.mark.parametrize("kind", ["pid", "policy"])
def test_lockstep_field_test_equals_serial_episodes(preset, kind, tmp_path):
    # the 81 targets in lockstep against one episode at a time, each on a
    # fresh evaluation env, rows compared by repr
    spec = FieldTestSpec(duration=5.0, settle=2.0)
    controller = (pid_controller_for(preset) if kind == "pid"
                  else _perturbed_policy(preset, tmp_path))
    serial = []
    for target in grid_targets(spec):
        env = make_eval_env(preset, spec)
        _, outputs, _, _ = run_episode(env, controller, [target])
        serial.append((target[0], target[1],
                       steady_state_error(outputs[0, 1:, ::2], target, spec.settle_steps)))
    rows = run_field_test(preset, controller, spec)
    assert len(rows) == 81
    assert repr(rows) == repr(serial)


def _repo_module(name, *path):
    """A repo file outside the package, imported as module name."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(name, os.path.join(repo, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_field_test_acts_once_per_step(tmp_path):
    # the benchmark's span wrappers around a 9-target field test of each
    # controller: the controller acts once per step for all targets, and
    # one env step with one plant product advances all 9 rows
    spans = _repo_module("perfbench_spans", "perfbench", "spans.py")
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    controllers = (pid_controller_for("wrist"), _perturbed_policy("wrist", tmp_path))
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.span("bench.timed"):
        for controller in controllers:
            assert len(musclerl.fieldtest.run_field_test("wrist", controller, spec)) == 9
    names = tracer.names
    assert names.count("fieldtest.run_field_test.pid") == 1
    assert names.count("fieldtest.run_field_test.policy") == 1
    assert names.count("pid.PidActionPolicy.act") == spec.steps
    assert names.count("sac.SacAgent.act.deterministic") == spec.steps
    assert names.count("env.TrackingEnv.step") == 2 * spec.steps
    assert names.count("plant.advance") == 2 * spec.steps
    assert names.count("env.TrackingEnv.reset") == 2
    metrics = spans.analyze(tracer)
    assert metrics["sac.SacAgent.act.deterministic.n"][0] == spec.steps


# -- trainer artifacts ---------------------------------------------------------


def test_training_artifacts_and_tags(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    tr = Trainer(cfg)
    tr.train()
    lines = [l.strip() for l in open(tmp_path / "run" / "rewards.csv")]
    assert lines[0].startswith("# musclerl config_sha256=") and "seed=11" in lines[0]
    assert lines[0].endswith(" version=0.1.0 numerics=3") and CODE_STAMP in lines[0]
    assert lines[1] == "episode,controller,steps,episode_return,avg_reward"
    data = [l.split(",") for l in lines[2:]]
    assert len(data) == 8
    assert [d[1] for d in data[:3]] == ["pid"] * 3
    assert [d[1] for d in data[3:]] == ["policy"] * 5
    assert all(d[2] == "40" for d in data)
    for name in ("checkpoint.ckpt", "final.ckpt", "policy_final.ckpt", "losses.csv"):
        assert (tmp_path / "run" / name).exists()


def test_buffer_counting_during_bootstrap(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", augment_copies=4)
    tr = Trainer(cfg)
    tr.bootstrap_phase()
    assert len(tr.buffer) == 3 * 5


class PerStepUniform:
    """The uniform warm-up as one row drew it: (1, A) actions per step, one episode at a time."""

    def __init__(self, rng, low, high):
        self.rng, self.low, self.high = rng, low, high

    def reset(self, n=1):
        assert n == 1

    def act(self, obs):
        return self.rng.uniform(self.low, self.high, size=(len(obs), self.low.size))


def _serial_demonstrations(tr: Trainer, log: CsvLog) -> None:
    """The demonstration phase one episode at a time: the reference for the lockstep one."""
    kind = "random" if tr.cfg.no_bootstrap else "pid"
    tr.controllers["random"] = PerStepUniform(tr.warmup_rng, tr.env.action_low,
                                              tr.env.action_high)
    while tr.episode_idx < tr.cfg.bootstrap_episodes:
        (traj,) = tr.rollout(kind)
        tr.store_with_augmentation(traj)
        tr.episode_idx += 1
        log.row([tr.episode_idx, kind, traj.length, float(traj.rewards.sum()),
                 float(traj.rewards.mean())])


def _streams(tr: Trainer) -> str:
    return repr({name: [r.get_state() for r in s] if isinstance(s, list) else s.get_state()
                 for name, s in tr.rng_streams().items()})


@pytest.mark.parametrize("preset, angle_limit, overrides", [
    ("wrist", None, {}), ("eye", None, {}), ("wrist", 3.0, {}),
    ("wrist", None, {"shared_muscle_scaling": True}), ("eye", None, {"no_randomize": True}),
    ("wrist", None, {"no_bootstrap": True}), ("eye", None, {"no_bootstrap": True})],
    ids=["wrist-None", "eye-None", "wrist-3.0", "wrist-shared", "eye-no_randomize",
         "wrist-no_bootstrap", "eye-no_bootstrap"])
def test_lockstep_demonstrations_equal_serial_episodes(preset, angle_limit, overrides,
                                                        tmp_path, monkeypatch):
    # 7 PID (or, without the bootstrap, uniform-random) episodes in lockstep
    # calls of 3, 3 and 1 rows against one episode at a time: the same
    # buffer bytes, log rows and stream states, with each call's resets,
    # uniform actions and relabels drawn in one pass; the serial warm-up
    # draws its actions step by step. At a 3 deg travel limit, with targets
    # within 4 deg, some rows take the substep fallback and others do not,
    # in the same lockstep call.
    monkeypatch.setattr(musclerl.trainer, "DEMONSTRATION_ROWS", 3)
    cfg = RunConfig(preset=preset, seed=5, episodes=7, bootstrap_episodes=7, gru_hidden=8,
                    augment_copies=2, plant_angle_limit=angle_limit,
                    target_range=10.0 if angle_limit is None else 4.0, out_dir=str(tmp_path),
                    **overrides)
    columns = ["episode", "controller", "steps", "episode_return", "avg_reward"]
    results = []
    for name, phase in (("serial", _serial_demonstrations),
                        ("lockstep", lambda tr, log: tr.bootstrap_phase(log))):
        tr = Trainer(cfg)
        log = CsvLog(str(tmp_path / f"{name}.csv"), columns, "provenance")
        phase(tr, log)
        log.close()
        meta, arrays = tr.buffer.state()
        results.append((meta, {k: v.tobytes() for k, v in arrays.items()}, _streams(tr),
                        (tmp_path / f"{name}.csv").read_bytes()))
    assert results[0] == results[1]
    assert results[0][3].count(b"\n") == 2 + 7
    kind = b",random," if cfg.no_bootstrap else b",pid,"
    assert results[0][3].count(kind) == 7
    if angle_limit is not None:
        outputs = tr.buffer.state()[1]["buf_outputs"]
        on_limit = np.any(np.abs(outputs[..., [0, 2]]) == angle_limit, axis=(1, 2))
        assert on_limit.tolist() == [True, False, True, True, False, False, True]


def _stop_inside_the_lockstep_demonstrations_then_resume(tmp_path, monkeypatch, **overrides):
    # stop_after=4 falls inside the straight run's second lockstep call
    # (episodes 4-5): the stopped run takes episode 4 alone, the resumed run
    # episode 5, and every row and update matches the run that never stopped
    monkeypatch.setattr(musclerl.trainer, "DEMONSTRATION_ROWS", 3)
    ref = tiny_cfg(tmp_path / "straight", bootstrap_episodes=5, batch_size=4, **overrides)
    straight = Trainer(ref)
    straight.train()
    part = tiny_cfg(tmp_path / "resumed", bootstrap_episodes=5, batch_size=4, **overrides)
    Trainer(part).train(stop_after=4)
    tr = Trainer.restore(str(tmp_path / "resumed" / "checkpoint.ckpt"), resume=True)
    assert tr.episode_idx == 4 and len(tr.buffer) == 4 * 2
    tr.train()
    for name in ("rewards.csv", "losses.csv"):
        assert ((tmp_path / "straight" / name).read_bytes()
                == (tmp_path / "resumed" / name).read_bytes())
    assert tr.agent.opt_q1.t == straight.agent.opt_q1.t > 0
    assert _streams(tr) == _streams(straight)
    assert ([a.tobytes() for a in tr.buffer.state()[1].values()]
            == [a.tobytes() for a in straight.buffer.state()[1].values()])


def test_stop_inside_the_lockstep_demonstrations_then_resume(tmp_path, monkeypatch):
    _stop_inside_the_lockstep_demonstrations_then_resume(tmp_path, monkeypatch)


def test_stop_inside_the_lockstep_warmup_then_resume(tmp_path, monkeypatch):
    # the same with uniform-random actions: the stopped run's call draws
    # episode 4's actions alone, the resumed run's episode 5's
    _stop_inside_the_lockstep_demonstrations_then_resume(tmp_path, monkeypatch,
                                                         no_bootstrap=True)


def test_run_determinism_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = tiny_cfg(tmp_path / name)
        Trainer(cfg).train()
        outs.append((open(tmp_path / name / "rewards.csv", "rb").read(),
                     open(tmp_path / name / "losses.csv", "rb").read()))
    assert outs[0] == outs[1]


def test_resume_equivalence_bytes(tmp_path):
    # batch_size=4 lets updates run before and after the resume point
    ref = tiny_cfg(tmp_path / "straight", batch_size=4)
    straight = Trainer(ref)
    straight.train()
    part = tiny_cfg(tmp_path / "resumed", batch_size=4)
    Trainer(part).train(stop_after=5)
    tr = Trainer.restore(str(tmp_path / "resumed" / "checkpoint.ckpt"))
    assert tr.agent.opt_q1.t > 0  # the checkpoint carries a gradient step
    tr.train()
    assert tr.agent.opt_q1.t == straight.agent.opt_q1.t == 25
    losses = open(tmp_path / "straight" / "losses.csv", "rb").read()
    assert losses.count(b"\n") == 7  # provenance, header, one row per update episode
    assert (open(tmp_path / "straight" / "rewards.csv", "rb").read()
            == open(tmp_path / "resumed" / "rewards.csv", "rb").read())
    assert losses == open(tmp_path / "resumed" / "losses.csv", "rb").read()


def test_resume_after_crash_trims_stale_log_rows(tmp_path):
    ref = tiny_cfg(tmp_path / "straight", batch_size=4)
    Trainer(ref).train()
    part = tiny_cfg(tmp_path / "crashed", batch_size=4)
    Trainer(part).train(stop_after=5)
    # simulate rows written after the last checkpoint (crash before saving)
    with open(tmp_path / "crashed" / "rewards.csv", "a") as fh:
        fh.write("6,policy,40,0.0,0.0\n7,policy,40,0.0,0.0\n")
    tr = Trainer.restore(str(tmp_path / "crashed" / "checkpoint.ckpt"))
    assert tr.episode_idx == 5
    assert tr.agent.opt_q1.t > 0
    tr.train()
    assert (open(tmp_path / "straight" / "rewards.csv", "rb").read()
            == open(tmp_path / "crashed" / "rewards.csv", "rb").read())


def test_nonfinite_losses_abort_with_diagnostics(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", batch_size=4)
    tr = Trainer(cfg)

    def explode(batch, gamma):
        raise FloatingPointError("non-finite losses in update: test")

    tr.agent.opt_alpha.skipped = 3
    tr.agent.update = explode
    with pytest.raises(FloatingPointError):
        tr.train()
    dump = json.loads((tmp_path / "run" / "abort.json").read_text())
    assert dump["episode"] == cfg.bootstrap_episodes + 1
    # one skip count per optimizer: actor, q1, q2, temperature
    assert dump["adam_skipped"] == [0, 0, 0, 3]


def test_checkpoint_roundtrip_is_byte_stable(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    tr = Trainer(cfg)
    tr.train()
    path = tmp_path / "run" / "final.ckpt"
    meta, arrays = load_checkpoint(str(path))
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(str(resaved), meta, arrays)
    assert open(path, "rb").read() == open(resaved, "rb").read()
    # the policy checkpoint, through the agent's own load_state and state
    policy = tmp_path / "run" / "policy_final.ckpt"
    again = tmp_path / "policy_again.ckpt"
    Trainer.restore(str(policy)).save(str(again), include_buffer=False)
    assert policy.read_bytes() == again.read_bytes()


def test_wrapped_buffer_checkpoint_roundtrip_is_byte_stable(tmp_path):
    # 6 episodes of 1 + 2 slots in a ring of 7: some relabels outlive their
    # episode's own slot
    cfg = tiny_cfg(tmp_path / "run", bootstrap_episodes=6, augment_copies=2,
                   buffer_capacity=7, batch_size=7)
    tr = Trainer(cfg)
    tr.bootstrap_phase()
    first, again = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    tr.save(first)
    restored = Trainer.restore(first, resume=True)
    restored.save(again)
    assert open(first, "rb").read() == open(again, "rb").read()
    meta, arrays = load_checkpoint(first)
    assert meta["buffer"]["slots"] == 7 and arrays["buf_obs"].shape[0] == 3
    assert not [name for name in arrays if "rewards" in name]
    assert ([t.rewards.tobytes() for t in restored.buffer.snapshot()]
            == [t.rewards.tobytes() for t in tr.buffer.snapshot()])


def test_full_checkpoint_rebuilds_its_rewards_bit_for_bit(tmp_path):
    # PID and policy episodes with three relabels each: the restored
    # buffer recomputes every slot's rewards from the stored rows
    cfg = tiny_cfg(tmp_path / "run", episodes=5, augment_copies=3, batch_size=4)
    tr = Trainer(cfg)
    tr.train()
    final = str(tmp_path / "run" / "final.ckpt")
    _, arrays = load_checkpoint(final)
    assert sorted(name for name in arrays if name.startswith("buf_")) == sorted(
        ("buf_obs", "buf_outputs", "buf_actions", "buf_relabel_targets", "buf_slots"))
    restored = Trainer.restore(final, resume=True)
    assert ([(t.controller, t.rewards.tobytes()) for t in restored.buffer.snapshot()]
            == [(t.controller, t.rewards.tobytes()) for t in tr.buffer.snapshot()])


def _edited_header(data: bytes, edit, rehash: bool = False) -> bytes:
    """Checkpoint bytes with edit(header) applied; rehash restamps header_sha256."""
    start = len(MAGIC) + 8
    (hlen,) = struct.unpack(">Q", data[len(MAGIC):start])
    header = json.loads(data[start:start + hlen])
    edit(header)
    if rehash:
        body = {k: v for k, v in header.items() if k != "header_sha256"}
        header["header_sha256"] = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack(">Q", len(raw)) + raw + data[start + hlen:]


def test_checkpoint_integrity_is_verified_on_load(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(str(path), {"kind": "policy", "opt_t": [7]},
                    {"a": np.arange(6.0), "b": np.ones((2, 2))})
    blob = path.read_bytes()
    meta, arrays = load_checkpoint(str(path))
    assert np.array_equal(arrays["a"], np.arange(6.0)) and arrays["b"].shape == (2, 2)
    assert meta == {"kind": "policy", "opt_t": [7]}
    flipped = bytearray(blob)
    flipped[-3] ^= 0x01
    v1_header = json.dumps({"version": 1, "meta": {}, "arrays": []}).encode()
    cases = {
        "truncated": (blob[:-8], "truncated"),
        "cut_header": (blob[:30], "header"),
        "flipped": (bytes(flipped), "data fails its sha256"),
        "version1": (MAGIC + struct.pack(">Q", len(v1_header)) + v1_header, "version 1"),
        "version2": (_edited_header(blob, lambda h: h.update(version=2)), "version 2"),
        # header edits that each loaded without a word before the header had a digest
        "reshaped": (_edited_header(blob, lambda h: h["arrays"][0].update(shape=[2, 3])),
                     "header fails its sha256"),
        # a gets b's first value
        "shifted": (_edited_header(blob, lambda h: (h["arrays"][0].update(shape=[7]),
                                                    h["arrays"][1].update(offset=56, shape=[3]))),
                    "header fails its sha256"),
        "meta_digit": (_edited_header(blob, lambda h: h["meta"].update(opt_t=[8])),
                       "header fails its sha256"),
        # a header that hashes but does not tile its blob
        "span_mismatch": (_edited_header(blob, lambda h: h["arrays"][0].update(shape=[2, 2]),
                                         rehash=True), "does not lay out"),
        "offset_gap": (_edited_header(blob, lambda h: h["arrays"][1].update(offset=56),
                                      rehash=True), "does not lay out"),
        "short_index": (_edited_header(blob, lambda h: h["arrays"].pop(), rehash=True),
                        "does not lay out"),
    }
    for name, (data, match) in cases.items():
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(str(bad))
        assert str(bad) in str(info.value), name


def test_checkpoint_save_and_load_stream(tmp_path):
    # a width-64 agent's checkpoint: saving holds no copy of the data, and
    # loading holds the returned arrays and little else
    agent = SacAgent(obs_dim=6, action_dim=2, rng=SeededRng(3), gru_hidden=64)
    meta, arrays = agent.state()
    path = str(tmp_path / "agent.ckpt")
    tracemalloc.start()
    try:
        save_checkpoint(path, meta, arrays)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _, loaded = load_checkpoint(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 2_000_000
    assert save_peak < 0.25 * size, (save_peak, size)
    assert load_peak < 1.3 * size, (load_peak, size)
    assert all(loaded[k].tobytes() == np.asarray(v).tobytes() for k, v in arrays.items())


def test_field_eval_does_not_mutate_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    path = str(tmp_path / "run" / "policy_final.ckpt")
    before = open(path, "rb").read()
    agent, loaded_cfg = load_policy(path)
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = run_field_test("wrist", PolicyController(agent), spec)
    assert len(rows) == 9
    assert open(path, "rb").read() == before


def test_policy_checkpoint_omits_buffer(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    meta_full, arrays_full = load_checkpoint(str(tmp_path / "run" / "final.ckpt"))
    meta_pol, arrays_pol = load_checkpoint(str(tmp_path / "run" / "policy_final.ckpt"))
    assert "buf_obs" in arrays_full and "buf_obs" not in arrays_pol
    assert meta_pol["kind"] == "policy"
    for meta in (meta_full, meta_pol):
        assert meta["numerics"] == NUMERICS and meta["version"] == "0.1.0"


def test_policy_checkpoint_holds_only_the_actor(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    policy, full = str(tmp_path / "run" / "policy_final.ckpt"), str(tmp_path / "run" / "final.ckpt")
    meta, arrays = load_checkpoint(policy)
    assert list(arrays) == ["actor"]
    assert arrays["actor"].tobytes() == load_checkpoint(full)[1]["actor"].tobytes()
    assert sorted(meta) == ["config", "config_hash", "episode", "kind", "numerics", "version"]
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = [run_field_test("wrist", PolicyController(load_policy(path)[0]), spec)
            for path in (policy, full)]
    assert len(rows[0]) == 9 and rows[0] == rows[1]


def test_policy_load_holds_the_actor_alone(tmp_path):
    # a width-64 trainer holds about 2.5 MB of learner state for a 0.2 MB actor
    path = str(tmp_path / "policy.ckpt")
    Trainer(tiny_cfg(tmp_path, gru_hidden=64)).save(path, include_buffer=False)
    tracemalloc.start()
    try:
        agent, _ = load_policy(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.25 * agent.actor.flat.nbytes, (held, agent.actor.flat.nbytes)
    for name in ("q1", "q2", "q1_target", "q2_target", "log_alpha", "opt_actor", "opt_q1"):
        assert not hasattr(agent, name), name
    restored = Trainer.restore(path)
    assert restored.actor_only and len(restored.buffer) == 0
    full = tmp_path / "full.ckpt"
    with pytest.raises(ValueError, match="policy checkpoint"):
        restored.save(str(full))
    assert not full.exists()


def test_policy_checkpoint_is_the_actor_and_a_small_header(tmp_path):
    # at width 64 the actor is 0.2 MB of the learner's 2.2 MB
    tr = Trainer(tiny_cfg(tmp_path, gru_hidden=64))
    path = tmp_path / "policy.ckpt"
    tr.save(str(path), include_buffer=False)
    assert path.stat().st_size <= tr.agent.actor.flat.nbytes + 8192


def test_trainer_from_a_policy_checkpoint_refuses_to_train(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    rewards_csv = (tmp_path / "run" / "rewards.csv").read_bytes()
    tr = Trainer.restore(str(tmp_path / "run" / "policy_final.ckpt"))
    full = tmp_path / "full.ckpt"
    for call in (tr.train, lambda: tr.save(str(full))):
        with pytest.raises(ValueError, match="policy checkpoint") as info:
            call()
        assert "\n" not in str(info.value)
    assert not full.exists()
    assert (tmp_path / "run" / "rewards.csv").read_bytes() == rewards_csv


def test_restore_names_the_path_and_the_missing_array(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    for src, name in (("final.ckpt", "q2_target"), ("final.ckpt", "opt_alpha_v"),
                      ("final.ckpt", "buf_slots"), ("policy_final.ckpt", "actor")):
        meta, arrays = load_checkpoint(str(tmp_path / "run" / src))
        del arrays[name]
        path = str(tmp_path / f"no_{name}.ckpt")
        save_checkpoint(path, meta, arrays)
        with pytest.raises(ValueError) as info:
            Trainer.restore(path)
        assert path in str(info.value) and repr(name) in str(info.value)
        if src == "final.ckpt":
            assert cli_main(["train", "--resume", path]) == 2
            err = capsys.readouterr().err
            assert repr(name) in err and err.count("\n") == 1


# sha256 of the files that the previous layout's Trainer.save wrote for
# _layout_trainer(): its full checkpoint also stored every reward row, its
# policy checkpoint the whole learner state and the random streams
PREVIOUS_LAYOUT_SHA256 = {
    "full": "3da76df09ceff07502e6adede564da5a7b95d80ce78cd82ddc7a8a3b00c3cac4",
    "policy": "c36b1acf5bbb831623cdbb43586444a6eb669901f70e8a26b2a634c11e3653b6",
}


def _layout_trainer() -> Trainer:
    # 6 PID episodes, then 2 policy episodes with updates, in a ring of 7
    # slots, so some relabels outlive their episode's own slot
    cfg = RunConfig(preset="wrist", seed=11, episodes=8, bootstrap_episodes=6, gru_hidden=8,
                    augment_copies=2, updates_per_episode=2, batch_size=4, buffer_capacity=7,
                    out_dir="unused")
    tr = Trainer(cfg)
    tr.bootstrap_phase()
    for _ in range(2):
        tr.train_episode()
    return tr


def _save_previous_layout(tr: Trainer, path: str, kind: str) -> None:
    agent_meta, arrays = tr.agent.state()
    meta = {"kind": kind, "version": __version__, "numerics": NUMERICS,
            "config": tr.cfg.to_dict(), "config_hash": tr.cfg.config_hash(),
            "episode": tr.episode_idx, **agent_meta,
            "rng": {name: [r.get_state() for r in s] if isinstance(s, list) else s.get_state()
                    for name, s in tr.rng_streams().items()}}
    if kind == "full":
        meta["buffer"], buffer_arrays = tr.buffer.state()
        arrays.update(buffer_arrays)
        slots = tr.buffer._slots
        bases = dict.fromkeys(base for base, _, _ in slots)  # in order of first reference
        arrays["buf_rewards"] = np.stack([base.rewards for base in bases])
        arrays["buf_relabel_rewards"] = np.stack([row for _, target, row in slots
                                                  if target is not None])
    save_checkpoint(path, meta, arrays)


@pytest.mark.parametrize("kind", ["full", "policy"])
def test_previous_layout_restores_to_the_same_state(kind, tmp_path):
    tr = _layout_trainer()
    old = tmp_path / "old.ckpt"
    _save_previous_layout(tr, str(old), kind)
    assert hashlib.sha256(old.read_bytes()).hexdigest() == PREVIOUS_LAYOUT_SHA256[kind]
    restored = Trainer.restore(str(old))
    saved = []
    for t in (tr, restored):
        saved.append(tmp_path / f"{len(saved)}.ckpt")
        t.save(str(saved[-1]), include_buffer=kind == "full")
    assert saved[0].read_bytes() == saved[1].read_bytes()
    assert ([t.rewards.tobytes() for t in restored.buffer.snapshot()]
            == ([t.rewards.tobytes() for t in tr.buffer.snapshot()] if kind == "full" else []))


def _restamped(src, dst, **changes):
    meta, arrays = load_checkpoint(str(src))
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    save_checkpoint(str(dst), meta, arrays)
    return str(dst)


def test_resume_rejects_policy_checkpoint(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    policy = str(tmp_path / "run" / "policy_final.ckpt")
    with pytest.raises(ValueError, match="full checkpoint"):
        Trainer.restore(policy, resume=True)
    assert cli_main(["train", "--resume", policy]) == 2
    assert "full checkpoint" in capsys.readouterr().err
    Trainer.restore(policy)  # a policy checkpoint still rebuilds a trainer


def test_resume_rejects_missing_or_other_numerics(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    full = tmp_path / "run" / "final.ckpt"
    for name, numerics in (("none", None), ("old", NUMERICS - 1)):
        path = _restamped(full, tmp_path / f"{name}.ckpt", numerics=numerics)
        with pytest.raises(ValueError, match="numerics"):
            Trainer.restore(path)
        assert cli_main(["train", "--resume", path]) == 2
        assert "numerics" in capsys.readouterr().err


def test_resume_rejects_old_copy_per_slot_buffer(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    tr = Trainer(cfg)
    tr.train()
    meta, arrays = load_checkpoint(str(tmp_path / "run" / "final.ckpt"))
    # the earlier layout: every slot's trajectory stored in full
    items = list(tr.buffer.snapshot())
    meta["buffer"] = {"count": len(items), "next": tr.buffer._next,
                      "controllers": [t.controller for t in items]}
    arrays = {k: v for k, v in arrays.items() if not k.startswith("buf_")}
    for name in ("obs", "outputs", "actions", "rewards"):
        arrays[f"buf_{name}"] = np.stack([getattr(t, name) for t in items])
    old = str(tmp_path / "old.ckpt")
    save_checkpoint(old, meta, arrays)
    with pytest.raises(ValueError, match="layout"):
        Trainer.restore(old)
    assert cli_main(["train", "--resume", old]) == 2
    err = capsys.readouterr().err
    assert "layout" in err and err.count("\n") == 1


def test_a_config_key_this_code_lacks_is_refused_in_one_line(tmp_path, capsys):
    # a field another code version added or removed, with NUMERICS unchanged
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    for src in ("policy_final.ckpt", "final.ckpt"):
        config = load_checkpoint(str(tmp_path / "run" / src))[0]["config"]
        config.update(old_field=1, b_field=2)
        path = _restamped(tmp_path / "run" / src, tmp_path / f"old_{src}", config=config)
        with pytest.raises(ValueError) as info:
            Trainer.restore(path)
        assert path in str(info.value) and "b_field, old_field" in str(info.value)
        for argv in (["eval-field", "--checkpoint", path], ["episode", "--checkpoint", path],
                     ["train", "--resume", path]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert path in err and "old_field" in err and err.count("\n") == 1, (argv, err)


def test_load_policy_rejects_missing_or_other_numerics(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    policy = tmp_path / "run" / "policy_final.ckpt"
    for name, numerics in (("none", None), ("old", NUMERICS - 1)):
        path = _restamped(policy, tmp_path / f"{name}.ckpt", numerics=numerics)
        with pytest.raises(ValueError, match="numerics"):
            load_policy(path)
    agent, _ = load_policy(str(policy))
    assert np.array_equal(agent.actor.flat, load_checkpoint(str(policy))[1]["actor"])


def test_cli_reports_unusable_checkpoints_in_one_line(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    Trainer(cfg).train()
    blob = (tmp_path / "run" / "final.ckpt").read_bytes()
    stub = tmp_path / "stub.ckpt"
    stub.write_bytes(MAGIC + b"xx")  # 18 bytes: the magic line, then no header
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) // 2])
    missing = tmp_path / "missing.ckpt"
    for path, why in ((stub, "header"), (cut, "truncated"), (missing, "No such file")):
        for argv in (["eval-field", "--checkpoint", str(path)],
                     ["episode", "--checkpoint", str(path)],
                     ["train", "--resume", str(path)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert why in err and err.count("\n") == 1, (argv, err)


def test_resume_rejects_config_flags_but_allows_stop_after(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run")
    Trainer(cfg).train(stop_after=5)
    ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
    before = open(ckpt, "rb").read()
    cfg_file = tmp_path / "other.cfg"
    cfg_file.write_text("seed = 3\n")
    for flags in (["--seed", "3"], ["--episodes", "20"], ["--no-augment"],
                  ["--config", str(cfg_file)]):
        assert cli_main(["train", "--resume", ckpt] + flags) == 2
        assert "takes no config flags" in capsys.readouterr().err
    assert open(ckpt, "rb").read() == before
    assert cli_main(["train", "--resume", ckpt, "--stop-after", "6"]) == 0
    assert Trainer.restore(ckpt).episode_idx == 6


# -- CLI -----------------------------------------------------------------------


def test_cli_episode_log_row_counts(tmp_path, capsys):
    out = tmp_path / "episode.csv"
    rc = cli_main(["episode", "--pid", "--preset", "wrist", "--target1", "4",
                   "--target2", "-3", "--duration", "10", "--out", str(out)])
    assert rc == 0
    lines = [l for l in open(out) if l.strip() and not l.startswith("#")]
    header, data = lines[0], lines[1:]
    assert len(data) == 21  # episode_length + 1 state rows
    n_actions = sum(1 for l in data if l.split(",")[5] != "")
    assert n_actions == 20  # episode_length action rows
    assert data[-1].split(",")[5] == ""  # final row has no action
    cells = [c for l in data for c in l.strip().split(",") if c != ""]
    assert all(math.isfinite(float(c)) for c in cells)  # plain floats, no numpy reprs


def test_cli_train_and_eval_roundtrip(tmp_path):
    out = tmp_path / "cli_run"
    rc = cli_main(["train", "--preset", "wrist", "--seed", "5", "--episodes", "4",
                   "--bootstrap-episodes", "2", "--gru-hidden", "8",
                   "--augment-copies", "0", "--out-dir", str(out)])
    assert rc == 0
    field_csv = tmp_path / "field.csv"
    rc = cli_main(["eval-field", "--checkpoint", str(out / "policy_final.ckpt"),
                   "--duration", "3.0", "--out", str(field_csv)])
    assert rc == 0
    lines = list(open(field_csv))
    assert lines[0].rstrip().endswith(CODE_STAMP)
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 82  # header + 81 targets


def test_checkpoint_evaluation_uses_the_trained_plant(tmp_path):
    # trained at half the wrist's inertia: eval-field and episode must
    # simulate that plant, not the preset's J = 2.4
    cfg = tiny_cfg(tmp_path / "run", episodes=2, bootstrap_episodes=1, plant_inertia=1.2)
    Trainer(cfg).train()
    ckpt = tmp_path / "run" / "policy_final.ckpt"
    preset_ckpt = _restamped(ckpt, tmp_path / "preset.ckpt",
                             config={**cfg.to_dict(), "plant_inertia": None})
    agent, loaded = load_policy(str(ckpt))
    assert loaded.plant_config().J == 1.2
    spec = FieldTestSpec(duration=3.0, settle=3.0)
    want = run_field_test("wrist", PolicyController(agent), spec, plant=loaded.plant_config())
    stock = run_field_test("wrist", PolicyController(agent), spec)
    assert want != stock
    for path, rows in ((str(ckpt), want), (preset_ckpt, stock)):
        out = tmp_path / "field.csv"
        assert cli_main(["eval-field", "--checkpoint", path, "--duration", "3.0",
                         "--out", str(out)]) == 0
        lines = [l for l in open(out) if not l.startswith("#")][1:]
        assert [float(l.split(",")[2]) for l in lines] == [e for _, _, e in rows]
    finals = []
    for path in (str(ckpt), preset_ckpt):
        out = tmp_path / "episode.csv"
        assert cli_main(["episode", "--checkpoint", path, "--duration", "5",
                         "--out", str(out)]) == 0
        text = open(out).read()
        assert text.splitlines()[0].endswith(CODE_STAMP)
        finals.append(text.splitlines()[-1])
    assert finals[0] != finals[1]


def test_cli_episode_is_stamped_with_the_checkpoint_seed(tmp_path):
    # the episode runs the nominal, noiseless plant: no --seed, and the
    # header names the seed the policy was trained with (0 for the PID)
    Trainer(tiny_cfg(tmp_path / "run", episodes=2, bootstrap_episodes=1)).train()
    out = tmp_path / "episode.csv"
    for flags, seed in ((["--checkpoint", str(tmp_path / "run" / "policy_final.ckpt")], 11),
                        (["--pid"], 0)):
        assert cli_main(["episode", "--duration", "3", "--out", str(out)] + flags) == 0
        assert f" seed={seed} " in open(out).readline()
    with pytest.raises(SystemExit):
        cli_main(["episode", "--pid", "--seed", "9"])


def test_cli_calibrate_gate_passes():
    assert cli_main(["calibrate-plant", "--preset", "wrist"]) == 0
    assert cli_main(["calibrate-plant", "--preset", "eye"]) == 0


def test_bench_pairs_summary_counts_wins_and_quartiles(tmp_path):
    pairs_mod = _repo_module("bench_pairs", "scripts", "bench_pairs.py")

    def result(rate, rss, correct=True):
        return {"correct": correct, "metrics": {"episodes_per_calibrated_s": {"value": rate},
                                                "peak_rss_mb": {"value": rss}}}

    pairs = [(result(1.0, 100.0), result(1.1, 100.0)), (result(2.0, 90.0), result(1.5, 80.0)),
             (result(3.0, 110.0), result(3.3, 120.0)), (result(4.0, 100.0), {"correct": False,
                                                                            "metrics": {}}),
             (result(0.0, 0.0, correct=False), result(9.0, 1.0))]
    rows = pairs_mod.summarize(pairs, [("episodes_per_calibrated_s", "higher"),
                                       ("peak_rss_mb", "lower"), ("setup_s", "lower")])
    rate, rss, setup = rows
    # the last two pairs each have a run that is not correct, so they count
    # in no row, although the fifth's runs report every metric
    assert [r["left_out"] for r in rows] == [2, 2, 2]
    assert (rate["n"], rate["wins"]) == (3, 2)
    assert rate["parent"] == (1.5, 2.0, 2.5) and rate["change"] == (1.3, 1.5, 2.4)
    assert (rss["n"], rss["wins"]) == (3, 1)  # a tie is no win
    assert rss["parent"] == (95.0, 100.0, 105.0)
    assert (setup["n"], setup["wins"], setup["parent"]) == (0, 0, None)
    lines = pairs_mod.format_rows(rows)
    assert len(lines) == 4 and "-25.0%" in lines[1] and "2/3" in lines[1]
    assert "not measured" in lines[3]

    for a, b in (("aa", "b"), ("a", "a")):
        for name in (a, b):
            (tmp_path / name / "perfbench").mkdir(parents=True, exist_ok=True)
            (tmp_path / name / "perfbench" / "run.py").touch()
        assert pairs_mod.path_problem(tmp_path / a, tmp_path / b) is not None
        assert pairs_mod.main([str(tmp_path / a), str(tmp_path / b), "--workload",
                               "fieldtest"]) == 2
    (tmp_path / "c" / "perfbench").mkdir(parents=True)
    (tmp_path / "c" / "perfbench" / "run.py").touch()
    assert pairs_mod.path_problem(tmp_path / "a", tmp_path / "c") is None
    assert pairs_mod.path_problem(tmp_path / "a", tmp_path / "d") is not None


def test_bench_pairs_gives_each_metric_a_verdict(tmp_path, monkeypatch, capsys):
    # run_once is stubbed with ten pairs whose metrics land on each verdict
    pairs_mod = _repo_module("bench_pairs", "scripts", "bench_pairs.py")
    for name in ("a", "b"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").touch()
    bounds = {"rate_gain": ("higher", 0.25), "rate_8_of_10": ("higher", 0.25),
              "rss_worse": ("lower", 0.1), "rate_spread": ("higher", 0.1),
              "rate_clear": ("higher", 0.1), "setup_level": ("lower", 0.25)}
    (tmp_path / "b" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [{"name": k, "better": b, "bound": v}
                                         for k, (b, v) in bounds.items()]}))

    def run_once(tree, workload, seed, seconds):
        k, change = seed, tree.name == "b"  # pair k runs seed k
        wide = 150.0 if k % 4 < 2 else 50.0  # the parent's spread is half its median
        values = {"rate_gain": 100.0 + k % 3 + (10.0 if k < 10 else -5.0) * change,
                  "rate_8_of_10": 100.0 + (20.0 if k < 9 else -10.0) * change,
                  "rss_worse": 12.0 if change else 10.0 + 0.1 * (k % 2),  # +20 % > 10 %
                  "rate_spread": wide + change,  # 10 of 10, but inside the IQR
                  "rate_clear": 200.0 if change else wide,  # every run above every run
                  "setup_level": 5.01 if change else 5.0}  # 0.2 % worse, bound 25 %
        return {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}

    monkeypatch.setattr(pairs_mod, "run_once", run_once)
    assert pairs_mod.main([str(tmp_path / "a"), str(tmp_path / "b"),
                           "--workload", "bootstrap"]) == 0
    out = capsys.readouterr().out
    # a gain needs 9 of 10 pairs (rate_gain wins 9, by a median gap of 10
    # against a parent IQR under 2), and a gap beyond the IQR in 8 is none
    want = {"rate_gain": "gain", "rate_8_of_10": "no regression",
            "rss_worse": "worse beyond bound", "rate_spread": "unresolved",
            "rate_clear": "no regression", "setup_level": "no regression"}
    for name, word in want.items():
        assert f"verdict {name} (bound {bounds[name][1]:g}): {word}\n" in out
    assert pairs_mod.verdict({"n": 0}, 0.1) == "not measured"


def test_update_pairs_times_both_trees_and_checks_their_states(tmp_path, capsys):
    # one tree against a copy of itself agrees byte for byte; against a
    # copy whose Adam takes another epsilon, the states differ and the
    # script says so in its exit status
    pairs_mod = _repo_module("update_pairs", "scripts", "update_pairs.py")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("same", "other"):
        shutil.copytree(os.path.join(repo, "src", "musclerl"),
                        tmp_path / name / "src" / "musclerl",
                        ignore=shutil.ignore_patterns("__pycache__"))
    nets = tmp_path / "other" / "src" / "musclerl" / "nets.py"
    text = nets.read_text()
    assert text.count("eps: float = 1e-8") == 1
    nets.write_text(text.replace("eps: float = 1e-8", "eps: float = 1e-6"))
    argv = ["--width", "4", "--rounds", "2", "--updates", "1"]
    assert pairs_mod.main([repo, str(tmp_path / "same")] + argv) == 0
    out = capsys.readouterr().out
    assert "2 rounds of 1 updates" in out and "of 2 rounds" in out
    assert "after 3 updates: byte-identical" in out
    assert pairs_mod.main([repo, str(tmp_path / "other")] + argv) == 1
    assert "DIFFER" in capsys.readouterr().out
    assert pairs_mod.main([repo, repo] + argv) == 2
    assert pairs_mod.main([repo, str(tmp_path / "none")] + argv) == 2


@pytest.mark.parametrize("argv, seeds", [([], [1, 2, 3]), (["--first-seed", "11"], [11, 12, 13])])
def test_bench_pairs_runs_seeds_from_the_first_seed(argv, seeds, tmp_path, monkeypatch, capsys):
    # run_once is stubbed: no benchmark runs, the calls are recorded
    pairs_mod = _repo_module("bench_pairs", "scripts", "bench_pairs.py")
    for name in ("a", "b"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").touch()
    (tmp_path / "b" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7, "end_to_end": [{"name": "setup_s", "better": "lower"}]}))
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        return {"correct": True, "metrics": {"setup_s": {"value": 1.0}}}

    monkeypatch.setattr(pairs_mod, "run_once", run_once)
    assert pairs_mod.main([str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "bootstrap",
                           "--pairs", "3"] + argv) == 0
    order = [("a", "b"), ("b", "a"), ("a", "b")]  # the parent first in odd pairs
    assert calls == [(tree, "bootstrap", seed, 7)
                     for pair, seed in zip(order, seeds) for tree in pair]
    out = capsys.readouterr().out
    assert all(f"pair {k} (seed {seed})" in out for k, seed in enumerate(seeds, 1))
