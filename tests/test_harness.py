import math
import os

import numpy as np
import pytest

from musclerl.checkpoint import load_checkpoint, save_checkpoint
from musclerl.cli import main as cli_main
from musclerl.config import CODE_STAMP, NUMERICS, RunConfig, load_config, parse_config_file
from musclerl.fieldtest import (
    FieldTestSpec,
    PolicyController,
    field_spec_for,
    grid_targets,
    run_field_test,
    steady_state_error,
    summarize,
)
from musclerl.trainer import Trainer, load_policy


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


def test_config_override_precedence(tmp_path, monkeypatch):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 1\npreset = eye\n")
    monkeypatch.setenv("MUSCLERL_SEED", "2")
    cfg = load_config(str(p))
    assert cfg.seed == 2 and cfg.preset == "eye"  # env beats file, seed only
    cfg = load_config(str(p), overrides={"seed": 3})
    assert cfg.seed == 3  # CLI beats env


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


def test_config_hash_ignores_out_dir_only():
    a = RunConfig(out_dir="x")
    b = RunConfig(out_dir="y")
    c = RunConfig(out_dir="x", seed=5)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_plant_overrides_from_config_file(tmp_path):
    from musclerl.trainer import Trainer

    p = tmp_path / "plant.cfg"
    p.write_text(
        "preset = wrist\nepisodes = 1\nbootstrap_episodes = 1\ngru_hidden = 8\n"
        "plant_moment_arm = 2.5\nplant_damping = 4.0\nplant_rest_length = 8.0\n"
        f"out_dir = {tmp_path / 'run'}\n"
    )
    cfg = load_config(str(p))
    tr = Trainer(cfg)
    plant = tr.env.nominal
    assert plant.r == 2.5 and plant.d == 4.0
    assert plant.muscles[0].x0 == 8.0
    assert abs(plant.routing[0, 0] - 2.5) < 1e-12


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


def test_teleporting_oracle_scores_zero():
    spec = FieldTestSpec()

    def oracle_runner(preset, sp, controller, target):
        return np.tile(np.asarray(target), (sp.steps, 1))

    rows = run_field_test("wrist", controller=None, spec=spec, episode_runner=oracle_runner)
    assert all(e == 0.0 for _, _, e in rows)


def test_constant_offset_scores_sqrt_two():
    spec = FieldTestSpec()

    def offset_runner(preset, sp, controller, target):
        return np.tile(np.asarray(target) + 1.0, (sp.steps, 1))

    rows = run_field_test("wrist", controller=None, spec=spec, episode_runner=offset_runner)
    for _, _, e in rows:
        assert e == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_steady_state_error_uses_final_window_only():
    angles = np.zeros((50, 2))
    angles[:40] = 100.0  # junk outside the settle window
    assert steady_state_error(angles, (0.0, 0.0), 10) == 0.0


def test_summary_statistics():
    rows = [(0, 0, float(v)) for v in range(1, 10)]
    s = summarize(rows)
    assert s["count"] == 9 and s["median"] == 5.0 and s["mean"] == 5.0


# -- trainer artifacts ---------------------------------------------------------


def test_training_artifacts_and_tags(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    tr = Trainer(cfg)
    tr.train()
    lines = [l.strip() for l in open(tmp_path / "run" / "rewards.csv")]
    assert lines[0].startswith("# musclerl config_sha256=") and "seed=11" in lines[0]
    assert lines[0].endswith(" version=0.1.0 numerics=2") and CODE_STAMP in lines[0]
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


def test_run_determinism_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = tiny_cfg(tmp_path / name)
        Trainer(cfg).train()
        outs.append((open(tmp_path / name / "rewards.csv", "rb").read(),
                     open(tmp_path / name / "losses.csv", "rb").read()))
    assert outs[0] == outs[1]


def test_resume_equivalence_bytes(tmp_path):
    ref = tiny_cfg(tmp_path / "straight")
    Trainer(ref).train()
    part = tiny_cfg(tmp_path / "resumed")
    Trainer(part).train(stop_after=5)
    tr = Trainer.restore(str(tmp_path / "resumed" / "checkpoint.ckpt"))
    tr.train()
    assert (open(tmp_path / "straight" / "rewards.csv", "rb").read()
            == open(tmp_path / "resumed" / "rewards.csv", "rb").read())
    assert (open(tmp_path / "straight" / "losses.csv", "rb").read()
            == open(tmp_path / "resumed" / "losses.csv", "rb").read())


def test_resume_after_crash_trims_stale_log_rows(tmp_path):
    ref = tiny_cfg(tmp_path / "straight")
    Trainer(ref).train()
    part = tiny_cfg(tmp_path / "crashed")
    Trainer(part).train(stop_after=5)
    # simulate rows written after the last checkpoint (crash before saving)
    with open(tmp_path / "crashed" / "rewards.csv", "a") as fh:
        fh.write("6,policy,40,0.0,0.0\n7,policy,40,0.0,0.0\n")
    tr = Trainer.restore(str(tmp_path / "crashed" / "checkpoint.ckpt"))
    assert tr.episode_idx == 5
    tr.train()
    assert (open(tmp_path / "straight" / "rewards.csv", "rb").read()
            == open(tmp_path / "crashed" / "rewards.csv", "rb").read())


def test_nonfinite_losses_abort_with_diagnostics(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", batch_size=4)
    tr = Trainer(cfg)

    def explode(batch, gamma):
        raise FloatingPointError("non-finite losses in update: test")

    tr.agent.update = explode
    with pytest.raises(FloatingPointError):
        tr.train()
    dump = tmp_path / "run" / "abort.json"
    assert dump.exists()
    assert "episode" in dump.read_text()


def test_checkpoint_roundtrip_is_byte_stable(tmp_path):
    cfg = tiny_cfg(tmp_path / "run", episodes=4)
    tr = Trainer(cfg)
    tr.train()
    path = tmp_path / "run" / "final.ckpt"
    meta, arrays = load_checkpoint(str(path))
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(str(resaved), meta, arrays)
    assert open(path, "rb").read() == open(resaved, "rb").read()


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


def test_cli_calibrate_gate_passes():
    assert cli_main(["calibrate-plant", "--preset", "wrist"]) == 0
    assert cli_main(["calibrate-plant", "--preset", "eye"]) == 0
