"""Golden digests of the closed-loop paths that criterion 5 does not cover.

Criterion 5 pins the smoke run (PID bootstrap, then the stochastic policy
with updates). These pin the other drivers of the plant: the uniform-random
warm-up, the stock PID and the deterministic policy in the field test, and
the PID gate behind calibrate-plant. Re-record them, and say so, whenever a
change moves the numbers on purpose (recorded at numerics=2). The rewards
CSV is hashed without its provenance line, whose code stamp is asserted on
its own, so a stamp bump that moves no number leaves the digest alone.
The policy-checkpoint digest (recorded at numerics=3, in the actor-only
layout) also pins the checkpoint's layout: its array names and its meta
keys. The bootstrap
buffer digests (recorded at numerics=3) pin the closed-loop rollout step
itself: PID, action clamp, plant, observation noise and the stored rows,
with randomized muscles, on both presets. The clamped-bootstrap digest
(recorded at numerics=3) pins the plant's substep fallback through the
same path: on a 3 deg travel limit the PID drives the wrist onto the
limit, which the stock 25 deg limit never sees. The eye-training digests
(recorded at numerics=3) pin the eye's action center and half-width in the
policy's act and update; the episode and gate digests pin the stdout of
`musclerl episode --pid` and of `musclerl calibrate-plant` per preset.
The biased-policy digests (recorded at numerics=3, when acting still ran
the learner's T = 1 forward pass) pin every bias of the acting path,
which the zero-bias init leaves out: a width-64 actor with a perturbed
flat through the 9-target field test, and 60 of its stochastic acts. Two
more field-test digests of such actors (recorded at numerics=3, when the
field test still ran its targets one after another) pin the eye's
two-component action and a plant passed as plant= that is not the
preset's.
"""

import hashlib
import json

import numpy as np
import pytest

from musclerl.checkpoint import load_checkpoint
from musclerl.cli import main as cli_main
from musclerl.config import CODE_STAMP, RunConfig
from musclerl.fieldtest import FieldTestSpec, PolicyController, pid_controller_for, run_field_test
from musclerl.plant import configured_plant, wrist_config
from musclerl.randomize import SeededRng
from musclerl.trainer import Trainer

GOLDEN_SHA256 = {
    "no_bootstrap_rewards": "598dac18e44e8ef2114cec4be297d5e08078bb841eb82685d5df8bcea3e6e1be",
    "eye_pid_field_rows": "f7e1f091a41d7402aeef1ea49295b5c82edef5704d29ce54dafb5d0193ae5845",
    "policy_field_rows": "5eeeaadef2b26fc1761fb908fa73dae754dcc52929a084fe4f2a29cd21b0c460",
    "calibrate_scan_wrist": "9f0593fa298e5ec402adaee4df76a1a13c1ec288a82b0a1d2858bb22b658d1da",
    "calibrate_scan_eye": "43e056f1889ac1496400f2e9722b8369b9c29d961d4ddc8149a8f220138c5782",
    "policy_checkpoint": "481126c1a757718710905df76c08de9a18c895b1d4f356ac8c07da8fbff8d46b",
    "bootstrap_buffer_wrist": "e8d9f04be8f9135a924cbc670e489ccd2bc5883df4a05789cc486f53ca49b909",
    "bootstrap_buffer_eye": "32df1603c0c5d3dbaf1c2ef14d4117c9801bc92079f714c27f03d76aca2e0d01",
    "clamped_bootstrap_wrist": "d836b6685affe4debca3c07fca3a961d8ba9e79d2b9eaeb29138ebc1ded8e632",
    "eye_train_rewards": "e542d1a6299e1617b91ecc763ea670719dcadcf2ecccfecd00ce76ea6003ac30",
    "eye_train_losses": "4d477f30316e5aa437918feb5aaa8f89d71bb44b811d5d03f2b4c6ace7348241",
    "episode_pid_wrist": "e011ee60ebbcba381e6da1b76721b345c2e34cd8a4d24d18c82e2548dd2d7d56",
    "episode_pid_wrist_3s": "80da34a7c7cfdd88490c99a96ddfc7129c81c17dc66d62ca5d2bcafb88b67760",
    "episode_pid_eye": "485f3d1ba52f9bbb0043efb9e6d79fa50f4d8bcc57a1cd41a87e08e0b55c633c",
    "episode_pid_eye_3s": "90881a2e21bf29eda023c50080f8bd7a07aa82f219a34a9e072ea1fb5c287e5a",
    "calibrate_gate_wrist": "da978e02295e0cc4c9fa2a0202e0286aefa8a51c1479349c255c4e29f2c515da",
    "calibrate_gate_eye": "f27e0a798f3d05b35bc57fa3e977e6f2cdc526c7392f499506112ddab10d0a30",
    "biased_policy_field_rows": "d6fdf105288dc2264e07816d46498151dd91dcc7a4e5dc4a899bf42100c0d8cf",
    "biased_eye_policy_field_rows": "6cd01d81e2ad7ab836a7dfe64ccf9ea2c19ce54a950ee1f095e7a97ff78be3e1",
    "configured_plant_policy_field_rows": "b98fef37f7c2d67cf3f7ac0c9c6fd7869d4e7d2713d7d9bff46ffdc0927a5ccf",
    "biased_policy_stochastic_acts": "815f1019cbc809aee7d2831bc9060519785ff91034f7f4616114c4794dc7a0ab",
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def test_random_warmup_rewards_digest(tmp_path):
    cfg = RunConfig(preset="wrist", seed=7, episodes=5, bootstrap_episodes=5,
                    no_bootstrap=True, gru_hidden=8, augment_copies=1,
                    out_dir=str(tmp_path / "run"))
    Trainer(cfg).train()
    head, _, rows = open(tmp_path / "run" / "rewards.csv", "rb").read().partition(b"\n")
    assert head.endswith(f" {CODE_STAMP}".encode())
    assert rows.count(b",random,") == 5
    assert _sha(rows) == GOLDEN_SHA256["no_bootstrap_rewards"]


def test_eye_pid_field_rows_digest():
    rows = run_field_test("eye", pid_controller_for("eye"))
    assert len(rows) == 81
    assert _sha(repr(rows)) == GOLDEN_SHA256["eye_pid_field_rows"]


def test_policy_field_rows_digest(tmp_path):
    cfg = RunConfig(preset="wrist", seed=13, gru_hidden=8, out_dir=str(tmp_path))
    agent = Trainer(cfg).agent
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = run_field_test("wrist", PolicyController(agent), spec)
    assert len(rows) == 9
    assert _sha(repr(rows)) == GOLDEN_SHA256["policy_field_rows"]


def _biased_actor_agent(tmp_path, preset="wrist"):
    # width 64 with a seeded perturbation of the whole flat, so the biases
    # b_in, bg and b_out are nonzero, which the zero-bias init never gives
    cfg = RunConfig(preset=preset, seed=13, gru_hidden=64, out_dir=str(tmp_path))
    agent = Trainer(cfg).agent
    flat = agent.actor.flat
    flat += np.random.default_rng(29).normal(scale=0.1, size=flat.size)
    assert all(np.all(agent.actor.v[b] != 0.0) for b in ("b_in", "bg", "b_out"))
    return agent


def test_biased_policy_field_rows_digest(tmp_path):
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = run_field_test("wrist", PolicyController(_biased_actor_agent(tmp_path)), spec)
    assert len(rows) == 9
    assert _sha(repr(rows)) == GOLDEN_SHA256["biased_policy_field_rows"]


def test_biased_eye_policy_field_rows_digest(tmp_path):
    # the eye's two-component action through map_action_eye's signed split
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = run_field_test("eye", PolicyController(_biased_actor_agent(tmp_path, "eye")), spec)
    assert len(rows) == 9
    assert _sha(repr(rows)) == GOLDEN_SHA256["biased_eye_policy_field_rows"]


def test_biased_policy_field_rows_on_a_configured_plant_digest(tmp_path):
    # a plant that is not the preset's, passed as plant=: lighter, stiffer,
    # on longer moment arms
    plant = configured_plant(wrist_config(), inertia=1.2, stiffness=0.6, moment_arm=1.5)
    assert plant != wrist_config()
    spec = FieldTestSpec(extent=5.0, spacing=5.0, duration=3.0, settle=1.0)
    rows = run_field_test("wrist", PolicyController(_biased_actor_agent(tmp_path)), spec,
                          plant=plant)
    assert len(rows) == 9
    assert _sha(repr(rows)) == GOLDEN_SHA256["configured_plant_policy_field_rows"]


def test_biased_policy_stochastic_acts_digest(tmp_path):
    # 60 sampled actions with the hidden state carried, and every hidden state
    agent = _biased_actor_agent(tmp_path)
    obs = np.random.default_rng(30).normal(scale=5.0, size=(60, 6))
    rng = SeededRng(31)
    h = agent.initial_hidden()
    digest = hashlib.sha256()
    for o in obs:
        a, h = agent.act(o, h, rng=rng)
        digest.update(a.tobytes() + h.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256["biased_policy_stochastic_acts"]


def test_calibrate_scan_stdout_digest(capsys):
    for preset in ("wrist", "eye"):
        assert cli_main(["calibrate-plant", "--preset", preset, "--scan"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 10
        assert _sha(out) == GOLDEN_SHA256[f"calibrate_scan_{preset}"]


def test_policy_checkpoint_content_digest(tmp_path):
    # every array's bytes in name order, then the meta as canonical JSON
    # without the artifact location: pins the checkpoint layout itself
    cfg = RunConfig(preset="wrist", seed=5, episodes=5, bootstrap_episodes=3,
                    gru_hidden=8, augment_copies=1, batch_size=4, updates_per_episode=2,
                    out_dir=str(tmp_path / "run"))
    Trainer(cfg).train()
    meta, arrays = load_checkpoint(str(tmp_path / "run" / "policy_final.ckpt"))
    assert meta["kind"] == "policy" and meta["episode"] == 5 and list(arrays) == ["actor"]
    del meta["config"]["out_dir"]
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode() + arrays[name].tobytes())
    digest.update(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == GOLDEN_SHA256["policy_checkpoint"]


def _base_rewards(buffer) -> np.ndarray:
    # the live buffer's base rows in push order; a checkpoint keeps no rewards
    return np.stack([base.rewards for base, target, _ in buffer._slots if target is None])


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_bootstrap_buffer_digest(preset, tmp_path):
    # PID episodes on randomized muscles with observation noise and two
    # relabels each; the digest covers the stored base rows bit for bit,
    # signed zeros included
    cfg = RunConfig(preset=preset, seed=17, episodes=4, bootstrap_episodes=4, gru_hidden=8,
                    augment_copies=2, out_dir=str(tmp_path))
    tr = Trainer(cfg)
    tr.bootstrap_phase()
    meta, arrays = tr.buffer.state()
    assert meta["controllers"] == ["pid"] * 4 and meta["slots"] == 12
    digest = hashlib.sha256()
    for name in ("buf_obs", "buf_outputs", "buf_actions"):
        digest.update(arrays[name].tobytes())
    digest.update(_base_rewards(tr.buffer).tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256[f"bootstrap_buffer_{preset}"]


def test_clamped_bootstrap_buffer_digest(tmp_path):
    # the bootstrap above on configured_plant(wrist_config(), angle_limit=3.0):
    # angles stored exactly on the limit are written only by the clamp in
    # advance()'s substep fallback, so the digest covers that branch
    cfg = RunConfig(preset="wrist", seed=17, episodes=4, bootstrap_episodes=4, gru_hidden=8,
                    augment_copies=2, plant_angle_limit=3.0, out_dir=str(tmp_path))
    tr = Trainer(cfg)
    assert tr.env.nominal.angle_limit == 3.0
    tr.bootstrap_phase()
    meta, arrays = tr.buffer.state()
    assert meta["controllers"] == ["pid"] * 4 and meta["slots"] == 12
    assert np.any(np.abs(arrays["buf_outputs"][..., [0, 2]]) == 3.0)
    digest = hashlib.sha256()
    for name in ("buf_obs", "buf_outputs", "buf_actions"):
        digest.update(arrays[name].tobytes())
    digest.update(_base_rewards(tr.buffer).tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256["clamped_bootstrap_wrist"]


def test_eye_training_csv_digests(tmp_path):
    # the eye's [-10, 10] box enters the agent as its center and half-width,
    # which every stochastic action and every update reads
    cfg = RunConfig(preset="eye", seed=9, episodes=6, bootstrap_episodes=3, gru_hidden=8,
                    augment_copies=1, batch_size=4, updates_per_episode=2,
                    out_dir=str(tmp_path / "run"))
    Trainer(cfg).train()
    for name, n_rows in (("rewards", 7), ("losses", 4)):
        _, _, rows = open(tmp_path / "run" / f"{name}.csv", "rb").read().partition(b"\n")
        assert rows.count(b"\n") == n_rows
        assert _sha(rows) == GOLDEN_SHA256[f"eye_train_{name}"]


@pytest.mark.parametrize("preset", ["wrist", "eye"])
@pytest.mark.parametrize("duration", [None, "3"])
def test_pid_episode_stdout_digest(preset, duration, capsys):
    # the default length is the preset's training episode; 3 s is shorter
    # than the 5 s e_ss window, which then covers the whole episode, as the
    # e_ss line says
    extra = [] if duration is None else ["--duration", duration]
    assert cli_main(["episode", "--pid", "--preset", preset] + extra) == 0
    out = capsys.readouterr().out
    assert f"e_ss over final {duration or 5} s: " in out.splitlines()[-1]
    assert out.count("\n") == ({"wrist": 44, "eye": 34}[preset] if duration is None else 10)
    key = f"episode_pid_{preset}" + ("" if duration is None else "_3s")
    assert _sha(out) == GOLDEN_SHA256[key]


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_calibrate_gate_stdout_digest(preset, capsys):
    assert cli_main(["calibrate-plant", "--preset", preset]) == 0
    out = capsys.readouterr().out
    assert out.endswith("-> PASS\n")
    assert _sha(out) == GOLDEN_SHA256[f"calibrate_gate_{preset}"]
