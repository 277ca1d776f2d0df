from dataclasses import replace

import numpy as np
import pytest

from musclerl.augment import AugmentationSpec, augment_trajectory
from musclerl.config import RunConfig
from musclerl.env import EYE_REWARD, WRIST_REWARD, reward
from musclerl.pid import PidActionPolicy, PidController, PidGains, WRIST_GAINS, gains_for
from musclerl.plant import eye_config, wrist_config
from musclerl.randomize import SeededRng
from musclerl.sac import ReplayBuffer, Trajectory
from musclerl.trainer import Trainer


class StubRng:
    """Fixed sign and Z draws for exact augmentation arithmetic.

    Every relabel's (1 + dim) uniform draw is the sign's (0.25 gives +1,
    0.75 gives -1) and then Z.
    """

    def __init__(self, sign, z):
        self._row = np.concatenate(([0.25 if sign > 0 else 0.75], z))

    def uniform(self, lo=0.0, hi=1.0, size=None):
        return np.broadcast_to(self._row, size).copy()


def random_traj(T=8, action_dim=3, seed=0, target=None):
    rng = np.random.default_rng(seed)
    obs = rng.uniform(-10, 10, size=(T + 1, 6))
    tgt = rng.uniform(-10, 10, size=2) if target is None else np.asarray(target, float)
    obs[:, 4:6] = tgt
    outputs = rng.uniform(-12, 12, size=(T + 1, 4))
    actions = rng.uniform(0, 10, size=(T, action_dim))
    spec = WRIST_REWARD if action_dim == 3 else EYE_REWARD
    rewards = np.array([reward(spec, outputs[t], tgt, actions[t]) for t in range(T)])
    return Trajectory(obs, outputs, actions, rewards)


def augmented_copies(traj, spec, reward_spec, rng):
    """The relabels of traj, as the replay buffer hands them out."""
    (targets,), (rewards,) = augment_trajectory([traj], spec, reward_spec, rng)
    assert targets.shape == (spec.n_copies, 2)
    assert rewards.shape == (spec.n_copies, traj.length)
    buf = ReplayBuffer(capacity=1 + spec.n_copies)
    buf.push(traj, targets, rewards)
    base, *copies = buf.snapshot()
    assert base is traj
    return copies


# -- PID ----------------------------------------------------------------------


def test_pid_zero_error_zero_output():
    pid = PidController(WRIST_GAINS)
    u = pid.commands(np.zeros((1, 2)), 0.5)
    assert np.array_equal(u, np.zeros((1, 2)))


def test_pid_first_step_worked_example():
    pid = PidController(PidGains(kp=3.3, ki=0.5, kd=0.3, output_limit=45.0))
    (u,) = pid.commands(np.array([[1.0, 0.0]]), 0.5)
    assert u[0] == pytest.approx(3.3 + 0.25 + 0.6, abs=1e-12)
    assert u[1] == 0.0


def test_pid_output_always_inside_action_box():
    rng = np.random.default_rng(0)
    eye = PidActionPolicy("eye", eye_config())
    wrist = PidActionPolicy("wrist", wrist_config())
    for _ in range(2000):
        obs = rng.uniform(-60, 60, size=6)
        a_eye = eye.act(obs[None])
        a_wrist = wrist.act(obs[None])
        assert np.all(a_eye >= -10.0) and np.all(a_eye <= 10.0)
        assert np.all(a_wrist >= 0.0) and np.all(a_wrist <= 10.0)


def test_pid_integral_respects_clamp():
    gains = PidGains(kp=1.0, ki=2.0, kd=0.0, output_limit=6.0)  # integral clamp 3
    pid = PidController(gains)
    for _ in range(200):
        pid.commands(np.array([[50.0, -50.0]]), 0.5)
        assert np.all(np.abs(pid.integral) <= 3.0)
    assert pid.integral.tolist() == [[3.0, -3.0]]


@pytest.mark.parametrize("gain", [-1.0, float("nan"), float("inf")])
def test_pid_gains_refuse_a_negative_or_non_finite_gain(gain):
    for name in ("kp", "ki", "kd"):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            replace(WRIST_GAINS, **{name: gain})
    assert replace(WRIST_GAINS, kp=0.0, ki=0.0, kd=0.0).i_clamp == 0.0


class ClipPidOracle:
    """The PID and its action clamps long-hand, on arrays with np.clip's
    scalar bounds: the reference the float controller must equal bit for bit."""

    def __init__(self, preset, plant, gains):
        self.preset, self.gains = preset, gains
        self.integral = np.zeros(2)
        self.prev_error = np.zeros(2)
        self.axis_to_volts = None if preset == "eye" else np.linalg.pinv(plant.routing.T)

    def update(self, error, dt):
        e = np.asarray(error, dtype=np.float64)
        g = self.gains
        self.integral = np.clip(self.integral + e * dt, -g.i_clamp, g.i_clamp)
        u = g.kp * e + g.ki * self.integral + g.kd * (e - self.prev_error) / dt
        self.prev_error = e.copy()
        return np.clip(u, -g.output_limit, g.output_limit)

    def act(self, obs, dt=0.5):
        u = self.update(np.array([obs[4] - obs[0], obs[5] - obs[2]]), dt)
        if self.preset == "eye":
            return np.clip(u, -10.0, 10.0)
        return np.clip(self.axis_to_volts @ u, 0.0, 10.0)


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_pid_clamps_match_clip_oracle_bit_for_bit(preset):
    plant = eye_config() if preset == "eye" else wrist_config()
    stock = gains_for(preset, plant)
    gain_sets = [
        stock,
        PidGains(kp=1.0, ki=4.0, kd=0.2, output_limit=12.0),  # integral clamp 3
        PidGains(kp=2.0, ki=0.0, kd=0.0, output_limit=10.0),  # integral clamp at +-0.0
        PidGains(kp=0.0, ki=0.0, kd=0.0, output_limit=10.0),  # signed-zero commands
    ]
    # errors that drive both clamps of the integral, the axis command and the
    # action box, plus exact and signed zeros (obs[4] - obs[0] of -0.0 - 0.0)
    values = [-0.0, 0.0, 0.5, -0.5, 4.0, -4.0, 25.0, -25.0, 80.0, -80.0]
    low = -10.0 if preset == "eye" else 0.0
    rng = np.random.default_rng(1)
    hit = set()
    for gains in gain_sets:
        policy = PidActionPolicy(preset, plant, gains)
        oracle = ClipPidOracle(preset, plant, gains)
        policy.reset()
        for _ in range(300):
            obs = np.zeros(6)
            obs[4], obs[5] = rng.choice(values, size=2)
            if rng.uniform() < 0.3:
                obs[0], obs[2] = -obs[4], -obs[5]
            a = policy.act(obs[None], dt=0.5)[0]
            expected = oracle.act(obs, dt=0.5)
            assert a.tobytes() == expected.tobytes()
            assert policy.pid.integral[0].tobytes() == oracle.integral.tobytes()
            hit.update(("low" if x == low else "high" if x == 10.0 else "in") for x in a)
            hit.update("negzero" for x in a if x == 0.0 and np.signbit(x))
    assert {"low", "high", "in"} <= hit
    if preset == "eye":  # the eye's box passes a -0.0 command through
        assert "negzero" in hit


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_pid_rows_in_one_call_equal_each_row_alone(preset):
    # a lockstep batch of rows against one single-row policy per row
    plant = eye_config() if preset == "eye" else wrist_config()
    rng = np.random.default_rng(4)
    batch = PidActionPolicy(preset, plant)
    batch.reset(7)
    alone = [PidActionPolicy(preset, plant) for _ in range(7)]
    for _ in range(40):
        obs = rng.uniform(-40.0, 40.0, size=(7, 6))
        obs[rng.uniform(size=(7, 6)) < 0.2] = -0.0
        got = batch.act(obs)
        want = np.concatenate([p.act(o[None]) for p, o in zip(alone, obs)])
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        batch.act(obs[:6])


def test_pid_controller_update_matches_clip_oracle_at_both_clamps():
    gains = PidGains(kp=3.0, ki=3.0, kd=0.4, output_limit=6.0)  # integral clamp 2
    pid = PidController(gains)
    oracle = ClipPidOracle("eye", eye_config(), gains)
    errors = [(40.0, -40.0), (40.0, -40.0), (-0.0, 0.0), (-3.0, 3.0), (0.0, -0.0),
              (-40.0, 40.0), (1e-300, -1e-300), (0.25, -0.25)]
    for e in errors:  # dt = 0.3, not a power of two, so the operation order shows
        u = pid.commands(np.array([e]), 0.3)
        expected = oracle.update(np.array(e), 0.3)
        assert np.asarray(u).tobytes() == expected.tobytes()
        assert np.asarray(pid.integral).tobytes() == oracle.integral.tobytes()
    assert np.abs(oracle.integral).max() <= 2.0


def test_pid_default_integral_clamp_saturates_output():
    g = gains_for("wrist", wrist_config())
    assert g.i_clamp == pytest.approx(g.output_limit / g.ki)


def test_pid_gain_scaling():
    g = gains_for("eye", eye_config(), scale=2.0)
    assert (g.kp, g.ki, g.kd) == (4.2, 0.4, 1.0)


# -- augmentation -------------------------------------------------------------


def test_zero_delta_reproduces_original_exactly():
    traj = random_traj(seed=1)
    spec = AugmentationSpec(n_copies=4, delta=0.0)
    copies = augmented_copies(traj, spec, WRIST_REWARD, SeededRng(0))
    assert len(copies) == 4
    for c in copies:
        assert np.array_equal(c.obs, traj.obs)
        assert np.array_equal(c.rewards, traj.rewards)
        assert np.array_equal(c.actions, traj.actions)


def test_target_shift_worked_example():
    traj = random_traj(seed=2, target=(5.0, 5.0))
    spec = AugmentationSpec(n_copies=1, delta=2.0)
    (copy,) = augmented_copies(traj, spec, WRIST_REWARD, StubRng(+1.0, (1.0, 0.5)))
    assert np.array_equal(copy.obs[0, 4:6], [7.0, 6.0])
    assert np.all(copy.obs[:, 4:6] == [7.0, 6.0])
    # motion components bit-identical
    assert np.array_equal(copy.obs[:, :4], traj.obs[:, :4])
    assert np.array_equal(copy.outputs, traj.outputs)
    assert np.array_equal(copy.actions, traj.actions)


def test_target_shift_clamps_to_range():
    traj = random_traj(seed=3, target=(9.5, -9.5))
    spec = AugmentationSpec(n_copies=1, delta=2.0)
    (up,) = augmented_copies(traj, spec, WRIST_REWARD, StubRng(+1.0, (1.0, 1.0)))
    assert np.array_equal(up.obs[0, 4:6], [10.0, -7.5])
    (down,) = augmented_copies(traj, spec, WRIST_REWARD, StubRng(-1.0, (1.0, 1.0)))
    assert np.array_equal(down.obs[0, 4:6], [7.5, -10.0])


def check_augmented_rewards_against_oracle(action_dim, reward_spec, q, ra, th):
    # independent recomputation, written out long-hand
    def oracle(outputs_row, target, action, q, ra, th, bonus):
        e0 = abs(target[0] - outputs_row[0])
        e1 = abs(0.0 - outputs_row[1])
        e2 = abs(target[1] - outputs_row[2])
        e3 = abs(0.0 - outputs_row[3])
        cost = q[0] * e0 * e0 + q[1] * e1 * e1 + q[2] * e2 * e2 + q[3] * e3 * e3
        for i in range(len(action)):
            cost += ra[i] * action[i] * action[i]
        b = 0.0
        if e0 < th:
            b += bonus
        if e2 < th:
            b += bonus
        return -cost + b

    rng = SeededRng(42)
    spec = AugmentationSpec(n_copies=3, delta=2.0)
    for case in range(100):
        traj = random_traj(T=6, action_dim=action_dim, seed=case)
        for copy in augmented_copies(traj, spec, reward_spec, rng):
            tgt = copy.obs[0, 4:6]
            for t in range(copy.length):
                expected = oracle(copy.outputs[t], tgt, copy.actions[t], q, ra, th, 2.0)
                assert copy.rewards[t] == expected  # bit-exact


def test_augmented_rewards_match_brute_force_oracle():
    check_augmented_rewards_against_oracle(
        3, WRIST_REWARD, (0.05, 0.2, 0.05, 0.2), (0.01, 0.01, 0.01), 0.5)


def test_augmented_rewards_match_brute_force_oracle_eye():
    check_augmented_rewards_against_oracle(
        2, EYE_REWARD, (0.05, 0.25, 0.05, 0.25), (0.01, 0.01), 0.3)


def test_single_target_per_trajectory():
    traj = random_traj(T=10, seed=5)
    rng = SeededRng(7)
    for copy in augmented_copies(traj, AugmentationSpec(n_copies=8), WRIST_REWARD, rng):
        targets = copy.obs[:, 4:6]
        assert np.all(targets == targets[0])


def per_copy_relabels(trajs, spec, reward_spec, rng):
    """The relabels drawn the long way: per episode, each copy's sign, then its Z.

    A sign is one scalar uniform draw: +1 below 0.5, else -1.

    Returns (targets (B, K, 2), rewards (B, K, T)), each copy scored alone.
    """
    tr, targets, rewards = spec.target_range, [], []
    for traj in trajs:
        for _ in range(spec.n_copies):
            sign = 1.0 if rng.gen.uniform() < 0.5 else -1.0
            z = rng.uniform(0.0, 1.0, size=2)
            target = np.clip(traj.target + sign * spec.delta * z, -tr, tr)
            targets.append(target)
            rewards.append(reward(reward_spec, traj.outputs[:-1], target, traj.actions))
    B, K, T = len(trajs), spec.n_copies, trajs[0].length
    return (np.array(targets).reshape(B, K, 2), np.array(rewards).reshape(B, K, T))


@pytest.mark.parametrize("n_copies, delta", [(10, 2.0), (3, 0.0), (1, 7.5), (0, 2.0)])
@pytest.mark.parametrize("episodes", [1, 5])
def test_batched_relabels_equal_per_copy_draws(n_copies, delta, episodes):
    # one uniform draw for all the episodes' relabels gives every sign, Z,
    # target and reward of one sign and one Z draw per copy in turn, and
    # leaves the augment stream where those draws leave it (n_copies = 0
    # draws nothing)
    spec = AugmentationSpec(n_copies=n_copies, delta=delta)
    got_rng, want_rng = SeededRng(17).split("augment"), SeededRng(17).split("augment")
    untouched = repr(got_rng.get_state())
    for call in range(3):
        trajs = [random_traj(T=7, seed=10 * call + b) for b in range(episodes)]
        trajs[-1].obs[:, 4:6] = (9.5, -9.9)  # near the range edge: the clip engages
        got = augment_trajectory(trajs, spec, WRIST_REWARD, got_rng)
        want = per_copy_relabels(trajs, spec, WRIST_REWARD, want_rng)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert repr(got_rng.get_state()) == repr(want_rng.get_state())
    assert (repr(got_rng.get_state()) == untouched) == (n_copies == 0)
    if delta == 0.0:  # every relabel keeps its episode's target
        bases = np.stack([traj.target for traj in trajs])[:, None]
        assert np.array_equal(got[0], np.broadcast_to(bases, got[0].shape))


def test_relabel_keeps_controller():
    traj = random_traj(seed=6)
    traj.controller = "pid"
    (out,) = augmented_copies(traj, AugmentationSpec(n_copies=1), WRIST_REWARD, SeededRng(6))
    assert out.controller == "pid"


def test_invalid_augmentation_spec():
    with pytest.raises(ValueError):
        AugmentationSpec(n_copies=-1)
    with pytest.raises(ValueError):
        AugmentationSpec(delta=-0.1)


# -- bootstrap phase ----------------------------------------------------------


def tiny_cfg(**kw):
    base = dict(preset="wrist", seed=3, episodes=6, bootstrap_episodes=3,
                gru_hidden=8, augment_copies=2, out_dir="/tmp/musclerl-test-bootstrap")
    base.update(kw)
    return RunConfig(**base)


def test_bootstrap_zero_episodes_leaves_buffer_empty():
    tr = Trainer(tiny_cfg(bootstrap_episodes=0))
    tr.bootstrap_phase()
    assert len(tr.buffer) == 0


def test_bootstrap_fills_buffer_with_n_plus_one_per_episode():
    tr = Trainer(tiny_cfg())
    tr.bootstrap_phase()
    assert tr.episode_idx == 3
    assert len(tr.buffer) == 3 * (2 + 1)
    tags = [t.controller for t in tr.buffer.snapshot()]
    assert set(tags) == {"pid"}


def test_bootstrap_phase_lets_go_of_its_last_rows():
    # the phase's last call's map and plant do not outlive the phase; the
    # next episode resets the env as it would have anyway
    tr = Trainer(tiny_cfg())
    tr.bootstrap_phase()
    assert tr.env.step_map is None and tr.env.plant is None
    tr.train_episode()
    assert tr.env.plant is not None


def test_bootstrap_random_mode_when_disabled():
    tr = Trainer(tiny_cfg(no_bootstrap=True))
    tr.bootstrap_phase()
    assert {t.controller for t in tr.buffer.snapshot()} == {"random"}


def test_stored_rewards_match_recomputation_from_outputs():
    tr = Trainer(tiny_cfg())
    tr.bootstrap_phase()
    for traj in tr.buffer.snapshot():
        tgt = traj.obs[0, 4:6]
        for t in range(traj.length):
            assert traj.rewards[t] == reward(WRIST_REWARD, traj.outputs[t], tgt,
                                             traj.actions[t])
