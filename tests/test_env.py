import re
import tracemalloc

import numpy as np
import pytest

from musclerl.env import (
    ACTION_PERIOD,
    EYE_REWARD,
    PHYSICS_DT,
    PRESETS,
    WRIST_REWARD,
    TrackingEnv,
    map_action_eye,
    reward,
    run_episode,
)
import musclerl.env
from musclerl.fieldtest import pid_controller_for
from musclerl.plant import StepMap
from musclerl.randomize import (
    NO_RANDOMIZATION,
    RandomizationSpec,
    SeededRng,
    sample_muscle_set,
)


class ActionSequence:
    """Controller that plays a fixed sequence of actions to one env."""

    def __init__(self, actions):
        self.actions = actions

    def reset(self, n=1):
        assert n == 1
        self.t = 0

    def act(self, obs, dt=0.5):
        self.t += 1
        return self.actions[self.t - 1][None]


def test_action_map_zero():
    assert np.array_equal(map_action_eye((0.0, 0.0)), np.zeros(4))


def test_action_map_mixed_signs():
    assert np.array_equal(map_action_eye((3.0, -4.0)), np.array([0.0, 3.0, 4.0, 0.0]))


def test_action_map_saturated():
    assert np.array_equal(map_action_eye((-10.0, 10.0)), np.array([10.0, 0.0, 0.0, 10.0]))


def test_action_map_round_trip_and_complementarity():
    a = np.random.default_rng(0).uniform(-10, 10, (100_000, 2))
    v = map_action_eye(a)
    assert v.shape == (100_000, 4)
    assert np.all(v[:, 0] * v[:, 1] == 0.0) and np.all(v[:, 2] * v[:, 3] == 0.0)
    assert np.all(-v[:, 0] + v[:, 1] == a[:, 0])
    assert np.all(-v[:, 2] + v[:, 3] == a[:, 1])
    assert np.all(v >= 0.0) and np.all(v <= 10.0)


def test_reward_perfect_tracking_hits_upper_bound():
    r = reward(EYE_REWARD, np.zeros(4), np.zeros(2), np.zeros(2))
    assert r == 4.0


def test_reward_eye_quadratic_term():
    r = reward(EYE_REWARD, np.array([1.0, 0.0, 1.0, 0.0]), np.zeros(2), np.zeros(2))
    assert r == pytest.approx(-0.1, abs=1e-12)


def test_reward_wrist_with_action_cost():
    y = np.array([2.0, 0.0, 2.0, 0.0])
    r = reward(WRIST_REWARD, y, np.zeros(2), np.array([10.0, 0.0, 0.0]))
    assert r == pytest.approx(-1.4, abs=1e-12)


def test_reward_never_exceeds_two_bonuses():
    rng = np.random.default_rng(1)
    y = rng.uniform(-15, 15, size=(20_000, 4))
    t = rng.uniform(-10, 10, size=(20_000, 2))
    a = rng.uniform(-10, 10, size=(20_000, 3))
    r = reward(WRIST_REWARD, y, t, a)
    assert r.shape == (20_000,) and np.all(r <= 4.0)


def test_reset_with_zero_target_range():
    env = TrackingEnv("eye", SeededRng(0), steps=30, target_range=0.0)
    env.reset()
    assert np.array_equal(env.target, np.zeros((1, 2)))


def test_reset_target_marginals_are_uniform():
    # 100 resets of 100 rows draw the targets of 10,000 single resets
    env = TrackingEnv("wrist", SeededRng(123))
    targets = np.concatenate([env.reset(100)[:, 4:6] for _ in range(100)])
    assert targets.shape == (10_000, 2)
    for axis in range(2):
        x = np.sort(targets[:, axis])
        cdf = (x + 10.0) / 20.0
        emp = np.arange(1, len(x) + 1) / len(x)
        ks = np.max(np.abs(emp - cdf))
        assert ks < 0.02
        assert x[0] >= -10.0 and x[-1] <= 10.0


def test_reset_is_deterministic():
    def fingerprint(seed):
        env = TrackingEnv("wrist", SeededRng(seed))
        obs = env.reset()
        return obs, env.target.copy(), env.step_map.muscles.copy()

    o1, t1, m1 = fingerprint(7)
    o2, t2, m2 = fingerprint(7)
    o3, _, _ = fingerprint(8)
    assert np.array_equal(o1, o2) and np.array_equal(t1, t2) and np.array_equal(m1, m2)
    assert not np.array_equal(o1, o3)


def test_the_steps_th_step_is_the_last_of_an_episode():
    # the preset's steps by default: the steps-th step is the last, one more
    # raises, and so does a step before any reset
    for preset, n_steps in (("eye", 30), ("wrist", 40)):
        env = TrackingEnv(preset, SeededRng(1))
        assert env.steps == n_steps
        assert n_steps * ACTION_PERIOD == pytest.approx(15.0 if preset == "eye" else 20.0)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(env.action_dim))
        env.reset()
        for _ in range(n_steps):
            env.step(np.zeros(env.action_dim))
        assert env.steps_taken == n_steps
        with pytest.raises(RuntimeError):
            env.step(np.zeros(env.action_dim))
        env.reset()
        env.step(np.zeros(env.action_dim))
    short = TrackingEnv("wrist", SeededRng(1), steps=2)
    short.reset()
    short.step(np.zeros(3))
    short.step(np.zeros(3))
    with pytest.raises(RuntimeError):
        short.step(np.zeros(3))


def test_zero_action_zero_target_scores_full_bonus():
    env = TrackingEnv("eye", SeededRng(2), steps=30, target_range=0.0)
    _, _, _, rewards = run_episode(env, ActionSequence(np.zeros((30, 2))))
    rewards = rewards[0]
    assert rewards.shape == (30,)
    for r in rewards:
        assert r == 4.0


def test_observation_layout_and_noise_slots():
    env = TrackingEnv("wrist", SeededRng(3))
    obs = env.reset()
    assert obs.shape == (1, 6)
    assert np.array_equal(obs[:, 4:6], env.target)
    true = env.plant.outputs()
    assert not np.array_equal(obs[:, 0:4], true)  # noise applied to motion slots
    # perturbation is plant output plus noise at the configured scale
    assert np.all(np.abs(obs[:, 0:4] - true) < 6.0 * np.array([0.1, 0.05, 0.1, 0.05]))
    obs2, _, _ = env.step(np.zeros(3))
    assert np.array_equal(obs2[:, 4:6], env.target)


def test_muscle_parameters_constant_within_episode():
    env = TrackingEnv("wrist", SeededRng(4))
    env.reset()
    before = env.step_map.muscles.copy()
    for _ in range(10):
        env.step(np.zeros(3))
    assert np.array_equal(env.step_map.muscles, before)
    env.reset()
    assert not np.array_equal(env.step_map.muscles, before)


def test_episode_determinism_under_fixed_actions():
    def run(seed):
        env = TrackingEnv("eye", SeededRng(seed))
        actions = np.random.default_rng(0).uniform(-10, 10, size=(30, 2))
        rows, _, _, rewards = run_episode(env, ActionSequence(actions))
        return rows[0], rewards[0]

    o1, r1 = run(55)
    o2, r2 = run(55)
    assert np.array_equal(o1, o2)
    assert np.array_equal(r1, r2)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        TrackingEnv("elbow", SeededRng(0))


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_nan_action_component_is_rejected(preset):
    for i in range(2 if preset == "eye" else 3):
        env = TrackingEnv(preset, SeededRng(3))
        env.reset()
        action = np.full(env.action_dim, 5.0)
        action[i] = np.nan
        with pytest.raises(ValueError):
            env.step(action)


def recorded_voltages(monkeypatch):
    """A list that gets a copy of the voltages of every plant advance the env makes."""
    applied = []
    raw = musclerl.env.advance

    def recording(plant, volts):
        applied.append(np.array(volts))
        return raw(plant, volts)

    monkeypatch.setattr(musclerl.env, "advance", recording)
    return applied


def test_signed_zero_actions_keep_their_sign_bits(monkeypatch):
    # recorded from the np.clip implementation: the wrist's array-bound clamp
    # at 0 turns -0.0 into +0.0; the eye's [-10, 10] box keeps -0.0, and its
    # pair map gives zero voltages the signs below
    cases = [
        ("wrist", (-0.0, 0.0, -0.0), [False] * 3, [False] * 3),
        ("wrist", (0.0, -0.0, 0.0), [False] * 3, [False] * 3),
        ("eye", (-0.0, 0.0), [True, False], [False, True, True, False]),
        ("eye", (0.0, -0.0), [False, True], [True, False, False, True]),
    ]
    applied = recorded_voltages(monkeypatch)
    for preset, action, action_signs, volt_signs in cases:
        env = TrackingEnv(preset, SeededRng(3))
        env.reset()
        _, _, clipped = env.step(np.array(action))
        assert np.signbit(clipped).tolist() == [action_signs]
        assert np.signbit(applied[-1]).tolist() == [volt_signs]


@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_step_clamp_matches_array_bound_clip(preset, monkeypatch):
    applied = recorded_voltages(monkeypatch)
    env = TrackingEnv(preset, SeededRng(5))
    low = np.array([-10.0, -10.0]) if preset == "eye" else np.zeros(3)
    high = np.full(env.action_dim, 10.0)
    values = np.array([-0.0, 0.0, -10.0, 10.0, -12.5, 12.5, 3.25, -3.25, -np.inf, np.inf])
    rng = np.random.default_rng(0)
    for k in range(200):
        if k % env.steps == 0:
            env.reset()
        action = rng.choice(values, size=env.action_dim)
        if k % 3 == 0:
            action = action.tolist()
        _, _, clipped = env.step(action)
        expected = np.clip(np.asarray(action, dtype=np.float64), low, high)
        assert clipped.tobytes() == expected.tobytes()
        assert applied[-1].tobytes() == env.map_action(expected).tobytes()


def test_reset_target_pair_matches_two_scalar_draws():
    # one size-2 draw gives the values and the stream state of two scalar draws
    env = TrackingEnv("wrist", SeededRng(9))
    oracle = SeededRng(9).split("target")
    tr = env.target_range
    for _ in range(20):
        env.reset()
        want = np.array([float(oracle.uniform(-tr, tr)), float(oracle.uniform(-tr, tr))])
        assert env.target.dtype == want.dtype and env.target.tobytes() == want.tobytes()
        assert repr(env._target_rng.get_state()) == repr(oracle.get_state())


def _stream_states(env):
    return repr([r.get_state() for r in (env._params_rng, env._target_rng, *env._noise_rngs)])


RESET_SPECS = {
    "default": RandomizationSpec(),
    "shared": RandomizationSpec(shared_across_muscles=True),
    "doubled": RandomizationSpec(variance_multiplier=2.0),
    "none": NO_RANDOMIZATION,
}


@pytest.mark.parametrize("spec", list(RESET_SPECS), ids=list(RESET_SPECS))
@pytest.mark.parametrize("preset", ["wrist", "eye"])
def test_reset_of_n_rows_draws_what_n_single_resets_draw(preset, spec):
    # one draw per stream for n rows: the params, target and each obs-noise
    # stream end where n reset(1) calls leave them, and every row has the
    # muscles, step map, target, noise and first observation of its single
    # reset, byte for byte
    spec = RESET_SPECS[spec]
    env = TrackingEnv(preset, SeededRng(12), randomization=spec)
    serial = TrackingEnv(preset, SeededRng(12), randomization=spec)
    for n in (4, 1, 3):
        obs = env.reset(n)
        sm = env.step_map
        for b in range(n):
            one = serial.reset()
            row = b if sm.rows > 1 else 0
            assert sm.muscles[row:row + 1].tobytes() == serial.step_map.muscles.tobytes()
            assert sm.one[row].tobytes() == serial.step_map.one[0].tobytes()
            assert sm.stack[row].tobytes() == serial.step_map.stack[0].tobytes()
            assert env.target[b].tobytes() == serial.target[0].tobytes()
            assert env._noise[:, b].tobytes() == serial._noise[:, 0].tobytes()
            assert obs[b].tobytes() == one[0].tobytes()
        assert _stream_states(env) == _stream_states(serial)
        assert sm.muscles[-1].tobytes() == serial.step_map.muscles[-1].tobytes()
    assert (sm.rows == 1) == (spec is NO_RANDOMIZATION)


def test_episode_calls_the_traced_plant_names(monkeypatch):
    # the benchmark's per-layer spans wrap these module attributes, so an
    # episode must reach the plant, the muscle draw and the noise through them
    calls = {"advance": 0, "sample_muscle_set": 0, "apply_observation_noise": 0}
    for name in calls:
        raw = getattr(musclerl.env, name)

        def counting(*args, _raw=raw, _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(musclerl.env, name, counting)
    env = TrackingEnv("wrist", SeededRng(4))
    run_episode(env, pid_controller_for("wrist"))
    T = env.steps
    assert calls == {"advance": T, "sample_muscle_set": 1, "apply_observation_noise": T + 1}
    assert T == 40


def test_nan_action_in_one_row_raises_before_any_row_moves():
    # three rows in lockstep: the voltage check covers every row's action
    # before the plant product, so a NaN in one row stops the whole step
    class NanInRowOne:
        def reset(self, n):
            self.t = 0

        def act(self, obs, dt=0.5):
            self.t += 1
            actions = np.full((len(obs), 3), 5.0)
            if self.t == 3:
                actions[1, 2] = np.nan
            return actions

    env = TrackingEnv("wrist", SeededRng(3))
    with pytest.raises(ValueError, match="voltages"):
        run_episode(env, NanInRowOne(), rows=3)
    assert env.steps_taken == 2
    after_two = env.plant.z.copy()
    with pytest.raises(ValueError):
        env.step(np.array([[5.0] * 3, [5.0, 5.0, np.nan], [5.0] * 3]))
    assert env.plant.z.tobytes() == after_two.tobytes()


@pytest.mark.parametrize("spec", ["default", "none"])
def test_targets_replace_the_drawn_targets_of_their_rows(spec):
    # given targets, the env resets one row per target as reset(n) does and
    # then sets the targets: the rows, step map, noise and stream states are
    # a twin's reset(3), byte for byte, and so is the next step
    targets = [(1.0, 2.0), (-3.0, 4.0), (0.5, -0.5)]
    spec = RESET_SPECS[spec]
    env = TrackingEnv("wrist", SeededRng(8), randomization=spec)
    twin = TrackingEnv("wrist", SeededRng(8), randomization=spec)
    obs = env.reset(targets=targets)
    one = twin.reset(3)
    assert obs[:, 4:].tolist() == env.target.tolist() == [list(t) for t in targets]
    assert obs[:, :4].tobytes() == one[:, :4].tobytes()
    for name in ("muscles", "one", "stack"):
        assert getattr(env.step_map, name).tobytes() == getattr(twin.step_map, name).tobytes()
    assert env.step_map.rows == (1 if spec is NO_RANDOMIZATION else 3)
    assert env._channels == twin._channels
    assert env._noise.tobytes() == twin._noise.tobytes()
    assert env.plant.z.tobytes() == twin.plant.z.tobytes()
    assert _stream_states(env) == _stream_states(twin)
    obs2, _, _ = env.step(np.zeros((3, 3)))
    obs1, _, _ = twin.step(np.zeros((3, 3)))
    assert obs2[:, :4].tobytes() == obs1[:, :4].tobytes()


@pytest.mark.parametrize("preset, stable, unstable", [("eye", 250.0, 280.0),
                                                     ("wrist", 2000.0, 2500.0)])
def test_a_multiplier_that_makes_the_substep_unstable_is_refused(preset, stable, unstable):
    # the widest drawable plant's substep is stable at the first multiplier
    # and unstable at the second; at 1e308 its substep matrix overflows
    TrackingEnv(preset, SeededRng(1), randomization=RandomizationSpec(variance_multiplier=stable))
    for m in (unstable, 1e308):
        spec = RandomizationSpec(variance_multiplier=m)
        with pytest.raises(ValueError, match=re.escape(f"{m!r} is too large for the {preset}")):
            TrackingEnv(preset, SeededRng(1), randomization=spec)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("preset, multiplier", [("eye", 250.0), ("wrist", 2000.0)])
def test_draws_at_an_accepted_multiplier_have_stable_substeps(preset, multiplier, shared):
    # 10,000 drawn plants: each substep matrix's state block has spectral
    # radius at most 1 (the held inputs add the eigenvalue 1 to the whole)
    nominal = PRESETS[preset].plant()
    spec = RandomizationSpec(variance_multiplier=multiplier, shared_across_muscles=shared)
    TrackingEnv(preset, SeededRng(0), randomization=spec)
    table = sample_muscle_set(nominal.muscles, spec, SeededRng(6), 10_000)
    n = 4 + nominal.n_muscles
    one = StepMap(nominal, PHYSICS_DT, 1, table).one
    assert np.abs(np.linalg.eigvals(one[:, :n, :n])).max() <= 1.0


def test_a_reset_lets_go_of_the_last_rows_before_it_builds():
    # a 100-row map is a 1 MB stack: a second reset's traced peak is the
    # first's, not the old rows' plus the new build; release() lets go of
    # them without a reset, and the streams do not notice either
    env = TrackingEnv("wrist", SeededRng(3))
    twin = TrackingEnv("wrist", SeededRng(3))
    tracemalloc.start()
    try:
        env.reset(100)
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        env.reset(100)
        second = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second <= 1.1 * first, (first, second)
    env.release()
    assert env.step_map is None and env.plant is None
    with pytest.raises(RuntimeError, match="outside an episode"):
        env.step(np.zeros((100, 3)))
    twin.reset(100)
    twin.reset(100)
    assert env.reset(2).tobytes() == twin.reset(2).tobytes()
    assert _stream_states(env) == _stream_states(twin)
