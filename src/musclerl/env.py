"""Episode-level MDP wrapper around a plant: targets, actions, rewards.

The agent-visible observation is the 6-vector

    [angle1, rate1, angle2, rate2, target1, target2]   (deg, deg/s)

with measurement noise on the four motion components only; the target is a
per-episode constant pose. The reward is a quadratic tracking cost plus a
bonus per axis inside a small error threshold,

    r = -(e.T Qe e + a.T Ra a) + bonus_value * (1{|e1|<th} + 1{|e2|<th})

computed on the noiseless output at the state where the action was taken,
so the same reward can be recomputed exactly from logged trajectories.
reward() is elementwise over leading axes, so one call scores a whole
episode, or a whole episode under many relabelled targets. An env holds
rows: reset(n) starts n episodes and step() advances all of them with one
plant product; it returns the next observations and the outputs and
clipped actions that reward() scores, but no reward. run_episode() is the
one closed loop every driver of the plant runs: one env's rows in
lockstep, with one controller call and one step per action for all of
them (training and the episode command run one row; the PID
demonstrations run many episodes of the training env, the field test one
row per target), and it scores the episodes in one reward() call after
its loop. Episodes end at the time limit of `steps` actions, never by
failure. PRESETS holds each number that differs between the eye and the
wrist, from the plant and reward to the training schedule.

step() clamps the actions to the box as np.clip with array bounds does:
np.minimum(np.maximum(a, low), high) against the env's read-only bound
arrays, which turns -0.0 into +0.0 at a 0.0 bound and passes NaN through,
so a NaN action ends in advance()'s ValueError. Every per-row operation
of a step (the clamp, the eye's voltage map, the voltage check, the
output gather, the observation noise) is one whole-array operation whose
every element is the value the scalar form gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .plant import PlantConfig, PlantRows, StepMap, advance, eye_config, wrist_config
from .randomize import (
    RANDOMIZED_NAMES,
    RandomizationSpec,
    SeededRng,
    apply_observation_noise,
    draw_observation_noise,
    sample_muscle_set,
)

OBS_DIM = 6
TARGET_SLICE = slice(4, 6)


@dataclass(frozen=True)
class RewardSpec:
    """Diagonal weights and bonus law of the tracking reward."""

    q_e: tuple[float, float, float, float]
    r_a: tuple[float, ...]
    bonus_threshold: float
    bonus_value: float = 2.0

    def __post_init__(self):
        if any(q < 0 for q in self.q_e) or any(r < 0 for r in self.r_a):
            raise ValueError("reward weights must be nonnegative")


ACTION_PERIOD = 0.5  # s between actions
PHYSICS_DT = 0.01    # s per plant substep
SUBSTEPS = round(ACTION_PERIOD / PHYSICS_DT)


EYE_REWARD = RewardSpec(q_e=(0.05, 0.25, 0.05, 0.25), r_a=(0.01, 0.01), bonus_threshold=0.3)
WRIST_REWARD = RewardSpec(q_e=(0.05, 0.2, 0.05, 0.2), r_a=(0.01, 0.01, 0.01), bonus_threshold=0.5)


@dataclass(frozen=True)
class Preset:
    """Everything that tells one robot from the other, each number once.

    steps is a training episode's action count; the action box is
    [action_low, 10] per component; episodes and bootstrap are the training
    schedule's N and M; field_duration is a field-test episode (s); rise_band
    is the rise time (s) calibrate-plant accepts for the stock PID.
    """

    plant: Callable[[], PlantConfig]
    reward: RewardSpec
    steps: int
    action_low: float
    action_dim: int
    episodes: int
    bootstrap: int
    field_duration: float
    rise_band: tuple[float, float]


PRESETS = {
    "eye": Preset(eye_config, EYE_REWARD, steps=30, action_low=-10.0, action_dim=2,
                  episodes=2000, bootstrap=250, field_duration=15.0, rise_band=(3.5, 6.5)),
    "wrist": Preset(wrist_config, WRIST_REWARD, steps=40, action_low=0.0, action_dim=3,
                    episodes=3500, bootstrap=500, field_duration=25.0, rise_band=(5.0, 15.0)),
}


def refuse_unstable_draws(nominal: PlantConfig, spec: RandomizationSpec) -> None:
    """Raise ValueError if spec's widest plant has a non-finite or unstable RK4 substep.

    The widest plant has k, b, c, lambda_ and R at their interval's high
    end and C_th at its low end. The held q and e of the substep matrix
    map to themselves, so its spectral radius is that of its state block
    (angles, rates, temperature rises), or 1. A multiplier of 0 draws the
    nominal plant and is not checked.
    """
    if spec.variance_multiplier == 0.0:
        return
    lo, hi = spec.effective_intervals()
    c_th = RANDOMIZED_NAMES.index("C_th")
    scale = np.append(hi, 1.0)  # T_amb is never scaled
    scale[c_th] = lo[c_th]
    n = 4 + nominal.n_muscles
    with np.errstate(all="ignore"):  # a huge multiplier overflows: refused below
        one = StepMap(nominal, PHYSICS_DT, 1, (nominal.muscles * scale)[None]).one[0, :n, :n]
    if not (np.isfinite(one).all() and np.abs(np.linalg.eigvals(one)).max() <= 1.0):
        raise ValueError(f"variance_multiplier {spec.variance_multiplier!r} is too large for "
                         f"the {nominal.name} plant: the widest muscles it can draw make the "
                         f"{PHYSICS_DT} s RK4 substep unstable")


def map_action_eye(a) -> np.ndarray:
    """Signed pair commands (..., 2) -> voltages (..., 4), one muscle per pair powered.

    a1 = -V1 + V2 and a2 = -V3 + V4 with V1 V2 = V3 V4 = 0; components are
    clamped to [-10, 10] on entry. V1 = -min(a1, 0) and V2 = max(a1, 0) as
    Python's min and max give them, so a zero component keeps its sign in
    V2 and flips it in V1, and NaN passes through.
    """
    a = np.minimum(np.maximum(a, -10.0), 10.0)
    v = np.empty(a.shape[:-1] + (4,))
    v[..., 0::2] = -np.where(a > 0.0, 0.0, a)
    v[..., 1::2] = np.where(a < 0.0, 0.0, a)
    return v


def reward(spec: RewardSpec, y, y_star, a):
    """Tracking reward for true output y, target pose y_star, action a.

    Arrays y (..., 4) = [angle1, rate1, angle2, rate2], y_star (..., 2) and
    a (..., A); leading axes broadcast and the result has their shape.
    Rate targets are zero (static poses). The operations run in a fixed
    order (abs, the cost terms left to right, then the action terms, then
    -cost + bonus), so every element is bit-identical to scalar arithmetic
    in that order, and recomputation is bit-exact.
    """
    e0 = np.abs(y_star[..., 0] - y[..., 0])
    e1 = np.abs(0.0 - y[..., 1])
    e2 = np.abs(y_star[..., 1] - y[..., 2])
    e3 = np.abs(0.0 - y[..., 3])
    q = spec.q_e
    cost = q[0] * e0 * e0 + q[1] * e1 * e1 + q[2] * e2 * e2 + q[3] * e3 * e3
    for i, ra in enumerate(spec.r_a):
        cost = cost + ra * a[..., i] * a[..., i]
    bonus = (np.where(e0 < spec.bonus_threshold, spec.bonus_value, 0.0)
             + np.where(e2 < spec.bonus_threshold, spec.bonus_value, 0.0))
    return -cost + bonus


class TrackingEnv:
    """An environment of lockstep rows, each one episode of a named plant preset.

    An episode is `steps` actions (the preset's by default) toward a target
    drawn uniformly on +-target_range deg per axis. reset(n) starts n
    episodes with one draw per stream for all of them: the rows' muscle
    table (n, m, 7), which stays fixed for the episode, their targets, and
    each observation-noise channel for all their steps. Each draw gives the
    values, in episode order, and leaves the stream state of n resets in
    turn. Each reset builds one plant StepMap in one pass: of n rows, or of
    one row that every row shares when all rows have the same muscles
    (variance multiplier 0). step() then advances every row by one action
    with one plant product (plant.advance). A reset first lets go of the
    last rows' map, plant and noise draws, and release() lets go of them
    without starting new rows; a 100-row map is a 1 MB stack. All
    randomness flows through named child streams of the seed rng, so
    trajectories are reproducible.
    A randomization too wide for the RK4 substep is refused when the env is
    built (refuse_unstable_draws).
    """

    def __init__(
        self,
        preset: str,
        rng: SeededRng,
        steps: int | None = None,
        target_range: float = 10.0,
        randomization: RandomizationSpec | None = None,
        plant_config: PlantConfig | None = None,
    ):
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        p = PRESETS[preset]
        self.preset = preset
        self.nominal = plant_config if plant_config is not None else p.plant()
        self.steps = p.steps if steps is None else steps
        self.target_range = target_range
        self.randomization = randomization if randomization is not None else RandomizationSpec()
        refuse_unstable_draws(self.nominal, self.randomization)
        self.reward_spec = p.reward
        self.action_dim = p.action_dim
        self.action_low = np.full(p.action_dim, p.action_low)
        self.action_high = np.full(p.action_dim, 10.0)
        self.action_low.flags.writeable = self.action_high.flags.writeable = False
        self._params_rng = rng.split("muscle-params")
        self._target_rng = rng.split("target")
        self._noise_rngs = [rng.split(f"obs-noise/{i}") for i in range(4)]
        self.step_map: StepMap | None = None
        self.plant: PlantRows | None = None
        self.target = np.zeros((1, 2))
        self.steps_taken = 0

    def map_action(self, a) -> np.ndarray:
        """The voltages of clipped actions (..., A): the wrist's are the actions themselves."""
        return map_action_eye(a) if self.preset == "eye" else a

    # -- episode lifecycle ------------------------------------------------

    def reset(self, n: int = 1, targets=None) -> np.ndarray:
        """Start n fresh episodes, one per row; returns their (n, 6) initial observations.

        Every stream makes one draw for the n rows, and the drawn muscles
        get a new StepMap (see the class docstring). With targets ((B, 2)
        poses, deg), n is B and the targets replace the drawn ones, row for
        row.
        """
        if targets is not None:
            targets = np.array(targets, dtype=np.float64).reshape(-1, 2)
            n = len(targets)
        self.release()
        tr = self.target_range
        muscles = sample_muscle_set(self.nominal.muscles, self.randomization,
                                    self._params_rng, n)
        self.step_map = StepMap(self.nominal, PHYSICS_DT, SUBSTEPS,
                                muscles if (muscles != muscles[0]).any() else muscles[:1])
        drawn = self._target_rng.uniform(-tr, tr, size=(n, 2))
        self._channels, self._noise = draw_observation_noise(self.randomization,
                                                             self._noise_rngs, self.steps + 1, n)
        self.target = drawn if targets is None else targets
        self.plant = PlantRows(self.step_map, n)
        self.steps_taken = 0
        return self._observe()

    def release(self) -> None:
        """Let go of the rows' map, plant and noise draws; step() then needs a reset()."""
        self.step_map = self.plant = None
        self._channels = self._noise = None

    def _observe(self) -> np.ndarray:
        obs = np.empty((len(self.target), OBS_DIM))
        obs[:, :4] = self.plant.outputs()
        obs[:, TARGET_SLICE] = self.target
        apply_observation_noise(obs, self._channels, self._noise[self.steps_taken])
        return obs

    def step(self, actions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply one action per row for one action period.

        actions is (n, A), or (A,) with one row. Returns (next_obs (n, 6),
        outputs (n, 4), actions (n, A)): the noiseless outputs at which the
        actions were taken and the clipped actions, which are what reward()
        scores. The clamp is np.clip's with array bounds, as the module
        docstring says; the wrist's voltages are the clipped action array
        itself. A step before any reset, or after the episode's `steps`
        actions, raises RuntimeError.
        """
        if self.plant is None or self.steps_taken >= self.steps:
            raise RuntimeError("step() called outside an episode; call reset()")
        a = np.maximum(actions, self.action_low)
        np.minimum(a, self.action_high, out=a)
        a = a.reshape(len(self.target), self.action_dim)
        y_before = self.plant.outputs()
        advance(self.plant, self.map_action(a))
        self.steps_taken += 1
        return self._observe(), y_before, a


def run_episode(env: TrackingEnv, controller, targets=None, rows: int = 1):
    """Closed-loop episodes of env's rows, from reset to the time limit in lockstep.

    env resets `rows` episodes, or, when targets ((B, 2) poses, deg) are
    given, one episode per target, which replaces the row's drawn one. At
    each step the controller makes one call for all rows, then one
    env.step advances them all. The controller needs reset(n) and
    act(obs (n, 6), dt) -> (n, A) actions. Returns (obs (B, T+1, 6),
    outputs (B, T+1, 4), actions (B, T, A), rewards (B, T)), T = env.steps:
    the observations and noiseless outputs at every step boundary (each
    step's, and the plant's after the last), and the clipped actions
    applied with their rewards, which one reward() call computes from
    outputs[:, :T], the targets and the actions once the loop is done. Each
    row is bitwise the episode it would be alone: the rows share no
    arithmetic.
    """
    T, A = env.steps, env.action_dim
    obs0 = env.reset(rows, targets)
    B = len(obs0)
    obs_rows = np.empty((B, T + 1, OBS_DIM))
    out_rows = np.empty((B, T + 1, 4))
    act_rows = np.empty((B, T, A))
    obs_rows[:, 0] = obs0
    controller.reset(B)
    for t in range(T):
        actions = controller.act(obs_rows[:, t], dt=ACTION_PERIOD)
        obs_rows[:, t + 1], out_rows[:, t], act_rows[:, t] = env.step(actions)
    out_rows[:, T] = env.plant.outputs()
    rewards = reward(env.reward_spec, out_rows[:, :T], env.target[:, None, :], act_rows)
    return obs_rows, out_rows, act_rows, rewards
