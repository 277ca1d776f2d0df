"""Episode-level MDP wrapper around a plant: targets, actions, rewards.

The agent-visible observation is the 6-vector

    [angle1, rate1, angle2, rate2, target1, target2]   (deg, deg/s)

with measurement noise on the four motion components only; the target is a
per-episode constant pose. The reward is a quadratic tracking cost plus a
bonus per axis inside a small error threshold,

    r = -(e.T Qe e + a.T Ra a) + bonus_value * (1{|e1|<th} + 1{|e2|<th})

computed on the noiseless output at the state where the action was taken,
so the same reward can be recomputed exactly from logged trajectories.
Episodes end by time limit (truncation), never by failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import PLANT_PRESETS, PlantConfig, PlantState, StepMap, advance, initial_state
from .randomize import (
    NO_RANDOMIZATION,
    RandomizationSpec,
    SeededRng,
    apply_observation_noise,
    sample_muscle_set,
)

OBS_DIM = 6
MOTION_SLICE = slice(0, 4)
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


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode timing and target law."""

    action_period: float = 0.5
    episode_length: int = 40
    target_range: float = 10.0
    discount: float = 0.99
    physics_dt: float = 0.01

    def __post_init__(self):
        if not (self.action_period > 0 and 0 < self.discount <= 1):
            raise ValueError("require action_period > 0 and discount in (0, 1]")

    @property
    def substeps(self) -> int:
        return max(1, round(self.action_period / self.physics_dt))


EYE_REWARD = RewardSpec(q_e=(0.05, 0.25, 0.05, 0.25), r_a=(0.01, 0.01), bonus_threshold=0.3)
WRIST_REWARD = RewardSpec(q_e=(0.05, 0.2, 0.05, 0.2), r_a=(0.01, 0.01, 0.01), bonus_threshold=0.5)

EYE_EPISODE = EpisodeConfig(episode_length=30)
WRIST_EPISODE = EpisodeConfig(episode_length=40)


def map_action_eye(a) -> np.ndarray:
    """Signed pair commands -> four voltages, one muscle per pair powered.

    a1 = -V1 + V2 and a2 = -V3 + V4 with V1 V2 = V3 V4 = 0; components are
    clamped to [-10, 10] on entry.
    """
    a1 = min(max(float(a[0]), -10.0), 10.0)
    a2 = min(max(float(a[1]), -10.0), 10.0)
    return np.array([-min(a1, 0.0), max(a1, 0.0), -min(a2, 0.0), max(a2, 0.0)])


def map_action_wrist(a) -> np.ndarray:
    """Direct per-muscle voltages, clamped to [0, 10]."""
    out = np.asarray(a, dtype=np.float64).copy()
    return np.clip(out, 0.0, 10.0)


def reward(spec: RewardSpec, y, y_star, a) -> float:
    """Tracking reward for true output y, target pose y_star, action a.

    y is [angle1, rate1, angle2, rate2]; rate targets are zero (static poses).
    Scalar arithmetic in a fixed order, so recomputation is bit-exact.
    """
    e0 = abs(float(y_star[0]) - float(y[0]))
    e1 = abs(0.0 - float(y[1]))
    e2 = abs(float(y_star[1]) - float(y[2]))
    e3 = abs(0.0 - float(y[3]))
    q = spec.q_e
    cost = q[0] * e0 * e0 + q[1] * e1 * e1 + q[2] * e2 * e2 + q[3] * e3 * e3
    for i, ra in enumerate(spec.r_a):
        ai = float(a[i])
        cost += ra * ai * ai
    bonus = 0.0
    if e0 < spec.bonus_threshold:
        bonus += spec.bonus_value
    if e2 < spec.bonus_threshold:
        bonus += spec.bonus_value
    return -cost + bonus


class TrackingEnv:
    """One episode-owning environment instance for a named plant preset.

    Muscle parameters resample at reset and stay fixed for the episode, so
    reset also builds the episode's plant StepMap; observation noise redraws
    every step. All randomness flows through named child streams of the
    seed rng, so trajectories are reproducible.
    """

    def __init__(
        self,
        preset: str,
        rng: SeededRng,
        episode: EpisodeConfig | None = None,
        randomization: RandomizationSpec | None = None,
        reward_spec: RewardSpec | None = None,
        plant_config: PlantConfig | None = None,
    ):
        if preset not in PLANT_PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PLANT_PRESETS)}")
        self.preset = preset
        self.nominal = plant_config if plant_config is not None else PLANT_PRESETS[preset]()
        self.episode = episode or (EYE_EPISODE if preset == "eye" else WRIST_EPISODE)
        self.randomization = randomization if randomization is not None else RandomizationSpec()
        self.reward_spec = reward_spec or (EYE_REWARD if preset == "eye" else WRIST_REWARD)
        self.action_dim = 2 if preset == "eye" else 3
        self._params_rng = rng.split("muscle-params")
        self._target_rng = rng.split("target")
        self._noise_rngs = [rng.split(f"obs-noise/{i}") for i in range(4)]
        self.active = self.nominal
        self.state: PlantState | None = None
        self.target = np.zeros(2)
        self.steps_taken = 0
        self._done = True

    # -- action geometry -------------------------------------------------

    @property
    def action_low(self) -> np.ndarray:
        return np.array([-10.0, -10.0]) if self.preset == "eye" else np.zeros(3)

    @property
    def action_high(self) -> np.ndarray:
        return np.full(self.action_dim, 10.0)

    def map_action(self, a) -> np.ndarray:
        return map_action_eye(a) if self.preset == "eye" else map_action_wrist(a)

    # -- episode lifecycle ------------------------------------------------

    def reset(self) -> np.ndarray:
        """Start a fresh episode; returns the initial (noisy) observation."""
        self.active = self.nominal.with_muscles(
            sample_muscle_set(self.nominal.muscles, self.randomization, self._params_rng)
        )
        self.step_map = StepMap(self.active, self.episode.physics_dt, self.episode.substeps)
        self.state = initial_state(self.active)
        tr = self.episode.target_range
        self.target = np.array(
            [float(self._target_rng.uniform(-tr, tr)), float(self._target_rng.uniform(-tr, tr))]
        )
        self.steps_taken = 0
        self._done = False
        return self._observe()

    def true_output(self) -> np.ndarray:
        """Noiseless [angle1, rate1, angle2, rate2] of the current state."""
        s = self.state
        return np.array([s.angles[0], s.rates[0], s.angles[1], s.rates[1]])

    def _observe(self) -> np.ndarray:
        obs = np.empty(OBS_DIM)
        obs[MOTION_SLICE] = self.true_output()
        obs[TARGET_SLICE] = self.target
        return apply_observation_noise(obs, self.randomization, self._noise_rngs)

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply one action for one action period.

        Returns (next_obs, reward, done, info); info carries the noiseless
        output at which the action was taken and the applied voltages. done
        is a time-limit truncation, so critic targets keep bootstrapping.
        """
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        a = np.clip(np.asarray(action, dtype=np.float64), self.action_low, self.action_high)
        y_before = self.true_output()
        r = reward(self.reward_spec, y_before, self.target, a)
        volts = self.map_action(a)
        self.state = advance(self.step_map, self.state, volts)
        self.steps_taken += 1
        self._done = self.steps_taken >= self.episode.episode_length
        info = {"output": y_before, "voltages": volts, "truncated": self._done}
        return self._observe(), r, self._done, info


def make_env(preset: str, seed_rng: SeededRng, randomize: bool = True, **kwargs) -> TrackingEnv:
    """Convenience constructor; randomize=False gives the nominal noiseless plant."""
    rnd = kwargs.pop("randomization", None)
    if rnd is None:
        rnd = RandomizationSpec() if randomize else NO_RANDOMIZATION
    return TrackingEnv(preset, seed_rng, randomization=rnd, **kwargs)
