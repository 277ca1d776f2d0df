"""Steady-state evaluation: target grid, per-target episodes, e_ss metric.

Evaluation always runs on the nominal plant (the preset's, or the one a
checkpoint was trained on) with no parameter randomization and no
observation noise, from rest, with the deterministic policy. The
steady-state error of one episode is the Euclidean angle error averaged over
the final settle window, sampled at the action period:

    e_ss = mean over last (settle / t_a) steps of sqrt((a1 - t1)^2 + (a2 - t2)^2)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import CODE_STAMP
from .env import EpisodeConfig, TrackingEnv
from .pid import PidActionPolicy
from .plant import PlantConfig
from .randomize import NO_RANDOMIZATION, SeededRng
from .sac import SacAgent


@dataclass(frozen=True)
class FieldTestSpec:
    """Grid extent/spacing (deg) and per-target timing (s)."""

    extent: float = 10.0
    spacing: float = 2.5
    duration: float = 25.0
    settle: float = 5.0
    action_period: float = 0.5

    def __post_init__(self):
        n = self.extent / self.spacing
        if abs(n - round(n)) > 1e-9:
            raise ValueError("spacing must divide extent")
        if not (0 < self.settle <= self.duration):
            raise ValueError("settle window must fit in the episode")

    @property
    def steps(self) -> int:
        return round(self.duration / self.action_period)

    @property
    def settle_steps(self) -> int:
        return round(self.settle / self.action_period)


EYE_FIELD = FieldTestSpec(duration=15.0)
WRIST_FIELD = FieldTestSpec(duration=25.0)


def field_spec_for(preset: str) -> FieldTestSpec:
    return EYE_FIELD if preset == "eye" else WRIST_FIELD


def grid_targets(spec: FieldTestSpec) -> list[tuple[float, float]]:
    axis = np.arange(-spec.extent, spec.extent + spec.spacing / 2, spec.spacing)
    return [(float(t1), float(t2)) for t1 in axis for t2 in axis]


def steady_state_error(angles: np.ndarray, target, settle_steps: int) -> float:
    """Mean Euclidean angle error over the last settle_steps samples."""
    tail = np.asarray(angles, dtype=np.float64)[-settle_steps:]
    d = tail - np.asarray(target, dtype=np.float64)
    return float(np.mean(np.hypot(d[:, 0], d[:, 1])))


class PolicyController:
    """Deterministic-evaluation adapter for a trained agent."""

    def __init__(self, agent: SacAgent):
        self.agent = agent
        self._hidden = agent.initial_hidden()

    def reset(self) -> None:
        self._hidden = self.agent.initial_hidden()

    def act(self, obs, dt: float = 0.5):
        a, self._hidden = self.agent.act(obs, self._hidden, deterministic=True)
        return a


def make_eval_env(preset: str, spec: FieldTestSpec,
                  plant: PlantConfig | None = None) -> TrackingEnv:
    """Nominal noiseless env; plant None means the preset's own plant."""
    episode = EpisodeConfig(
        action_period=spec.action_period,
        episode_length=spec.steps,
        target_range=0.0,  # targets are set explicitly per grid point
    )
    return TrackingEnv(preset, SeededRng(0), episode=episode,
                       randomization=NO_RANDOMIZATION, plant_config=plant)


def default_episode_runner(preset: str, spec: FieldTestSpec, controller, target,
                           plant: PlantConfig | None = None) -> np.ndarray:
    """One evaluation episode; returns post-step angles, one row per step."""
    env = make_eval_env(preset, spec, plant)
    obs = env.reset()
    env.target = np.array(target, dtype=np.float64)
    obs[4:6] = env.target
    controller.reset()
    rows = np.empty((spec.steps, 2))
    for t in range(spec.steps):
        a = controller.act(obs, dt=spec.action_period)
        obs, _, _, _ = env.step(a)
        rows[t] = env.state.angles
    return rows


def run_field_test(preset: str, controller, spec: FieldTestSpec | None = None,
                   episode_runner=None, plant: PlantConfig | None = None,
                   ) -> list[tuple[float, float, float]]:
    """Evaluate every grid target; returns (target1, target2, e_ss) rows.

    plant (the default runner's) is the nominal plant, the preset's if None.
    """
    spec = spec or field_spec_for(preset)
    runner = episode_runner or partial(default_episode_runner, plant=plant)
    rows = []
    for target in grid_targets(spec):
        angles = runner(preset, spec, controller, target)
        rows.append((target[0], target[1],
                     steady_state_error(angles, target, spec.settle_steps)))
    return rows


def summarize(rows) -> dict:
    errs = np.array([r[2] for r in rows])
    q1, med, q3 = np.percentile(errs, [25, 50, 75])
    return {
        "count": int(errs.size),
        "mean": float(errs.mean()),
        "sd": float(errs.std()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "max": float(errs.max()),
    }


def write_field_csv(path: str, rows, provenance: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {provenance} {CODE_STAMP}\n")
        fh.write("target1,target2,e_ss\n")
        for t1, t2, e in rows:
            fh.write(f"{t1!r},{t2!r},{e!r}\n")
        s = summarize(rows)
        fh.write(f"# summary mean={s['mean']!r} sd={s['sd']!r} median={s['median']!r} "
                 f"q1={s['q1']!r} q3={s['q3']!r} max={s['max']!r}\n")


def pid_controller_for(preset: str, gain_scale: float = 1.0) -> PidActionPolicy:
    from .pid import gains_for
    from .plant import PLANT_PRESETS

    plant = PLANT_PRESETS[preset]()
    return PidActionPolicy(preset, plant, gains_for(preset, plant, scale=gain_scale))
