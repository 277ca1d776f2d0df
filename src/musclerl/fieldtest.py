"""Steady-state evaluation: target grid, per-target episodes, e_ss metric.

Evaluation always runs on the nominal plant (the preset's, or the one a
checkpoint was trained on) with no parameter randomization and no
observation noise, from rest, with the deterministic policy. The field
test runs its targets' episodes in lockstep through env.run_episode: one
evaluation env resets a row per target, with the grid's target in place
of the drawn one, and the rows, all nominal, share one plant StepMap, so
each action step is one controller call on the (81, 6) observations of
the grid and one plant product for all rows. Each target's episode is
bitwise the one it runs alone (the rows share no arithmetic). The grid
is built once per FieldTestSpec, so the rows of every call share its
target floats. The steady-state error of one episode is the Euclidean
angle error averaged over the final settle window, sampled at the action
period (env.ACTION_PERIOD); the per-target duration is the preset's
(env.PRESETS):

    e_ss = mean over last (settle / t_a) steps of sqrt((a1 - t1)^2 + (a2 - t2)^2)
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import CODE_STAMP
from .env import ACTION_PERIOD, PRESETS, TrackingEnv, run_episode
from .pid import PidActionPolicy
from .plant import PlantConfig
from .randomize import NO_RANDOMIZATION, SeededRng
from .sac import SacAgent


@dataclass(frozen=True)
class FieldTestSpec:
    """Grid extent/spacing (deg) and per-target timing (s).

    The episode and its settle window must each round to at least one
    action step (env.ACTION_PERIOD).
    """

    extent: float = 10.0
    spacing: float = 2.5
    duration: float = 25.0
    settle: float = 5.0

    def __post_init__(self):
        n = self.extent / self.spacing
        if abs(n - round(n)) > 1e-9:
            raise ValueError("spacing must divide extent")
        for name, span in (("duration", self.duration), ("settle window", self.settle)):
            if not (math.isfinite(span) and round(span / ACTION_PERIOD) >= 1):
                raise ValueError(f"field test {name} must round to at least one "
                                 f"{ACTION_PERIOD:g} s action step, got {span:g} s")
        if not self.settle <= self.duration:
            raise ValueError("settle window must fit in the episode")

    @property
    def steps(self) -> int:
        return round(self.duration / ACTION_PERIOD)

    @property
    def settle_steps(self) -> int:
        return round(self.settle / ACTION_PERIOD)


def field_spec_for(preset: str, duration: float | None = None) -> FieldTestSpec:
    """The preset's field test, or one of duration s with the settle window fitted."""
    if duration is None:
        return FieldTestSpec(duration=PRESETS[preset].field_duration)
    return FieldTestSpec(duration=duration, settle=min(FieldTestSpec.settle, duration))


@functools.cache
def grid_targets(spec: FieldTestSpec) -> tuple[tuple[float, float], ...]:
    """The spec's target grid, built once: every call returns the same tuples.

    The cache holds one immutable tuple per FieldTestSpec a process uses
    (the presets' and a few durations), so field-test rows share its floats.
    """
    axis = np.arange(-spec.extent, spec.extent + spec.spacing / 2, spec.spacing).tolist()
    return tuple((t1, t2) for t1 in axis for t2 in axis)


def steady_state_error(angles: np.ndarray, targets, settle_steps: int) -> float | np.ndarray:
    """Mean Euclidean angle error over the last settle_steps samples of each episode.

    angles is (..., steps, 2) and targets (..., 2). One episode's error
    is a float, a batch's an array of shape (...); each row of a batch is
    bitwise its episode's error alone.
    """
    tail = np.asarray(angles, dtype=np.float64)[..., -settle_steps:, :]
    d = tail - np.asarray(targets, dtype=np.float64)[..., None, :]
    e = np.mean(np.hypot(d[..., 0], d[..., 1]), axis=-1)
    return float(e) if e.ndim == 0 else e


class PolicyController:
    """Controller adapter for an agent, carrying one GRU state per row.

    rng None acts with the deterministic (evaluation) policy; otherwise
    actions sample the stochastic policy with rng's noise.
    """

    def __init__(self, agent: SacAgent, rng: SeededRng | None = None):
        self.agent = agent
        self.rng = rng
        self._hidden = agent.initial_hidden()

    def reset(self, n: int = 1) -> None:
        self._hidden = self.agent.initial_hidden(n)

    def act(self, obs, dt: float = 0.5):
        a, self._hidden = self.agent.act(obs, self._hidden, deterministic=self.rng is None,
                                         rng=self.rng)
        return a


def make_eval_env(preset: str, spec: FieldTestSpec,
                  plant: PlantConfig | None = None) -> TrackingEnv:
    """Nominal noiseless env; plant None means the preset's own plant.

    Its episodes run with targets given, which replace the drawn ones.
    """
    return TrackingEnv(preset, SeededRng(0), steps=spec.steps, randomization=NO_RANDOMIZATION,
                       plant_config=plant)


def default_episode_runner(controller, target, env: TrackingEnv) -> np.ndarray:
    """One evaluation episode (the PID gate's); returns post-step angles, one row per step.

    env is make_eval_env(preset, spec, plant).
    """
    _, outputs, _, _ = run_episode(env, controller, [target])
    return outputs[0, 1:, ::2]


def run_field_test(preset: str, controller, spec: FieldTestSpec | None = None,
                   plant: PlantConfig | None = None) -> list[tuple[float, float, float]]:
    """Evaluate every grid target; returns (target1, target2, e_ss) rows.

    plant is the nominal plant, the preset's if None. The targets' episodes
    run in lockstep as the rows of one evaluation env (nominal muscles, no
    noise), one row per target: the rows share one plant StepMap, built
    once, the controller acts once per step for all of them, and one
    steady_state_error call scores every row.
    """
    spec = spec or field_spec_for(preset)
    targets = grid_targets(spec)
    _, outputs, _, _ = run_episode(make_eval_env(preset, spec, plant), controller, targets)
    errors = steady_state_error(outputs[:, 1:, ::2], targets, spec.settle_steps)
    return [(t1, t2, e) for (t1, t2), e in zip(targets, errors.tolist())]


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


def pid_controller_for(preset: str) -> PidActionPolicy:
    return PidActionPolicy(preset, PRESETS[preset].plant())


def pid_gate(preset: str, plant: PlantConfig | None = None) -> tuple[float | None, float]:
    """Stock-gain PID step to (5, 5) deg on a nominal plant: (rise_s, e_ss).

    Runs one field-test episode. rise_s is the first post-step time (s)
    within 10 % of the step's size, None if never; e_ss is the field test's
    steady-state error (deg). plant None means the preset's own plant.
    """
    plant = plant or PRESETS[preset].plant()
    spec = field_spec_for(preset)
    pid = PidActionPolicy(preset, plant)
    angles = default_episode_runner(pid, (5.0, 5.0), make_eval_env(preset, spec, plant))
    near = np.nonzero(np.hypot(angles[:, 0] - 5.0, angles[:, 1] - 5.0)
                      < 0.1 * np.hypot(5.0, 5.0))[0]
    rise = ACTION_PERIOD * (int(near[0]) + 1) if near.size else None
    return rise, steady_state_error(angles, (5.0, 5.0), spec.settle_steps)
