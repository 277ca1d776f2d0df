"""Trajectory multiplication by target relabelling.

Motion states and actions are physical and stay untouched; only the target
of an episode changes, and the rewards are recomputed for the new target
from the stored noiseless outputs. Each relabel draws one global sign and
one componentwise-uniform vector Z, shared by the whole trajectory (targets
are episode constants, so both states of every transition shift together):

    target_new = clip(target +- delta * Z, target_range)

A relabel is therefore just its target and its rewards: the replay buffer
stores it as those two rows beside its base episode (hindsight relabelling,
as in HER) and builds the relabelled observations only when it is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import RewardSpec, reward
from .randomize import SeededRng
from .sac import Trajectory


@dataclass(frozen=True)
class AugmentationSpec:
    """Number of copies per episode and the target-perturbation law."""

    n_copies: int = 10
    delta: float = 2.0
    target_range: float = 10.0

    def __post_init__(self):
        if self.n_copies < 0 or self.delta < 0:
            raise ValueError("n_copies and delta must be nonnegative")


def augment_trajectory(traj: Trajectory, spec: AugmentationSpec, reward_spec: RewardSpec,
                       rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """n_copies relabels of traj: targets (K, 2) and their rewards (K, T).

    Every relabel draws its sign, then its Z, in turn; all rewards then
    come from one reward() call. delta = 0 reproduces the original.
    """
    dim = traj.target.shape[0]
    signs, z = np.empty((spec.n_copies, 1)), np.empty((spec.n_copies, dim))
    for k in range(spec.n_copies):
        signs[k] = rng.sign()
        z[k] = rng.uniform(0.0, 1.0, size=dim)
    tr = spec.target_range
    targets = np.clip(traj.target + signs * spec.delta * z, -tr, tr)
    rewards = reward(reward_spec, traj.outputs[:-1], targets[:, None, :], traj.actions)
    return targets, rewards
