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
The episodes of one lockstep call are relabelled together: one draw gives
every relabel's sign and Z, and one reward() call scores them all.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def augment_trajectory(trajs: Sequence[Trajectory], spec: AugmentationSpec,
                       reward_spec: RewardSpec, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """n_copies relabels of each of the B episodes trajs: targets (B, K, 2), rewards (B, K, T).

    The episodes share their length. One uniform(0, 1) draw of (B, K,
    1 + dim) gives every relabel's sign (column 0 below 0.5 is +1) and
    then its Z, episode after episode, which are the values and stream
    state of a scalar uniform call for the sign and a size-dim one for Z
    per relabel in turn; n_copies = 0 draws nothing. One reward() call then
    scores all B x K relabels. delta = 0 reproduces the originals.
    """
    base = np.stack([traj.target for traj in trajs])[:, None, :]
    B, K, dim = len(trajs), spec.n_copies, base.shape[-1]
    u = rng.uniform(0.0, 1.0, size=(B, K, 1 + dim)) if K else np.empty((B, 0, 1 + dim))
    signs = np.where(u[:, :, :1] < 0.5, 1.0, -1.0)
    tr = spec.target_range
    targets = np.clip(base + signs * spec.delta * u[:, :, 1:], -tr, tr)
    outputs = np.stack([traj.outputs[:-1] for traj in trajs])[:, None]
    actions = np.stack([traj.actions for traj in trajs])[:, None]
    rewards = reward(reward_spec, outputs, targets[:, :, None, :], actions)
    return targets, rewards
