"""Soft actor-critic over trajectories, with recurrent actor and twin critics.

The actor maps observation sequences to a squashed-Gaussian action head; the
critics consume (observation, action) per step. Updates run backprop through
time over whole trajectories (episodes are 30-40 steps, no truncation).
Critic targets bootstrap through the elementwise minimum of the two target
critics minus the entropy term; the temperature is auto-tuned toward a fixed
entropy target. Target networks track the online critics by Polyak blending.

All episodes end by time limit, so the bootstrap always continues through
the final transition. The twin critics run as one stacked pass (see nets);
the result is bitwise identical to two separate passes.

The seven network passes of an update compute in float32 by default
(mixed precision): the stacks cast the float64 master weights as they copy
them, and the gradients return to float64 for Adam, the Polyak blend and
the temperature, which all stay float64. Acting stays float64, so
rollouts and evaluation do not move with the learner's dtype: it steps the
actor through a nets.ActCell, one forward-only step per action with no
activation cache, for a batch of rows at once (the field test acts for all
its targets in one call), and the deterministic action reads the mean half
of the head directly. dtype=np.float64 gives the exact reference update. Each
update builds its stacks from the current weights; acting keeps its cell
until update() or load_state() changes the actor.

The optimizer side of an update allocates no parameter-sized array: the
float64 gradients go into one flat the agent keeps, and Adam and the Polyak
blend run in place, block by block, bitwise as their whole-vector forms.
The three S=2 critic passes of an update (target, critic on the stored
actions, critic_pi on the policy's) have one activation signature and
disjoint lifetimes, so each agent holds one storage for them: the target
pass's, which the other two caches share (see nets.StackCache). The target
pass is reduced to the Bellman targets, and the critic's gradients reach
Adam, before the next of them runs forward. The actor pass keeps its own
storage.
The agent writes and reads its own checkpoint state, as the buffer does.
"""

from __future__ import annotations

import numpy as np

from .env import RewardSpec, reward
from .nets import (
    SCRATCH,
    ActCell,
    AdamState,
    NetworkShape,
    StackedNets,
    action_grads,
    adam_update,
    backward_stacked,
    blocks,
    forward_stacked,
    grads_to_flat,
    init_params,
    log_prob_grads,
    split_head,
    squash_mean,
    squash_sample,
)
from .randomize import SeededRng


class Trajectory:
    """One episode: T transitions over T+1 states.

    obs[t] is the (noisy) observation the controller acted on; outputs[t] is
    the matching noiseless plant output the reward was computed from, kept so
    rewards can be recomputed exactly under a different target. The stored
    reward r[t] pairs with (obs[t], actions[t]); obs of step t+1 is row t+1
    of the same array, so consecutive transitions share states by layout.
    """

    __slots__ = ("obs", "outputs", "actions", "rewards", "controller")

    def __init__(self, obs, outputs, actions, rewards, controller="policy"):
        T = actions.shape[0]
        if obs.shape[0] != T + 1 or outputs.shape[0] != T + 1 or rewards.shape[0] != T:
            raise ValueError("trajectory arrays disagree on episode length")
        self.obs = obs
        self.outputs = outputs
        self.actions = actions
        self.rewards = rewards
        self.controller = controller

    @property
    def length(self) -> int:
        return self.actions.shape[0]

    @property
    def target(self) -> np.ndarray:
        return self.obs[0, 4:6]



class ReplayBuffer:
    """FIFO ring of episode slots with uniform without-replacement sampling.

    push(traj, targets, rewards) fills 1 + K consecutive slots: one for the
    episode and one per relabel, which is a target row and a rewards row
    (see augment). Every slot refers to its base Trajectory, so an episode's
    physics is stored once however many slots use it, and a base stays
    alive while any slot refers to it, even after its own slot is evicted.
    Slots share the arrays, so push makes them read-only. sample() and
    snapshot() give the base object for a base slot; for a relabel slot,
    a Trajectory whose obs is a copy of the base's with the relabel's
    target, and whose outputs and actions are the base's. A checkpoint
    keeps no reward row, since env.reward recomputes each one exactly (see
    state and load_state).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots: list[tuple[Trajectory, np.ndarray | None, np.ndarray | None]] = []
        self._next = 0
        self._length: int | None = None

    def __len__(self) -> int:
        return len(self._slots)

    def push(self, traj: Trajectory, targets: np.ndarray | None = None,
             rewards: np.ndarray | None = None) -> None:
        """Store traj, then its relabels: targets (K, 2) with rewards (K, T)."""
        if self._length is None:
            self._length = traj.length
        elif traj.length != self._length:
            raise ValueError(
                f"trajectory length {traj.length} != buffer episode length {self._length}"
            )
        shared = [traj.obs, traj.outputs, traj.actions, traj.rewards]
        relabels = ()
        if targets is not None:
            if np.shape(rewards) != (len(targets), traj.length):
                raise ValueError("need one rewards row of the episode's length per target")
            shared += [targets, rewards]
            relabels = zip(targets, rewards)
        for a in shared:
            a.flags.writeable = False
        self._put((traj, None, None))
        for target, row in relabels:
            self._put((traj, target, row))

    def _put(self, slot) -> None:
        if len(self._slots) < self.capacity:
            self._slots.append(slot)
        else:
            self._slots[self._next] = slot
            self._next = (self._next + 1) % self.capacity

    @staticmethod
    def _trajectory(slot) -> Trajectory:
        base, target, rewards = slot
        if target is None:
            return base
        obs = base.obs.copy()
        obs[:, 4:6] = target
        return Trajectory(obs, base.outputs, base.actions, rewards, base.controller)

    def sample(self, batch_size: int, rng: SeededRng) -> list[Trajectory]:
        if len(self._slots) < batch_size:
            raise ValueError(
                f"buffer holds {len(self._slots)} trajectories, need {batch_size}"
            )
        idx = rng.choice_without_replacement(len(self._slots), batch_size)
        return [self._trajectory(self._slots[i]) for i in idx]

    def snapshot(self):
        """Every slot's trajectory in slot order, built as sample() builds it."""
        return (self._trajectory(slot) for slot in self._slots)

    # the checkpoint arrays of a non-empty buffer; the rewards are rebuilt
    ARRAYS = ("buf_obs", "buf_outputs", "buf_actions", "buf_relabel_targets", "buf_slots")

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Checkpoint form: (JSON-safe meta, float64 arrays).

        Each base is saved once, in order of first reference, as
        buf_obs/buf_outputs/buf_actions; the meta carries their controller
        tags. The relabels' targets, in slot order, are buf_relabel_targets
        (R, 2), and buf_slots (S, 2) holds each slot's base index and
        relabel row (-1 for a base slot). No rewards are saved: load_state
        recomputes them from the outputs, actions and targets.
        """
        base_index: dict[int, int] = {}
        bases, slots, targets = [], [], []
        for base, target, _ in self._slots:
            b = base_index.setdefault(id(base), len(bases))
            if b == len(bases):
                bases.append(base)
            slots.append((b, -1 if target is None else len(targets)))
            if target is not None:
                targets.append(target)
        meta = {"slots": len(slots), "next": self._next,
                "controllers": [t.controller for t in bases]}
        if not bases:
            return meta, {}
        return meta, {
            "buf_obs": np.stack([t.obs for t in bases]),
            "buf_outputs": np.stack([t.outputs for t in bases]),
            "buf_actions": np.stack([t.actions for t in bases]),
            "buf_relabel_targets": np.array(targets, dtype=np.float64).reshape(-1, 2),
            "buf_slots": np.array(slots, dtype=np.float64),
        }

    def load_state(self, meta: dict, arrays: dict[str, np.ndarray],
                   reward_spec: RewardSpec) -> None:
        """Refill this empty buffer from state()'s output.

        The rewards come from reward_spec, the run's reward law: one
        reward() call per base scores the base's target and those of its
        relabels, which reproduces the pushed rows bit for bit (see
        env.reward), and allocates only the rows it fills. Reward arrays
        that older checkpoints carry are not read.
        """
        if meta["slots"] > self.capacity:
            raise ValueError(f"{meta['slots']} stored slots exceed capacity {self.capacity}")
        if meta["slots"] == 0:
            return
        obs, outputs, actions = arrays["buf_obs"], arrays["buf_outputs"], arrays["buf_actions"]
        targets = arrays["buf_relabel_targets"]
        slots = arrays["buf_slots"].astype(np.int64).tolist()
        rows_of: list[list[int]] = [[] for _ in range(len(obs))]
        for b, r in slots:
            if r >= 0:
                rows_of[b].append(r)
        base_rewards = np.empty(actions.shape[:2])
        rewards = np.empty((len(targets), actions.shape[1]))
        for b, rows in enumerate(rows_of):
            y_star = np.concatenate([obs[b, :1, 4:6], targets[rows]])[:, None, :]
            scored = reward(reward_spec, outputs[b, :-1], y_star, actions[b])
            base_rewards[b] = scored[0]
            rewards[rows] = scored[1:]
        for a in (obs, outputs, actions, targets, base_rewards, rewards):
            a.flags.writeable = False
        bases = [Trajectory(*parts, controller=ctl) for *parts, ctl in zip(
            obs, outputs, actions, base_rewards, meta["controllers"])]
        self._slots = [(bases[b], None, None) if r < 0 else (bases[b], targets[r], rewards[r])
                       for b, r in slots]
        self._next = int(meta["next"])
        self._length = bases[0].length


class SacAgent:
    """Actor, twin critics with targets, temperature, and their optimizers.

    actor_only=True builds the actor alone, for acting from a policy
    checkpoint: no critics, targets, temperature or optimizer state, so
    only act(), initial_hidden() and state(policy=True) work.
    """

    OPTIMIZERS = ("actor", "q1", "q2", "alpha")  # the order of opt_t and opt_skipped

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        rng: SeededRng,
        gru_hidden: int = 256,
        lr: float = 3e-4,
        tau: float = 0.005,
        action_center=0.0,
        action_half=10.0,
        fixed_alpha: float | None = None,
        dtype=np.float32,
        actor_only: bool = False,
    ):
        self.obs_dim = obs_dim
        self.dtype = np.dtype(dtype)
        self.action_dim = action_dim
        self.gru_hidden = gru_hidden
        self.tau = tau
        self.action_center = np.broadcast_to(np.asarray(action_center, dtype=np.float64),
                                             (action_dim,)).copy()
        self.action_half = np.broadcast_to(np.asarray(action_half, dtype=np.float64),
                                           (action_dim,)).copy()
        self.target_entropy = float(-action_dim)
        self.fixed_alpha = fixed_alpha

        actor_shape = NetworkShape(obs_dim, gru_hidden, 2 * action_dim)
        critic_shape = NetworkShape(obs_dim + action_dim, gru_hidden, 1)
        self.actor = init_params(actor_shape, rng.split("actor"))
        self._noise_rng = rng.split("update-noise")
        self._act_cell = None
        if actor_only:
            return
        self.q1 = init_params(critic_shape, rng.split("critic-1"))
        self.q2 = init_params(critic_shape, rng.split("critic-2"))
        self.q1_target = self.q1.copy()
        self.q2_target = self.q2.copy()
        self.log_alpha = np.zeros(1)

        # the networks take turns in one float64 gradient flat handed to Adam
        self._grad = np.empty(max(self.q1.size, self.actor.size))
        self.opt_actor = AdamState.for_params(self.actor.flat, lr)
        self.opt_q1 = AdamState.for_params(self.q1.flat, lr)
        self.opt_q2 = AdamState.for_params(self.q2.flat, lr)
        self.opt_alpha = AdamState.for_params(self.log_alpha, lr)
        self._ws: dict = {}  # one StackCache per update pass, by pass name

    @property
    def alpha(self) -> float:
        if self.fixed_alpha is not None:
            return float(self.fixed_alpha)
        return float(np.exp(self.log_alpha[0]))

    # -- checkpoint state ---------------------------------------------------

    def state(self, policy: bool = False) -> tuple[dict, dict[str, np.ndarray]]:
        """Checkpoint form: (JSON-safe meta, the live float64 arrays).

        arrays: the five networks' flats by attribute name, log_alpha and
        opt_<name>_m/_v; meta: the optimizers' opt_t and opt_skipped lists.
        policy=True gives only what acting reads: the actor's flat, no meta.
        """
        if policy:
            return {}, {"actor": self.actor.flat}
        opts = [getattr(self, "opt_" + name) for name in self.OPTIMIZERS]
        arrays = {name: getattr(self, name).flat
                  for name in ("actor", "q1", "q2", "q1_target", "q2_target")}
        arrays["log_alpha"] = self.log_alpha
        for name, opt in zip(self.OPTIMIZERS, opts):
            arrays[f"opt_{name}_m"], arrays[f"opt_{name}_v"] = opt.m, opt.v
        return {"opt_t": [o.t for o in opts], "opt_skipped": [o.skipped for o in opts]}, arrays

    def load_state(self, meta: dict, arrays: dict[str, np.ndarray], policy: bool = False) -> None:
        """Overwrite what state(policy) holds with its output."""
        for name, live in self.state(policy)[1].items():
            live[:] = arrays[name]
        if not policy:
            for name, t, skipped in zip(self.OPTIMIZERS, meta["opt_t"], meta["opt_skipped"]):
                opt = getattr(self, "opt_" + name)
                opt.t, opt.skipped = int(t), int(skipped)
        self._act_cell = None

    # -- acting -----------------------------------------------------------

    def initial_hidden(self, n: int = 1) -> np.ndarray:
        return np.zeros((n, 1, self.gru_hidden))

    def act(self, obs, hidden, deterministic: bool = False, rng: SeededRng | None = None):
        """One action per row of obs (B, 6), carrying the rows' GRU states.

        Stochastic mode samples the squashed Gaussian, with noise drawn from
        rng as (B, A) in row order, and refuses to act without rng: the
        agent's own noise stream belongs to update. Deterministic mode
        returns the squashed mean (evaluation policy). hidden is the
        (B, 1, H) state from initial_hidden(B) or the previous act, and obs
        may be (6,) when B = 1. Returns (B, A) actions and the next state, a
        new array. Each row's action and state are bitwise those of acting
        on it alone.
        """
        if not deterministic and rng is None:
            raise ValueError("a stochastic act needs rng, its own noise stream")
        if self._act_cell is None:
            self._act_cell = ActCell(self.actor)
        B, A = hidden.shape[0], self.action_dim
        x = np.ascontiguousarray(obs, dtype=np.float64).reshape(B, 1, -1)
        y, h_next = self._act_cell.step(x, hidden)
        if deterministic:
            action = squash_mean(y[:, 0, :A], self.action_center, self.action_half)
        else:
            mu, log_sd, _ = split_head(y[:, 0])
            noise = rng.standard_normal((B, A))
            action, _, _ = squash_sample(mu, log_sd, noise, self.action_center, self.action_half)
        return action, h_next

    # -- learning ---------------------------------------------------------

    def _forward(self, name: str, sp: StackedNets, x: np.ndarray, share=None):
        """forward_stacked from zero hidden states, through the agent's cache for pass name.

        share names the pass whose storage the cache uses (see StackCache).
        """
        out = forward_stacked(sp, x, cache=self._ws.get(name),
                              share=None if share is None else self._ws[share])
        self._ws[name] = out[2]
        return out

    def _critic_targets(self, obs_all, actions_next, logp_next, rewards, gamma):
        """Bellman targets y_t = r_t + gamma (min_i Qbar_i(s', a') - alpha log pi)."""
        q_in = np.concatenate([obs_all[1:], actions_next], axis=2)
        sp = StackedNets([self.q1_target, self.q2_target], dtype=self.dtype)
        qb, _, _ = self._forward("target", sp, q_in[None])
        qmin = np.minimum(qb[0, :, :, 0], qb[1, :, :, 0])
        return rewards + gamma * (qmin - self.alpha * logp_next)

    def update(self, batch: list[Trajectory], gamma: float) -> dict:
        """One gradient step of critics, actor, and temperature on a batch.

        Returns the loss report; raises on non-finite losses so the caller
        can dump diagnostics and abort rather than train on garbage.
        """
        dt = self.dtype
        T = batch[0].length
        obs_all = np.stack([t.obs for t in batch], axis=1, dtype=dt)      # (T+1, N, obs)
        actions = np.stack([t.actions for t in batch], axis=1, dtype=dt)  # (T, N, A)
        rewards = np.stack([t.rewards for t in batch], axis=1, dtype=dt)  # (T, N)
        N = len(batch)
        count = T * N
        center, half = self.action_center.astype(dt), self.action_half.astype(dt)

        # fresh policy samples along the whole stored state sequence
        sp_actor = StackedNets([self.actor], dtype=dt)
        y_pi, _, actor_cache = self._forward("actor", sp_actor, obs_all[None])
        y_pi = y_pi[0]
        mu, log_sd, clip_mask = split_head(y_pi)
        sd = np.exp(log_sd)
        noise_pi = self._noise_rng.standard_normal((T, N, self.action_dim)).astype(dt)
        noise_next = self._noise_rng.standard_normal((T, N, self.action_dim)).astype(dt)
        a_pi, logp_pi, u_pi = squash_sample(mu[:T], log_sd[:T], noise_pi, center, half)
        a_next, logp_next, _ = squash_sample(mu[1:], log_sd[1:], noise_next, center, half)

        targets = self._critic_targets(obs_all, a_next, logp_next, rewards, gamma)

        # critics on stored actions, twin-stacked over a shared input
        q_in_stored = np.concatenate([obs_all[:T], actions], axis=2)
        sp_q = StackedNets([self.q1, self.q2], dtype=dt)
        q, _, cache_q = self._forward("critic", sp_q, q_in_stored[None], share="target")
        td = q[:, :, :, 0] - targets[None]
        critic1_loss = float(np.mean(td[0] * td[0]))
        critic2_loss = float(np.mean(td[1] * td[1]))
        dq = (2.0 / count) * td[..., None]
        backward_stacked(cache_q, dq)
        critic_grad = self._grad[: self.q1.size]
        for s, net, opt in ((0, self.q1, self.opt_q1), (1, self.q2, self.opt_q2)):
            adam_update(net.flat, grads_to_flat(cache_q.grad_flat, s, critic_grad), opt)

        # actor: alpha log pi - min_i Q_i(s, a_pi), against the updated critics
        q_in_pi = np.concatenate([obs_all[:T], a_pi], axis=2)
        sp_q2 = StackedNets([self.q1, self.q2], dtype=dt)
        q_pi, _, cache_pi = self._forward("critic_pi", sp_q2, q_in_pi[None], share="target")
        q1v, q2v = q_pi[0, :, :, 0], q_pi[1, :, :, 0]
        qmin = np.minimum(q1v, q2v)
        alpha = self.alpha
        actor_loss = float(np.mean(alpha * logp_pi - qmin))

        pick1 = q1v <= q2v
        dq_pi = np.empty((2, T, N, 1), dtype=dt)
        dq_pi[0, :, :, 0] = np.where(pick1, -1.0 / count, 0.0)
        dq_pi[1, :, :, 0] = np.where(pick1, 0.0, -1.0 / count)
        _, dx_pi, _ = backward_stacked(cache_pi, dq_pi, need_param_grads=False)
        d_action = dx_pi[0, :, :, self.obs_dim:] + dx_pi[1, :, :, self.obs_dim:]

        dlp_dmu, dlp_dls = log_prob_grads(noise_pi, u_pi, sd[:T])
        da_dmu, da_dls = action_grads(noise_pi, u_pi, sd[:T], half)
        scale = alpha / count
        dmu = scale * dlp_dmu + d_action * da_dmu
        dls = scale * dlp_dls + d_action * da_dls

        dy_actor = np.zeros((1, T + 1, N, 2 * self.action_dim), dtype=dt)
        dy_actor[0, :T, :, : self.action_dim] = dmu
        dy_actor[0, :T, :, self.action_dim:] = dls * clip_mask[:T]
        backward_stacked(actor_cache, dy_actor)
        actor_grads = grads_to_flat(actor_cache.grad_flat, 0, self._grad[: self.actor.size])
        adam_update(self.actor.flat, actor_grads, self.opt_actor)

        # temperature: push mean log pi toward -target_entropy
        entropy_gap = float(np.mean(logp_pi)) + self.target_entropy
        alpha_loss = float(-self.log_alpha[0] * entropy_gap)
        if self.fixed_alpha is None:
            adam_update(self.log_alpha, np.array([-entropy_gap]), self.opt_alpha)

        self.soft_update(self.tau)
        self._act_cell = None
        for cache in self._ws.values():  # the next forward through each sets its stack
            cache.nets = None

        report = {
            "critic1_loss": critic1_loss,
            "critic2_loss": critic2_loss,
            "actor_loss": actor_loss,
            "alpha_loss": alpha_loss,
            "alpha": self.alpha,
            "entropy": float(-np.mean(logp_pi)),
        }
        if not all(np.isfinite(v) for v in report.values()):
            raise FloatingPointError(f"non-finite losses in update: {report}")
        return report

    def soft_update(self, tau: float) -> None:
        """Polyak blend of online critics into the targets, in place.

        Block by block, target *= 1 - tau; target += tau * online, so the
        result is bitwise that of the whole-vector form.
        """
        if not (0.0 <= tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        for online, target in ((self.q1, self.q1_target), (self.q2, self.q2_target)):
            for sl in blocks(target.size):
                t = target.flat[sl]
                blend = SCRATCH[0, : t.size]
                t *= 1.0 - tau
                np.multiply(tau, online.flat[sl], out=blend)
                t += blend
