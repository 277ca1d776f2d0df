"""End-to-end training loop: demonstration phase, learning phase, artifacts.

Phase one rolls out the PID controller (or uniform-random actions when the
bootstrap is disabled) for the first M episodes, storing each trajectory
plus its augmented copies; no gradient steps happen here. Phase two rolls
out the current policy, augments, stores, and runs k gradient updates per
episode. Muscle dynamics resample every reset.

Artifacts (under the run directory): rewards.csv with one row per episode,
losses.csv with per-episode mean losses, a rolling full checkpoint for
resume, and a final checkpoint plus a light policy-only checkpoint. Every
CSV starts with a comment line carrying the config hash and seed, and all
randomness flows from the run seed through named streams, so reruns and
resumed runs are byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .augment import AugmentationSpec, augment_trajectory
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CODE_STAMP, NUMERICS, RunConfig, __version__
from .env import EpisodeConfig, TrackingEnv
from .pid import PidActionPolicy, gains_for
from .randomize import NO_RANDOMIZATION, RandomizationSpec, SeededRng
from .sac import ReplayBuffer, SacAgent, Trajectory


def format_float(x: float) -> str:
    return repr(float(x))


class CsvLog:
    """Append-only CSV with a provenance comment; flushes every row.

    truncate_after drops data rows whose leading episode number exceeds the
    given value, so resuming from a checkpoint older than the log (e.g.
    after a crash between checkpoints) rewrites a consistent file.
    """

    def __init__(self, path: str, columns: list[str], provenance: str,
                 truncate_after: int | None = None):
        self.path = path
        self.columns = columns
        if truncate_after is not None and os.path.exists(path):
            kept = []
            for line in open(path):
                head = line.split(",", 1)[0]
                if head.isdigit() and int(head) > truncate_after:
                    continue
                kept.append(line)
            with open(path, "w") as fh:
                fh.writelines(kept)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self.fh = open(path, "a")
        if fresh:
            self.fh.write(f"# {provenance}\n")
            self.fh.write(",".join(columns) + "\n")
            self.fh.flush()

    def row(self, values: list) -> None:
        cells = [v if isinstance(v, str) else format_float(v) if isinstance(v, float)
                 else str(v) for v in values]
        self.fh.write(",".join(cells) + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


class Trainer:
    """Owns the environment, agent, buffer, and every random stream."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg = cfg.resolved()
        master = SeededRng(cfg.seed)
        randomization = (
            NO_RANDOMIZATION
            if cfg.no_randomize
            else RandomizationSpec(
                variance_multiplier=cfg.variance_multiplier,
                shared_across_muscles=cfg.shared_muscle_scaling,
            )
        )
        episode = EpisodeConfig(
            episode_length=cfg.episode_length,
            target_range=cfg.target_range,
            discount=cfg.gamma,
        )
        self.env = TrackingEnv(cfg.preset, master.split("env"), episode=episode,
                               randomization=randomization, plant_config=cfg.plant_config())
        if cfg.preset == "eye":
            center, half = 0.0, 10.0
        else:
            center, half = 5.0, 5.0
        self.agent = SacAgent(
            obs_dim=6,
            action_dim=self.env.action_dim,
            rng=master.split("agent"),
            gru_hidden=cfg.gru_hidden,
            lr=cfg.lr,
            tau=cfg.tau,
            action_center=center,
            action_half=half,
        )
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.sample_rng = master.split("replay")
        self.augment_rng = master.split("augment")
        self.warmup_rng = master.split("warmup")
        self.rollout_rng = master.split("rollout-noise")
        self.aug_spec = AugmentationSpec(
            n_copies=0 if cfg.no_augment else cfg.augment_copies,
            delta=cfg.augment_delta,
            target_low=-cfg.target_range,
            target_high=cfg.target_range,
        )
        self.pid = PidActionPolicy(
            cfg.preset, self.env.nominal,
            gains_for(cfg.preset, self.env.nominal, scale=cfg.pid_gain_scale),
        )
        self.episode_idx = 0  # completed episodes

    # -- rollouts ----------------------------------------------------------

    def rollout(self, controller: str) -> Trajectory:
        """One full episode under 'pid', 'random', or 'policy' control."""
        env = self.env
        obs = env.reset()
        T = env.episode.episode_length
        obs_rows = np.empty((T + 1, 6))
        out_rows = np.empty((T + 1, 4))
        act_rows = np.empty((T, env.action_dim))
        rew_rows = np.empty(T)
        obs_rows[0] = obs
        out_rows[0] = env.true_output()
        if controller == "pid":
            self.pid.plant = env.active
            self.pid.reset()
        hidden = self.agent.initial_hidden()
        low, high = env.action_low, env.action_high
        for t in range(T):
            if controller == "pid":
                a = self.pid.act(obs, dt=env.episode.action_period)
            elif controller == "random":
                a = self.warmup_rng.uniform(low, high, size=env.action_dim)
            else:
                a, hidden = self.agent.act(obs, hidden, rng=self.rollout_rng)
            a = np.clip(np.asarray(a, dtype=np.float64), low, high)
            obs, r, done, info = env.step(a)
            act_rows[t] = a
            rew_rows[t] = r
            obs_rows[t + 1] = obs
            out_rows[t + 1] = env.true_output()
        return Trajectory(obs_rows, out_rows, act_rows, rew_rows,
                          truncated=True, controller=controller)

    def store_with_augmentation(self, traj: Trajectory) -> int:
        """Push the rollout and its augmented copies; returns count stored."""
        self.buffer.push(traj)
        copies = augment_trajectory(traj, self.aug_spec, self.env.reward_spec,
                                    self.augment_rng)
        for c in copies:
            self.buffer.push(c)
        return 1 + len(copies)

    def bootstrap_phase(self, log: "CsvLog | None" = None, stop: int | None = None) -> None:
        """Demonstration episodes 1..M; fills the buffer, no gradient steps."""
        cfg = self.cfg
        stop = cfg.bootstrap_episodes if stop is None else min(stop, cfg.bootstrap_episodes)
        controller = "random" if cfg.no_bootstrap else "pid"
        while self.episode_idx < stop:
            traj = self.rollout(controller)
            self.store_with_augmentation(traj)
            self.episode_idx += 1
            if log is not None:
                avg = float(traj.rewards.mean())
                log.row([self.episode_idx, controller, traj.length,
                         float(traj.rewards.sum()), avg])

    # -- training ----------------------------------------------------------

    def train_episode(self) -> tuple[Trajectory, dict | None]:
        """One policy episode plus k gradient updates; returns mean losses."""
        cfg = self.cfg
        traj = self.rollout("policy")
        self.store_with_augmentation(traj)
        self.episode_idx += 1
        if len(self.buffer) < cfg.batch_size:
            return traj, None
        sums: dict[str, float] = {}
        for _ in range(cfg.updates_per_episode):
            batch = self.buffer.sample(cfg.batch_size, self.sample_rng)
            report = self.agent.update(batch, cfg.gamma)
            for k, v in report.items():
                sums[k] = sums.get(k, 0.0) + v
        return traj, {k: v / cfg.updates_per_episode for k, v in sums.items()}

    def train(self, stop_after: int | None = None, progress=None) -> str:
        """Run the schedule up to cfg.episodes (or stop_after, for later resume).

        Returns the run directory. A rolling full checkpoint supports exact
        resume: restoring it and calling train() again continues the run
        byte-identically to one uninterrupted execution.
        """
        cfg = self.cfg
        stop = cfg.episodes if stop_after is None else min(stop_after, cfg.episodes)
        os.makedirs(cfg.out_dir, exist_ok=True)
        provenance = f"musclerl config_sha256={cfg.config_hash()} seed={cfg.seed} {CODE_STAMP}"
        rewards = CsvLog(os.path.join(cfg.out_dir, "rewards.csv"),
                         ["episode", "controller", "steps", "episode_return", "avg_reward"],
                         provenance, truncate_after=self.episode_idx)
        losses = CsvLog(os.path.join(cfg.out_dir, "losses.csv"),
                        ["episode", "critic1_loss", "critic2_loss", "actor_loss",
                         "alpha_loss", "alpha", "entropy"],
                        provenance, truncate_after=self.episode_idx)
        ckpt_path = os.path.join(cfg.out_dir, "checkpoint.ckpt")
        try:
            if self.episode_idx < cfg.bootstrap_episodes:
                self.bootstrap_phase(rewards, stop)
                self.save(ckpt_path)
            while self.episode_idx < stop:
                try:
                    traj, report = self.train_episode()
                except FloatingPointError as err:
                    self._dump_abort(str(err))
                    raise
                rewards.row([self.episode_idx, "policy", traj.length,
                             float(traj.rewards.sum()), float(traj.rewards.mean())])
                if report is not None:
                    losses.row([self.episode_idx, report["critic1_loss"],
                                report["critic2_loss"], report["actor_loss"],
                                report["alpha_loss"], report["alpha"], report["entropy"]])
                if self.episode_idx % cfg.checkpoint_every == 0:
                    self.save(ckpt_path)
                if progress is not None:
                    progress(self.episode_idx)
            self.save(ckpt_path)
            if self.episode_idx >= cfg.episodes:
                self.save(os.path.join(cfg.out_dir, "final.ckpt"))
                self.save(os.path.join(cfg.out_dir, "policy_final.ckpt"), include_buffer=False)
        finally:
            rewards.close()
            losses.close()
        return cfg.out_dir

    def _dump_abort(self, message: str) -> None:
        path = os.path.join(self.cfg.out_dir, "abort.json")
        with open(path, "w") as fh:
            json.dump({"episode": self.episode_idx, "error": message,
                       "alpha": self.agent.alpha,
                       "adam_skipped": [self.agent.opt_actor.skipped,
                                        self.agent.opt_q1.skipped,
                                        self.agent.opt_q2.skipped]}, fh, indent=2)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str, include_buffer: bool = True) -> None:
        ag = self.agent
        arrays = {
            "actor": ag.actor.flat,
            "q1": ag.q1.flat,
            "q2": ag.q2.flat,
            "q1_target": ag.q1_target.flat,
            "q2_target": ag.q2_target.flat,
            "log_alpha": ag.log_alpha,
            "opt_actor_m": ag.opt_actor.m, "opt_actor_v": ag.opt_actor.v,
            "opt_q1_m": ag.opt_q1.m, "opt_q1_v": ag.opt_q1.v,
            "opt_q2_m": ag.opt_q2.m, "opt_q2_v": ag.opt_q2.v,
            "opt_alpha_m": ag.opt_alpha.m, "opt_alpha_v": ag.opt_alpha.v,
        }
        meta = {
            "kind": "full" if include_buffer else "policy",
            "version": __version__,
            "numerics": NUMERICS,
            "config": self.cfg.to_dict(),
            "config_hash": self.cfg.config_hash(),
            "episode": self.episode_idx,
            "opt_t": [ag.opt_actor.t, ag.opt_q1.t, ag.opt_q2.t, ag.opt_alpha.t],
            "opt_skipped": [ag.opt_actor.skipped, ag.opt_q1.skipped,
                            ag.opt_q2.skipped, ag.opt_alpha.skipped],
            "rng": {
                "env_params": self.env._params_rng.get_state(),
                "env_target": self.env._target_rng.get_state(),
                "env_noise": [r.get_state() for r in self.env._noise_rngs],
                "agent_noise": ag._noise_rng.get_state(),
                "sample": self.sample_rng.get_state(),
                "augment": self.augment_rng.get_state(),
                "warmup": self.warmup_rng.get_state(),
                "rollout": self.rollout_rng.get_state(),
            },
        }
        if include_buffer:
            items = self.buffer.snapshot()
            meta["buffer"] = {
                "count": len(items),
                "next": self.buffer._next,
                "controllers": [t.controller for t in items],
                "truncated": [bool(t.truncated) for t in items],
            }
            if items:
                arrays["buf_obs"] = np.stack([t.obs for t in items])
                arrays["buf_outputs"] = np.stack([t.outputs for t in items])
                arrays["buf_actions"] = np.stack([t.actions for t in items])
                arrays["buf_rewards"] = np.stack([t.rewards for t in items])
        save_checkpoint(path, meta, arrays)

    @classmethod
    def restore(cls, path: str, resume: bool = False) -> "Trainer":
        """Rebuild the trainer a checkpoint was saved from.

        The checkpoint must carry this code's numerics stamp. resume=True
        also requires a full checkpoint, since continuing a run exactly
        needs its replay buffer.
        """
        meta, arrays = load_checkpoint(path)
        if meta.get("numerics") != NUMERICS:
            raise ValueError(f"{path}: numerics {meta.get('numerics')} differ from this "
                             f"code's {NUMERICS}; the run cannot continue exactly")
        if resume and meta["kind"] != "full":
            raise ValueError(f"{path}: a {meta['kind']} checkpoint has no replay buffer; "
                             "resume needs a full checkpoint")
        cfg = RunConfig(**meta["config"])
        tr = cls(cfg)
        ag = tr.agent
        ag.actor.flat[:] = arrays["actor"]
        ag.q1.flat[:] = arrays["q1"]
        ag.q2.flat[:] = arrays["q2"]
        ag.q1_target.flat[:] = arrays["q1_target"]
        ag.q2_target.flat[:] = arrays["q2_target"]
        ag.log_alpha[:] = arrays["log_alpha"]
        for opt, name, t, skipped in zip(
            (ag.opt_actor, ag.opt_q1, ag.opt_q2, ag.opt_alpha),
            ("opt_actor", "opt_q1", "opt_q2", "opt_alpha"),
            meta["opt_t"], meta["opt_skipped"],
        ):
            opt.m[:] = arrays[name + "_m"]
            opt.v[:] = arrays[name + "_v"]
            opt.t = int(t)
            opt.skipped = int(skipped)
        ag.refresh_stacks()
        rng = meta["rng"]
        tr.env._params_rng.set_state(rng["env_params"])
        tr.env._target_rng.set_state(rng["env_target"])
        for r, st in zip(tr.env._noise_rngs, rng["env_noise"]):
            r.set_state(st)
        ag._noise_rng.set_state(rng["agent_noise"])
        tr.sample_rng.set_state(rng["sample"])
        tr.augment_rng.set_state(rng["augment"])
        tr.warmup_rng.set_state(rng["warmup"])
        tr.rollout_rng.set_state(rng["rollout"])
        tr.episode_idx = int(meta["episode"])
        if "buffer" in meta and meta["buffer"]["count"] > 0:
            b = meta["buffer"]
            for i in range(b["count"]):
                tr.buffer.push(Trajectory(
                    arrays["buf_obs"][i], arrays["buf_outputs"][i],
                    arrays["buf_actions"][i], arrays["buf_rewards"][i],
                    truncated=b["truncated"][i], controller=b["controllers"][i]))
            tr.buffer._next = int(b["next"])
        return tr


def load_policy(path: str) -> tuple[SacAgent, RunConfig]:
    """Rebuild just the agent from a (policy or full) checkpoint."""
    meta, arrays = load_checkpoint(path)
    cfg = RunConfig(**meta["config"]).resolved()
    master = SeededRng(cfg.seed)
    master.split("env")
    if cfg.preset == "eye":
        center, half = 0.0, 10.0
    else:
        center, half = 5.0, 5.0
    action_dim = 2 if cfg.preset == "eye" else 3
    agent = SacAgent(obs_dim=6, action_dim=action_dim, rng=master.split("agent"),
                     gru_hidden=cfg.gru_hidden, lr=cfg.lr, tau=cfg.tau,
                     action_center=center, action_half=half)
    agent.actor.flat[:] = arrays["actor"]
    agent.q1.flat[:] = arrays["q1"]
    agent.q2.flat[:] = arrays["q2"]
    agent.q1_target.flat[:] = arrays["q1_target"]
    agent.q2_target.flat[:] = arrays["q2_target"]
    agent.log_alpha[:] = arrays["log_alpha"]
    agent.refresh_stacks()
    return agent, cfg
