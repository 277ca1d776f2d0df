"""End-to-end training loop: demonstration phase, learning phase, artifacts.

Phase one rolls out the PID controller (or uniform-random actions when the
bootstrap is disabled) for the first M episodes, storing each trajectory
with its target relabels; no gradient steps happen here. Either way the
episodes run in lockstep, up to DEMONSTRATION_ROWS at a time as the rows
of the training env, whose reset makes one draw per stream for all of
them, as does the uniform controller's; their relabels are drawn and
scored in one pass per call, and the episodes are then stored and logged
in episode order, which gives every random stream, buffer slot and log
row that one episode at a time gives. Phase two rolls out the current
policy one episode at a time, augments, stores, and runs k gradient
updates per episode. Muscle dynamics resample every reset.

Artifacts (under the run directory): rewards.csv with one row per episode,
losses.csv with per-episode mean losses, a rolling full checkpoint for
resume, and a final checkpoint plus a policy checkpoint that holds the
actor alone. Every CSV starts with a comment line carrying the config hash
and seed, and all randomness flows from the run seed through named
streams, so reruns and resumed runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .augment import AugmentationSpec, augment_trajectory
from .checkpoint import load_checkpoint, save_checkpoint
from .config import CODE_STAMP, NUMERICS, RunConfig, __version__
from .env import TrackingEnv, run_episode
from .fieldtest import PolicyController
from .pid import PidActionPolicy, gains_for
from .randomize import NO_RANDOMIZATION, RandomizationSpec, SeededRng
from .sac import ReplayBuffer, SacAgent, Trajectory

# Demonstration episodes per lockstep call. A call's reset builds one
# plant StepMap for all its rows, whose stack (10.75 kB a row) the rows
# step on; the build holds two substep powers besides, so it peaks at
# 1.7x the stack. For the stock wrist PID phase (500 episodes, width 64)
# the phase took a median 0.10-0.12 s of CPU at 25 rows, 0.07 s at 50,
# 0.06-0.07 s at 100, 0.057 s at 250 and 1.2-1.7 s one row at a time (15
# phases each, 3 at one row), and its peak RSS rose by 0.4 MB at 25 rows,
# 1.3 MB at 50, 3.2 MB at 100 and 7.9 MB at 250 over one row at a time
# (one BLAS thread, shared 2-vCPU VM). Past 100 rows memory keeps growing
# and time hardly falls. The stock uniform warm-up (width 64, median of 5)
# took 0.046 s of CPU at 100 rows against 0.78 s one row at a time on the
# wrist (500 episodes) and 0.025 s against 0.37 s on the eye (250), and it
# raised the built trainer's peak RSS by 8.5 MB against 5.5 MB on the wrist
# and 4.5 MB against 1.9 MB on the eye.
DEMONSTRATION_ROWS = 100


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


class UniformController:
    """Uniform-random actions over the action box (the no-bootstrap warm-up).

    reset(n) draws the n rows' whole (n, steps, A) action block in one
    call, row after row, and act returns the next step's (n, A) rows: the
    values and the stream state of n one-row episodes drawing (1, A) per
    step. The observations go unread.
    """

    def __init__(self, rng: SeededRng, low: np.ndarray, high: np.ndarray, steps: int):
        self.rng, self.low, self.high, self.steps = rng, low, high, steps

    def reset(self, n: int = 1) -> None:
        block = self.rng.uniform(self.low, self.high, size=(n, self.steps, self.low.size))
        self._by_step = iter(block.swapaxes(0, 1))

    def act(self, obs) -> np.ndarray:
        return next(self._by_step)


class Trainer:
    """Owns the environment, agent, buffer, and every random stream."""

    def __init__(self, cfg: RunConfig, actor_only: bool = False):
        """A fresh trainer for cfg.

        actor_only builds the actor without the learner (critics, targets,
        optimizers): such a trainer acts and saves policy checkpoints but
        refuses to train or to write a full checkpoint.
        """
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
        self.env = TrackingEnv(cfg.preset, master.split("env"), steps=cfg.episode_length,
                               target_range=cfg.target_range, randomization=randomization,
                               plant_config=cfg.plant_config())
        low, high = self.env.action_low, self.env.action_high
        self.agent = SacAgent(
            obs_dim=6,
            action_dim=self.env.action_dim,
            rng=master.split("agent"),
            gru_hidden=cfg.gru_hidden,
            lr=cfg.lr,
            tau=cfg.tau,
            action_center=(low + high) / 2,
            action_half=(high - low) / 2,
            actor_only=actor_only,
        )
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.sample_rng = master.split("replay")
        self.augment_rng = master.split("augment")
        self.warmup_rng = master.split("warmup")
        self.rollout_rng = master.split("rollout-noise")
        self.aug_spec = AugmentationSpec(
            n_copies=0 if cfg.no_augment else cfg.augment_copies,
            delta=cfg.augment_delta,
            target_range=cfg.target_range,
        )
        nominal = self.env.nominal
        self.controllers = {
            "pid": PidActionPolicy(cfg.preset, nominal,
                                   gains_for(cfg.preset, nominal, scale=cfg.pid_gain_scale)),
            "random": UniformController(self.warmup_rng, low, high, self.env.steps),
            "policy": PolicyController(self.agent, rng=self.rollout_rng),
        }
        self.episode_idx = 0  # completed episodes
        self.actor_only = actor_only

    # -- rollouts ----------------------------------------------------------

    def rollout(self, kind: str, rows: int = 1) -> list[Trajectory]:
        """rows full episodes in lockstep under 'pid', 'random', or 'policy' control.

        The episodes come back in the order their rows reset in.
        """
        obs, outputs, actions, rewards = run_episode(self.env, self.controllers[kind],
                                                     rows=rows)
        return [Trajectory(*row, controller=kind)
                for row in zip(obs, outputs, actions, rewards)]

    def store_with_augmentation(self, *trajs: Trajectory) -> None:
        """Push the episodes in order, each followed by its relabels.

        One augment_trajectory call draws and scores every episode's relabels.
        """
        targets, rewards = augment_trajectory(trajs, self.aug_spec, self.env.reward_spec,
                                              self.augment_rng)
        for traj, t, r in zip(trajs, targets, rewards):
            self.buffer.push(traj, t, r)

    def bootstrap_phase(self, log: "CsvLog | None" = None, stop: int | None = None) -> None:
        """Demonstration episodes 1..M (or up to stop); fills the buffer, no gradient steps.

        The PID episodes, or the uniform warm-up's, run DEMONSTRATION_ROWS
        at a time in lockstep; each episode is stored with its relabels
        and logged in episode order.
        """
        cfg = self.cfg
        stop = cfg.bootstrap_episodes if stop is None else min(stop, cfg.bootstrap_episodes)
        controller = "random" if cfg.no_bootstrap else "pid"
        while self.episode_idx < stop:
            trajs = self.rollout(controller, min(DEMONSTRATION_ROWS, stop - self.episode_idx))
            self.store_with_augmentation(*trajs)
            for traj in trajs:
                self.episode_idx += 1
                if log is not None:
                    avg = float(traj.rewards.mean())
                    log.row([self.episode_idx, controller, traj.length,
                             float(traj.rewards.sum()), avg])
        # the last call's rows need not live on through the checkpoint
        # that follows the phase
        self.env.release()

    # -- training ----------------------------------------------------------

    def train_episode(self) -> tuple[Trajectory, dict | None]:
        """One policy episode plus k gradient updates; returns mean losses."""
        cfg = self.cfg
        (traj,) = self.rollout("policy")
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
        if self.actor_only:
            raise ValueError("a trainer restored from a policy checkpoint holds only the "
                             "actor; training needs a full checkpoint")
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
                       "adam_skipped": self.agent.state()[0]["opt_skipped"]}, fh, indent=2)

    # -- persistence ---------------------------------------------------------

    def rng_streams(self) -> dict:
        """Every random stream of the run by its checkpoint name; env_noise is a list."""
        return {"env_params": self.env._params_rng, "env_target": self.env._target_rng,
                "env_noise": self.env._noise_rngs, "agent_noise": self.agent._noise_rng,
                "sample": self.sample_rng, "augment": self.augment_rng,
                "warmup": self.warmup_rng, "rollout": self.rollout_rng}

    def save(self, path: str, include_buffer: bool = True) -> None:
        """Write a full checkpoint, or with include_buffer=False a policy one.

        A full checkpoint holds the agent's whole learner state (see
        SacAgent.state), every random stream and the replay buffer in its
        own layout (see ReplayBuffer.state): each episode's physics once,
        plus one target row per relabel. A policy checkpoint holds the
        actor's flat alone, plus the meta that rebuilds it: kind, version,
        numerics, config, config_hash and episode.
        """
        if include_buffer and self.actor_only:
            raise ValueError("a trainer restored from a policy checkpoint has no learner "
                             "state to write a full checkpoint from")
        agent_meta, arrays = self.agent.state(policy=not include_buffer)
        meta = {
            "kind": "full" if include_buffer else "policy",
            "version": __version__,
            "numerics": NUMERICS,
            "config": self.cfg.to_dict(),
            "config_hash": self.cfg.config_hash(),
            "episode": self.episode_idx,
            **agent_meta,
        }
        if include_buffer:
            meta["rng"] = {name: [r.get_state() for r in s] if isinstance(s, list)
                           else s.get_state() for name, s in self.rng_streams().items()}
            meta["buffer"], buffer_arrays = self.buffer.state()
            arrays.update(buffer_arrays)
        save_checkpoint(path, meta, arrays)

    @classmethod
    def restore(cls, path: str, resume: bool = False) -> "Trainer":
        """Rebuild the trainer a checkpoint was saved from.

        The checkpoint must carry this code's numerics stamp, a config of
        RunConfig's keys alone and every array its kind needs. A full
        checkpoint restores everything, and the buffer rebuilds its
        rewards. A policy checkpoint restores the actor and the episode
        count into an actor_only trainer, which holds no critics, targets,
        optimizer moments or replay data: it can act and save a policy
        checkpoint but refuses to train. Older layouts that also stored
        rewards, or (policy) the whole learner, restore the same way.
        resume=True requires a full checkpoint, since continuing a run
        exactly needs its replay buffer.
        """
        meta, arrays = load_checkpoint(path)
        if meta.get("numerics") != NUMERICS:
            raise ValueError(f"{path}: numerics {meta.get('numerics')} differ from this "
                             f"code's {NUMERICS}; the run cannot continue exactly")
        unknown = sorted(set(meta["config"]) - {f.name for f in dataclasses.fields(RunConfig)})
        if unknown:
            raise ValueError(f"{path}: config has keys this code's RunConfig lacks: "
                             f"{', '.join(unknown)}; the run cannot be rebuilt")
        kind = meta.get("kind")
        if kind not in ("full", "policy"):
            raise ValueError(f"{path}: unknown checkpoint kind {kind!r}")
        if resume and kind != "full":
            raise ValueError(f"{path}: a {kind} checkpoint has no replay buffer; "
                             "resume needs a full checkpoint")
        if "count" in meta.get("buffer", {}):
            raise ValueError(f"{path}: replay buffer saved one copy per augmented episode, "
                             "a layout this code no longer reads; start the run afresh")
        policy = kind == "policy"
        tr = cls(RunConfig(**meta["config"]), actor_only=policy)
        needed = list(tr.agent.state(policy)[1])
        if not policy and meta["buffer"]["slots"]:
            needed += ReplayBuffer.ARRAYS
        for name in needed:
            if name not in arrays:
                raise ValueError(f"{path}: {kind} checkpoint has no array {name!r}")
        tr.agent.load_state(meta, arrays, policy)
        tr.episode_idx = int(meta["episode"])
        if not policy:
            for name, stream in tr.rng_streams().items():
                state = meta["rng"][name]
                for r, st in zip(stream, state) if isinstance(stream, list) else [(stream, state)]:
                    r.set_state(st)
            tr.buffer.load_state(meta["buffer"], arrays, tr.env.reward_spec)
        return tr


def load_policy(path: str) -> tuple[SacAgent, RunConfig]:
    """The agent and config of a (policy or full) checkpoint, via Trainer.restore.

    A policy checkpoint gives an actor-only agent (see SacAgent).
    """
    tr = Trainer.restore(path)
    return tr.agent, tr.cfg
