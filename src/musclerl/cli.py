"""Command-line entry points.

    musclerl train            run the training schedule, emit CSVs/checkpoints
    musclerl eval-field       grid steady-state evaluation of a checkpoint or PID
    musclerl episode          one logged episode (policy or PID) for trajectory plots
    musclerl calibrate-plant  check/scan plant defaults against the PID gate

Ablation switches on train: --no-bootstrap (uniform-random warm-up instead
of PID), --no-augment, --no-randomize; together they reduce training to the
plain algorithm on the nominal plant.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import CODE_STAMP, RunConfig, load_config
from .env import EpisodeConfig, TrackingEnv
from .fieldtest import (
    FieldTestSpec,
    PolicyController,
    field_spec_for,
    pid_controller_for,
    run_field_test,
    steady_state_error,
    summarize,
    write_field_csv,
)
from .randomize import NO_RANDOMIZATION, SeededRng
from .trainer import Trainer, load_policy


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", choices=["eye", "wrist"])
    p.add_argument("--seed", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--bootstrap-episodes", type=int, dest="bootstrap_episodes")
    p.add_argument("--gru-hidden", type=int, dest="gru_hidden")
    p.add_argument("--augment-copies", type=int, dest="augment_copies")
    p.add_argument("--augment-delta", type=float, dest="augment_delta")
    p.add_argument("--pid-gain-scale", type=float, dest="pid_gain_scale")
    p.add_argument("--variance-multiplier", type=float, dest="variance_multiplier",
                   help="scale randomization interval widths and noise SDs")
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    p.add_argument("--no-bootstrap", action="store_const", const=True, dest="no_bootstrap")
    p.add_argument("--no-augment", action="store_const", const=True, dest="no_augment")
    p.add_argument("--no-randomize", action="store_const", const=True, dest="no_randomize")
    p.add_argument("--out-dir", dest="out_dir")


def _config_overrides(args) -> dict:
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_train(args) -> int:
    overrides = _config_overrides(args)
    if args.resume:
        # a resumed run continues under the checkpoint's own config
        if overrides or args.config:
            flags = sorted(overrides) + (["config"] if args.config else [])
            print(f"train --resume takes no config flags (got {', '.join(flags)}); "
                  "only --stop-after may go with it", file=sys.stderr)
            return 2
        try:
            trainer = Trainer.restore(args.resume, resume=True)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        print(f"resumed at episode {trainer.episode_idx} from {args.resume}")
    else:
        trainer = Trainer(load_config(args.config, overrides))
    resolved = trainer.cfg
    print(f"training {resolved.preset}: N={resolved.episodes} M={resolved.bootstrap_episodes} "
          f"seed={resolved.seed} hash={resolved.config_hash()} -> {resolved.out_dir}")

    def progress(ep):
        if ep % 50 == 0:
            print(f"  episode {ep}/{resolved.episodes}", flush=True)

    trainer.train(stop_after=args.stop_after, progress=progress)
    print(f"done: {trainer.episode_idx} episodes")
    return 0


def cmd_eval_field(args) -> int:
    if args.pid:
        preset = args.preset or "wrist"
        controller = pid_controller_for(preset, args.pid_gain_scale or 1.0)
        provenance = f"musclerl field test controller=pid preset={preset} seed=0"
        plant = None
    else:
        if not args.checkpoint:
            print("eval-field needs --checkpoint or --pid", file=sys.stderr)
            return 2
        agent, cfg = load_policy(args.checkpoint)
        preset = cfg.preset
        controller = PolicyController(agent)
        provenance = (f"musclerl field test controller=policy preset={preset} "
                      f"config_sha256={cfg.config_hash()} seed={cfg.seed}")
        plant = cfg.plant_config()
    spec = field_spec_for(preset)
    if args.duration:
        spec = FieldTestSpec(duration=args.duration,
                             settle=min(spec.settle, args.duration))
    rows = run_field_test(preset, controller, spec, plant=plant)
    s = summarize(rows)
    if args.out:
        write_field_csv(args.out, rows, provenance)
        print(f"wrote {args.out}")
    print(f"{preset} field test over {s['count']} targets: "
          f"mean={s['mean']:.3f} sd={s['sd']:.3f} median={s['median']:.3f} "
          f"q1={s['q1']:.3f} q3={s['q3']:.3f} max={s['max']:.3f} (deg)")
    return 0


def cmd_episode(args) -> int:
    if args.pid:
        preset = args.preset or "wrist"
        controller = pid_controller_for(preset, args.pid_gain_scale or 1.0)
        plant = None
    else:
        if not args.checkpoint:
            print("episode needs --checkpoint or --pid", file=sys.stderr)
            return 2
        agent, cfg = load_policy(args.checkpoint)
        preset = cfg.preset
        controller = PolicyController(agent)
        plant = cfg.plant_config()
    duration = args.duration or (15.0 if preset == "eye" else 20.0)
    steps = round(duration / 0.5)
    env = TrackingEnv(preset, SeededRng(args.seed or 0),
                      episode=EpisodeConfig(episode_length=steps, target_range=0.0),
                      randomization=NO_RANDOMIZATION, plant_config=plant)
    obs = env.reset()
    env.target = np.array([args.target1, args.target2])
    obs[4:6] = env.target
    controller.reset()
    lines = ["t,angle1,rate1,angle2,rate2," +
             ",".join(f"action{i+1}" for i in range(env.action_dim)) + "," +
             ",".join(f"volt{i+1}" for i in range(env.active.n_muscles)) + ",reward"]
    angles = []
    for t in range(steps):
        a = controller.act(obs, dt=0.5)
        y = env.true_output()
        obs, r, done, info = env.step(a)
        cells = [repr(0.5 * t), repr(y[0]), repr(y[1]), repr(y[2]), repr(y[3])]
        cells += [repr(float(v)) for v in np.atleast_1d(a)]
        cells += [repr(float(v)) for v in info["voltages"]]
        cells.append(repr(r))
        lines.append(",".join(cells))
        angles.append(env.state.angles.copy())
    y = env.true_output()
    final = [repr(0.5 * steps), repr(y[0]), repr(y[1]), repr(y[2]), repr(y[3])]
    final += [""] * (env.action_dim + env.active.n_muscles + 1)
    lines.append(",".join(final))
    e_ss = steady_state_error(np.array(angles), env.target, round(5.0 / 0.5))
    text = "\n".join([f"# musclerl episode preset={preset} seed={args.seed or 0} "
                      f"target=({args.target1},{args.target2}) {CODE_STAMP}"] + lines) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"e_ss over final 5 s: {e_ss:.4f} deg")
    return 0


def cmd_calibrate(args) -> int:
    from .plant import PLANT_PRESETS
    preset = args.preset or "wrist"
    duration = 25.0 if preset == "wrist" else 15.0
    rise_band = (5.0, 15.0) if preset == "wrist" else (3.5, 6.5)

    def gate(plant):
        from .pid import PidActionPolicy, gains_for
        env = TrackingEnv(preset, SeededRng(0),
                          episode=EpisodeConfig(episode_length=round(duration / 0.5),
                                                target_range=0.0),
                          randomization=NO_RANDOMIZATION, plant_config=plant)
        obs = env.reset()
        env.target = np.array([5.0, 5.0])
        obs[4:6] = env.target
        pol = PidActionPolicy(preset, plant, gains_for(preset, plant))
        pol.reset()
        angles, rise = [], None
        for t in range(env.episode.episode_length):
            a = pol.act(obs, dt=0.5)
            obs, _, _, _ = env.step(a)
            angles.append(env.state.angles.copy())
            err = float(np.hypot(env.state.angles[0] - 5.0, env.state.angles[1] - 5.0))
            if rise is None and err < 0.1 * np.hypot(5.0, 5.0):
                rise = 0.5 * (t + 1)
        e_ss = steady_state_error(np.array(angles), (5.0, 5.0), round(5.0 / 0.5))
        return rise, e_ss

    base = PLANT_PRESETS[preset]()
    if args.scan:
        print("J_scale,d_scale,rise_s,e_ss_deg,pass")
        for js in (0.5, 1.0, 2.0):
            for ds in (0.5, 1.0, 2.0):
                plant = dataclasses.replace(base, J=base.J * js, d=base.d * ds)
                rise, e_ss = gate(plant)
                ok = rise is not None and rise_band[0] <= rise <= rise_band[1] and e_ss < 1.5
                print(f"{js},{ds},{rise},{e_ss:.3f},{ok}")
        return 0
    rise, e_ss = gate(base)
    ok = rise is not None and rise_band[0] <= rise <= rise_band[1] and e_ss < 1.5
    print(f"{preset} PID gate at (5,5): rise={rise} s (band {rise_band}), "
          f"e_ss={e_ss:.3f} deg (< 1.5) -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="musclerl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training schedule")
    _add_config_flags(p)
    p.add_argument("--resume", help="full checkpoint to continue from")
    p.add_argument("--stop-after", type=int, dest="stop_after",
                   help="pause after this many episodes (resume later)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-field", help="steady-state grid evaluation")
    p.add_argument("--checkpoint", help="policy checkpoint to evaluate")
    p.add_argument("--pid", action="store_true", help="evaluate the stock PID instead")
    p.add_argument("--preset", choices=["eye", "wrist"], help="plant preset (PID mode)")
    p.add_argument("--pid-gain-scale", type=float, dest="pid_gain_scale")
    p.add_argument("--duration", type=float, help="override per-target episode seconds")
    p.add_argument("--out", help="write the grid CSV here")
    p.set_defaults(func=cmd_eval_field)

    p = sub.add_parser("episode", help="one logged episode")
    p.add_argument("--checkpoint")
    p.add_argument("--pid", action="store_true")
    p.add_argument("--preset", choices=["eye", "wrist"])
    p.add_argument("--pid-gain-scale", type=float, dest="pid_gain_scale")
    p.add_argument("--target1", type=float, default=5.0)
    p.add_argument("--target2", type=float, default=5.0)
    p.add_argument("--duration", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("calibrate-plant", help="PID calibration gate / scan")
    p.add_argument("--preset", choices=["eye", "wrist"])
    p.add_argument("--scan", action="store_true", help="scan J/d scale grid")
    p.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
