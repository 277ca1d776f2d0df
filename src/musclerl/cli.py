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
import math
import os
import sys

from .config import CODE_STAMP, RunConfig, field_type, load_config
from .env import ACTION_PERIOD, PRESETS, run_episode
from .fieldtest import (
    PolicyController,
    field_spec_for,
    make_eval_env,
    pid_controller_for,
    pid_gate,
    run_field_test,
    steady_state_error,
    summarize,
    write_field_csv,
)
from .trainer import Trainer, load_policy


# the RunConfig fields train takes as --flag-name, in --help order
_CONFIG_FLAGS = ("seed", "episodes", "bootstrap_episodes", "gru_hidden", "augment_copies",
                 "augment_delta", "pid_gain_scale", "variance_multiplier", "checkpoint_every",
                 "no_bootstrap", "no_augment", "no_randomize", "out_dir")
_FLAG_HELP = {"variance_multiplier": "scale randomization interval widths and noise SDs"}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    for name in _CONFIG_FLAGS:
        flag = "--" + name.replace("_", "-")
        kind, _ = field_type(name)
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True, dest=name)
        else:
            p.add_argument(flag, type=kind, dest=name, help=_FLAG_HELP.get(name))


def _config_overrides(args) -> dict:
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _opened(load, path):
    """load(path), or None after printing why the checkpoint, config or duration is unusable.

    A missing, truncated, corrupt, old-version or other-numerics checkpoint,
    one whose config has a key RunConfig lacks, a missing or bad config
    file or value, and a field-test duration with no whole action step end
    the command with one line on stderr instead of a traceback.
    """
    try:
        return load(path)
    except (ValueError, OSError) as err:
        print(err, file=sys.stderr)
        return None


def _controller(args):
    """(preset, controller, checkpoint cfg or None) from the flags, or None after printing why."""
    if args.pid:
        preset = args.preset or RunConfig.preset
        return preset, pid_controller_for(preset), None
    if not args.checkpoint:
        print(f"{args.command} needs --checkpoint or --pid", file=sys.stderr)
        return None
    loaded = _opened(load_policy, args.checkpoint)
    if loaded is None:
        return None
    agent, cfg = loaded
    return cfg.preset, PolicyController(agent), cfg


def cmd_train(args) -> int:
    overrides = _config_overrides(args)
    if args.resume:
        # a resumed run continues under the checkpoint's own config
        if overrides or args.config:
            flags = sorted(overrides) + (["config"] if args.config else [])
            print(f"train --resume takes no config flags (got {', '.join(flags)}); "
                  "only --stop-after may go with it", file=sys.stderr)
            return 2
        trainer = _opened(lambda p: Trainer.restore(p, resume=True), args.resume)
        if trainer is None:
            return 2
        print(f"resumed at episode {trainer.episode_idx} from {args.resume}")
    else:
        trainer = _opened(lambda p: Trainer(load_config(p, overrides)), args.config)
        if trainer is None:
            return 2
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
    resolved = _controller(args)
    if resolved is None:
        return 2
    preset, controller, cfg = resolved
    plant = None if cfg is None else cfg.plant_config()
    provenance = f"musclerl field test controller=pid preset={preset} seed=0"
    if cfg is not None:
        provenance = (f"musclerl field test controller=policy preset={preset} "
                      f"config_sha256={cfg.config_hash()} seed={cfg.seed}")
    spec = _opened(lambda d: field_spec_for(preset, d), args.duration)
    if spec is None:
        return 2
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
    target = (args.target1, args.target2)
    if not all(map(math.isfinite, target)):
        print(f"episode targets must be finite, got {target}", file=sys.stderr)
        return 2
    resolved = _controller(args)
    if resolved is None:
        return 2
    preset, controller, cfg = resolved
    plant = None if cfg is None else cfg.plant_config()
    duration = PRESETS[preset].steps * ACTION_PERIOD if args.duration is None else args.duration
    spec = _opened(lambda d: field_spec_for(preset, d), duration)
    if spec is None:
        return 2
    env = make_eval_env(preset, spec, plant)
    _, outputs, actions, rewards = (r[0] for r in run_episode(env, controller, [target]))
    lines = ["t,angle1,rate1,angle2,rate2," +
             ",".join(f"action{i+1}" for i in range(env.action_dim)) + "," +
             ",".join(f"volt{i+1}" for i in range(env.nominal.n_muscles)) + ",reward"]
    for t, y in enumerate(outputs):
        cells = [repr(ACTION_PERIOD * t)] + [repr(float(v)) for v in y]
        if t < spec.steps:
            cells += [repr(float(v)) for v in actions[t]]
            cells += [repr(float(v)) for v in env.map_action(actions[t])]
            cells.append(repr(float(rewards[t])))
        else:  # the final state has no action
            cells += [""] * (env.action_dim + env.nominal.n_muscles + 1)
        lines.append(",".join(cells))
    e_ss = steady_state_error(outputs[1:, ::2], target, spec.settle_steps)
    seed = 0 if cfg is None else cfg.seed
    text = "\n".join([f"# musclerl episode preset={preset} seed={seed} "
                      f"target=({args.target1},{args.target2}) {CODE_STAMP}"] + lines) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"e_ss over final {spec.settle:g} s: {e_ss:.4f} deg")
    return 0


def cmd_calibrate(args) -> int:
    preset = args.preset or RunConfig.preset
    rise_band = PRESETS[preset].rise_band

    def passes(rise, e_ss):
        return rise is not None and rise_band[0] <= rise <= rise_band[1] and e_ss < 1.5

    base = PRESETS[preset].plant()
    if args.scan:
        print("J_scale,d_scale,rise_s,e_ss_deg,pass")
        for js in (0.5, 1.0, 2.0):
            for ds in (0.5, 1.0, 2.0):
                rise, e_ss = pid_gate(preset, dataclasses.replace(base, J=base.J * js,
                                                                  d=base.d * ds))
                print(f"{js},{ds},{rise},{e_ss:.3f},{passes(rise, e_ss)}")
        return 0
    rise, e_ss = pid_gate(preset, base)
    ok = passes(rise, e_ss)
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
    p.add_argument("--preset", choices=sorted(PRESETS), help="plant preset (PID mode)")
    p.add_argument("--duration", type=float, help="override per-target episode seconds")
    p.add_argument("--out", help="write the grid CSV here")
    p.set_defaults(func=cmd_eval_field)

    p = sub.add_parser("episode", help="one logged episode")
    p.add_argument("--checkpoint")
    p.add_argument("--pid", action="store_true")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--target1", type=float, default=5.0)
    p.add_argument("--target2", type=float, default=5.0)
    p.add_argument("--duration", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("calibrate-plant", help="PID calibration gate / scan")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--scan", action="store_true", help="scan J/d scale grid")
    p.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
