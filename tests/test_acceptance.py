"""Acceptance suite: one test per release criterion, one printed line each.

Criteria 1-5 and 9 are self-contained and fast. Criteria 6-8 evaluate real
training artifacts: run scripts/acceptance_runs.sh (about 6 h on one desktop
core) to produce runs/, or set MUSCLERL_RUN_TRAINING=1 to let the tests
launch the runs themselves; without artifacts those three tests skip with
instructions rather than fake a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from musclerl.augment import AugmentationSpec, augment_trajectory
from musclerl.config import RunConfig, load_config
from musclerl.env import WRIST_REWARD, reward
from musclerl.fieldtest import (
    PolicyController,
    field_spec_for,
    pid_controller_for,
    run_field_test,
    summarize,
)
from musclerl.muscle import (
    MuscleThermalState,
    SCP_NOMINAL,
    steady_state_rise,
    thermal_step,
    thermal_time_constant,
)
from musclerl.nets import NetworkShape, backward, forward, init_params
from musclerl.randomize import (
    DEFAULT_INTERVALS,
    RANDOMIZED_NAMES,
    RandomizationSpec,
    SeededRng,
    sample_muscle_params,
)
from musclerl.sac import Trajectory
from musclerl.trainer import Trainer, load_policy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.environ.get("MUSCLERL_RUNS_DIR", os.path.join(REPO, "runs"))


def ok(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _ensure_runs(paths):
    missing = [p for p in paths if not os.path.exists(os.path.join(RUNS, p))]
    if not missing:
        return
    if os.environ.get("MUSCLERL_RUN_TRAINING") == "1":
        subprocess.run(["bash", os.path.join(REPO, "scripts", "acceptance_runs.sh")],
                       check=True)
        return
    pytest.skip(
        f"training artifacts missing under {RUNS}: {missing}; "
        "run scripts/acceptance_runs.sh first or set MUSCLERL_RUN_TRAINING=1"
    )


def test_criterion_1_thermal_steady_state():
    t0 = time.perf_counter()
    p = SCP_NOMINAL
    s = MuscleThermalState(T=p.T_amb)
    dt = 0.01
    horizon = 10.0 * thermal_time_constant(p)
    t = 0.0
    while t < horizon:
        s = thermal_step(p, s, 10.0, dt)
        t += dt
    rise = s.T - p.T_amb
    target = steady_state_rise(p, 10.0)
    rel = abs(rise - target) / target
    elapsed = time.perf_counter() - t0
    ok(1, rel < 1e-3 and elapsed < 1.0 and abs(target - 53.19) < 0.01,
       f"steady-state rise {rise:.4f} vs V^2/(R*lambda)={target:.4f} degC, "
       f"rel err {rel:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    for case in range(100):
        T = (1, 3, 10)[case % 3]
        hidden = int(rng.integers(8, 33))
        shape = NetworkShape(input_dim=6, gru_hidden=hidden, output_dim=2)
        net = init_params(shape, SeededRng(5000 + case))
        x = rng.normal(size=(T, 2, 6))
        h0 = 0.5 * rng.normal(size=(2, hidden))
        dy = rng.normal(size=(T, 2, 2))
        y, _, cache = forward(net, x, h0)
        grads, _, _ = backward(cache, dy)

        def loss():
            yy, _, _ = forward(net, x, h0, need_cache=False)
            return float(np.sum(yy * dy))

        # spot-check a random subset of coordinates per case
        idx = rng.choice(net.flat.size, size=40, replace=False)
        h = 1e-5
        for i in idx:
            orig = net.flat[i]
            net.flat[i] = orig + h
            fp = loss()
            net.flat[i] = orig - h
            fm = loss()
            net.flat[i] = orig
            num = (fp - fm) / (2 * h)
            rel = abs(grads[i] - num) / max(abs(num), 1e-6)
            worst = max(worst, rel)
            cases += 1
    elapsed = time.perf_counter() - t0
    ok(2, worst < 1e-5 and elapsed < 60.0,
       f"{cases} coordinate checks over 100 nets, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_augmentation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    aug_rng = SeededRng(33)
    spec = AugmentationSpec(n_copies=1, delta=2.0)
    q = (0.05, 0.2, 0.05, 0.2)
    ra = (0.01, 0.01, 0.01)
    checked = 0
    for case in range(1000):
        T = 8
        obs = rng.uniform(-10, 10, size=(T + 1, 6))
        tgt = rng.uniform(-10, 10, size=2)
        obs[:, 4:6] = tgt
        outputs = rng.uniform(-12, 12, size=(T + 1, 4))
        actions = rng.uniform(0, 10, size=(T, 3))
        rewards = np.array([reward(WRIST_REWARD, outputs[t], tgt, actions[t])
                            for t in range(T)])
        traj = Trajectory(obs, outputs, actions, rewards)
        (copy,) = augment_trajectory(traj, spec, WRIST_REWARD, aug_rng)
        assert np.array_equal(copy.obs[:, :4], traj.obs[:, :4])
        assert np.array_equal(copy.outputs, traj.outputs)
        assert np.array_equal(copy.actions, traj.actions)
        new_tgt = copy.obs[0, 4:6]
        for t in range(T):
            e0 = abs(new_tgt[0] - copy.outputs[t][0])
            e1 = abs(0.0 - copy.outputs[t][1])
            e2 = abs(new_tgt[1] - copy.outputs[t][2])
            e3 = abs(0.0 - copy.outputs[t][3])
            cost = q[0] * e0 * e0 + q[1] * e1 * e1 + q[2] * e2 * e2 + q[3] * e3 * e3
            for i in range(3):
                cost += ra[i] * copy.actions[t][i] * copy.actions[t][i]
            bonus = (2.0 if e0 < 0.5 else 0.0) + (2.0 if e2 < 0.5 else 0.0)
            assert copy.rewards[t] == -cost + bonus
            checked += 1
    elapsed = time.perf_counter() - t0
    ok(3, elapsed < 10.0,
       f"{checked} augmented rewards equal brute-force recomputation exactly, {elapsed:.1f}s")


def test_criterion_4_randomization_bounds():
    t0 = time.perf_counter()
    spec = RandomizationSpec()
    rng = SeededRng(4)
    lo_hi = dict(DEFAULT_INTERVALS)
    ratios = {n: np.empty(10_000) for n in RANDOMIZED_NAMES}
    for i in range(10_000):
        p = sample_muscle_params(SCP_NOMINAL, spec, rng)
        for n in RANDOMIZED_NAMES:
            r = getattr(p, n) / getattr(SCP_NOMINAL, n)
            lo, hi = lo_hi[n]
            assert lo <= r <= hi, f"{n} sample {r} outside [{lo}, {hi}]"
            ratios[n][i] = r
    drift = {n: abs(float(ratios[n].mean()) - 1.0) for n in RANDOMIZED_NAMES}
    elapsed = time.perf_counter() - t0
    ok(4, max(drift.values()) < 0.01 and elapsed < 5.0,
       f"10^4 draws inside scaled intervals, worst mean drift "
       f"{max(drift.values()):.4f}, {elapsed:.1f}s")


# sha256 of the smoke run's CSVs. Re-record them, and say so, whenever a
# change moves the numbers on purpose (last: the plant step map, numerics=2).
SMOKE_SHA256 = {
    "rewards.csv": "0e886293e7940641e76ff50374fca182d8b5e20e9146b558790ce98c63426817",
    "losses.csv": "2a73384e384c8ff7d6fb7b5df26e5fe96b0a33523b46008d80dcfb2652ccda40",
}


def test_criterion_5_training_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for name in ("a", "b"):
        cfg = load_config(os.path.join(REPO, "configs", "smoke.cfg"),
                          overrides={"out_dir": str(tmp_path / name)})
        Trainer(cfg).train()
        blobs.append({f: open(tmp_path / name / f, "rb").read() for f in SMOKE_SHA256})
    elapsed = time.perf_counter() - t0
    digests = {f: hashlib.sha256(blob).hexdigest() for f, blob in blobs[0].items()}
    ok(5, blobs[0] == blobs[1] and digests == SMOKE_SHA256 and elapsed < 300.0,
       f"two 20-episode smoke runs produced byte-identical reward and loss CSVs "
       f"({len(blobs[0]['rewards.csv'])} bytes), golden sha256 "
       f"{'match' if digests == SMOKE_SHA256 else f'differ: {digests}'}, {elapsed:.0f}s")


def moving_mean(values, window=100):
    out = np.full(len(values), np.nan)
    c = np.cumsum(np.insert(values, 0, 0.0))
    for i in range(window - 1, len(values)):
        out[i] = (c[i + 1] - c[i + 1 - window]) / window
    return out


def read_avg_rewards(run_name):
    path = os.path.join(RUNS, run_name, "rewards.csv")
    eps, avg = [], []
    for line in open(path):
        if line.startswith("#") or line.startswith("episode"):
            continue
        parts = line.strip().split(",")
        eps.append(int(parts[0]))
        avg.append(float(parts[4]))
    order = np.argsort(eps)
    return np.array(avg)[order]


@pytest.mark.training
def test_criterion_6_data_efficiency():
    _ensure_runs(["wrist_sacbar_s101/rewards.csv", "wrist_sacbar_s102/rewards.csv",
                  "wrist_baseline_s101/rewards.csv", "wrist_baseline_s102/rewards.csv"])
    base = [read_avg_rewards(f"wrist_baseline_s{s}") for s in (101, 102)]
    bar = [read_avg_rewards(f"wrist_sacbar_s{s}") for s in (101, 102)]
    for b in base:
        assert len(b) >= 3500, "baseline runs must reach 3500 episodes"
    baseline_level = float(np.mean([moving_mean(b[:3500])[3499] for b in base]))
    n = min(map(len, bar))
    bar_curve = moving_mean(np.mean([b[:n] for b in bar], axis=0))
    crossed = np.nonzero(bar_curve >= baseline_level)[0]
    first = int(crossed[0]) + 1 if crossed.size else None
    ok(6, first is not None and first <= 1600,
       f"baseline 100-episode level at 3500 eps = {baseline_level:.3f}; "
       f"enhanced run reaches it at episode {first} (<= 1600)")


@pytest.mark.training
def test_criterion_7_wrist_field_ordering():
    _ensure_runs(["wrist_sacbar_s101/policy_final.ckpt",
                  "wrist_sacbar_s102/policy_final.ckpt"])
    pid_rows = run_field_test("wrist", pid_controller_for("wrist"))
    pid_mean = summarize(pid_rows)["mean"]
    means = []
    for seed in (101, 102):
        agent, _ = load_policy(os.path.join(RUNS, f"wrist_sacbar_s{seed}",
                                            "policy_final.ckpt"))
        rows = run_field_test("wrist", PolicyController(agent))
        means.append(summarize(rows)["mean"])
    ok(7, all(m < pid_mean and m < 1.0 for m in means),
       f"wrist field mean e_ss: enhanced={['%.3f' % m for m in means]} deg "
       f"vs PID={pid_mean:.3f} deg (need < PID and < 1.0)")


@pytest.mark.training
def test_criterion_8_eye_field_accuracy():
    _ensure_runs(["eye_sacbar_s101/policy_final.ckpt"])
    agent, _ = load_policy(os.path.join(RUNS, "eye_sacbar_s101", "policy_final.ckpt"))
    rows = run_field_test("eye", PolicyController(agent))
    s = summarize(rows)
    ok(8, s["mean"] < 1.0,
       f"eye field mean e_ss over 81 targets = {s['mean']:.3f} deg (< 1.0), "
       f"max = {s['max']:.3f}")


def test_criterion_9_pid_calibration_gate():
    from musclerl.env import EpisodeConfig, TrackingEnv
    from musclerl.fieldtest import steady_state_error
    from musclerl.randomize import NO_RANDOMIZATION

    env = TrackingEnv("wrist", SeededRng(0),
                      episode=EpisodeConfig(episode_length=50, target_range=0.0),
                      randomization=NO_RANDOMIZATION)
    obs = env.reset()
    env.target = np.array([5.0, 5.0])
    obs[4:6] = env.target
    pid = pid_controller_for("wrist")
    pid.reset()
    angles, rise = [], None
    for t in range(50):
        a = pid.act(obs, dt=0.5)
        obs, _, _, _ = env.step(a)
        angles.append(env.state.angles.copy())
        err = float(np.hypot(env.state.angles[0] - 5.0, env.state.angles[1] - 5.0))
        if rise is None and err < 0.1 * np.hypot(5.0, 5.0):
            rise = 0.5 * (t + 1)
    e_ss = steady_state_error(np.array(angles), (5.0, 5.0), 10)
    ok(9, rise is not None and 5.0 <= rise <= 15.0 and e_ss < 1.5,
       f"wrist PID at (5,5): rise = {rise} s in [5, 15], e_ss = {e_ss:.3f} deg < 1.5")
