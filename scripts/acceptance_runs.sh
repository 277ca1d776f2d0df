#!/usr/bin/env bash
# Training runs backing the slow acceptance checks (data efficiency, field
# tests). Desk-scale width (GRU 64); everything else at stock defaults.
# Two lanes run at once, one per vCPU, each with one BLAS thread:
#   lane A: the two wrist baselines (6,000 update episodes, ~1 h 45 min);
#   lane B: the two wrist sacbar runs, the eye run, then the four field
#           tests (2,400 wrist and 1,750 eye update episodes, ~57 min).
# At about 1.05 s per wrist and 0.51 s per eye update episode (measured
# serially on a 2-vCPU VM with one BLAS thread) that is ~2.7 h of CPU and
# ~1 h 45 min of wall time, set by lane A, if the lanes do not slow each
# other down. Each output line carries its lane's tag. The script waits
# for both lanes and exits non-zero if either failed; completed runs are
# skipped and interrupted ones resume from their rolling checkpoint, so
# it is safe to re-invoke. Outputs land in runs/.
# Disk: each run keeps a rolling checkpoint.ckpt and, once complete, a
# final.ckpt of the same size (full checkpoints with the replay buffer),
# plus a 0.21 MB actor-only policy_final.ckpt. Full checkpoints measured at
# width 64: 10.0 MB for a 1700-episode wrist run, 17.2 MB for a 3500-episode
# --no-augment wrist run and 8.9 MB for a 2000-episode eye run, so the
# five runs below take about 128 MB in all; the two lanes write to
# different run directories, so running them at once needs no more.
set -euo pipefail
cd "$(dirname "$0")/.."
export OMP_NUM_THREADS=1

train() {
    local out="$1"; shift
    if [ -f "$out/final.ckpt" ]; then
        echo "=== $(date +%H:%M:%S) skip (complete): $out"
    elif [ -f "$out/checkpoint.ckpt" ]; then
        echo "=== $(date +%H:%M:%S) resume: $out"
        python3 -m musclerl.cli train --resume "$out/checkpoint.ckpt"
    else
        echo "=== $(date +%H:%M:%S) train: $out"
        python3 -m musclerl.cli train "$@" --out-dir "$out"
    fi
}

run() { echo "=== $(date +%H:%M:%S) $*"; python3 -m musclerl.cli "$@"; }

# comparison baseline: bootstrap and augmentation off (uniform-random
# warm-up episodes instead of PID, no extra trajectories), dynamics
# randomization unchanged so both curves face the same environment;
# full 3500 episodes, two seeds
lane_a() {
    train runs/wrist_baseline_s101 --preset wrist --seed 101 --episodes 3500 --gru-hidden 64 \
        --no-bootstrap --no-augment
    train runs/wrist_baseline_s102 --preset wrist --seed 102 --episodes 3500 --gru-hidden 64 \
        --no-bootstrap --no-augment
}

# SAC with all three enhancements, wrist, two seeds (the efficiency
# comparison only needs ~1700 episodes), the all-enhancement eye run, then
# field tests of those policies and of the stock PID
lane_b() {
    train runs/wrist_sacbar_s101 --preset wrist --seed 101 --episodes 1700 --gru-hidden 64
    train runs/wrist_sacbar_s102 --preset wrist --seed 102 --episodes 1700 --gru-hidden 64
    train runs/eye_sacbar_s101 --preset eye --seed 101 --gru-hidden 64
    run eval-field --checkpoint runs/wrist_sacbar_s101/policy_final.ckpt \
        --out runs/field_wrist_sacbar_s101.csv
    run eval-field --checkpoint runs/wrist_sacbar_s102/policy_final.ckpt \
        --out runs/field_wrist_sacbar_s102.csv
    run eval-field --pid --preset wrist --out runs/field_wrist_pid.csv
    run eval-field --checkpoint runs/eye_sacbar_s101/policy_final.ckpt \
        --out runs/field_eye_sacbar_s101.csv
}

# lane NAME FUNC: run FUNC in a subshell that stops at its first failure,
# tagging each output line with NAME; the exit status is FUNC's
lane() { ( set -o pipefail; "$2" 2>&1 | sed -u "s/^/[$1] /" ); }

lane A lane_a & pid_a=$!
lane B lane_b & pid_b=$!
status=0
wait "$pid_a" || { echo "=== lane A failed"; status=1; }
wait "$pid_b" || { echo "=== lane B failed"; status=1; }
if [ "$status" -eq 0 ]; then
    echo "=== all acceptance runs complete"
fi
exit "$status"
