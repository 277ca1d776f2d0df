#!/usr/bin/env bash
# Training runs backing the slow acceptance checks (data efficiency, field
# tests). Desk-scale width (GRU 64); everything else at stock defaults.
# Serial execution, ~3 h total on one core (10,150 training episodes at
# about 1.05 s per wrist and 0.51 s per eye episode, measured on a 2-vCPU
# VM with one BLAS thread); completed runs are skipped and interrupted ones
# resume from their rolling checkpoint, so the script is safe to re-invoke.
# Outputs land in runs/.
# Disk: each run keeps a rolling checkpoint.ckpt and, once complete, a
# final.ckpt of the same size (full checkpoints with the replay buffer),
# plus a 2.2 MB policy_final.ckpt. Full checkpoints measured at width 64:
# 16.0 MB for a 1700-episode wrist run, 18.3 MB for a 3500-episode
# --no-augment wrist run and 14.1 MB for a 2000-episode eye run, so the
# five runs below take about 177 MB in all.
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

# SAC with all three enhancements, wrist, two seeds (the efficiency
# comparison only needs ~1700 episodes)
train runs/wrist_sacbar_s101 --preset wrist --seed 101 --episodes 1700 --gru-hidden 64
train runs/wrist_sacbar_s102 --preset wrist --seed 102 --episodes 1700 --gru-hidden 64

# comparison baseline: bootstrap and augmentation off (uniform-random
# warm-up episodes instead of PID, no extra trajectories), dynamics
# randomization unchanged so both curves face the same environment;
# full 3500 episodes, two seeds
train runs/wrist_baseline_s101 --preset wrist --seed 101 --episodes 3500 --gru-hidden 64 \
    --no-bootstrap --no-augment
train runs/wrist_baseline_s102 --preset wrist --seed 102 --episodes 3500 --gru-hidden 64 \
    --no-bootstrap --no-augment

# all-enhancement eye run
train runs/eye_sacbar_s101 --preset eye --seed 101 --gru-hidden 64

# field tests of the trained policies and the stock PID
run() { echo "=== $(date +%H:%M:%S) $*"; python3 -m musclerl.cli "$@"; }
run eval-field --checkpoint runs/wrist_sacbar_s101/policy_final.ckpt --out runs/field_wrist_sacbar_s101.csv
run eval-field --checkpoint runs/wrist_sacbar_s102/policy_final.ckpt --out runs/field_wrist_sacbar_s102.csv
run eval-field --pid --preset wrist --out runs/field_wrist_pid.csv
run eval-field --checkpoint runs/eye_sacbar_s101/policy_final.ckpt --out runs/field_eye_sacbar_s101.csv

echo "=== all acceptance runs complete"
