"""Per-episode muscle-parameter sampling and per-step observation noise.

Each of the six muscle constants {k, b, c, C_th, lambda_, R} is scaled by an
independent uniform factor drawn once per episode; the ambient temperature
is never touched. A draw works on muscle tables (muscle.COLUMNS order): the
plant's (m, 7) table times the drawn factors gives the episodes' (rows, m,
7) table, each product the one a scalar multiplication gives.
Observation noise is zero-mean Gaussian, added independently per step to
the measured angles and angular velocities only. The factor intervals and
the noise SDs are fixed; a RandomizationSpec scales them all with its one
variance multiplier (0 turns randomization off). A reset of n episodes
makes one draw per stream for all of them, one factor draw for all their
muscles and one call per noise channel for all their steps, which gives
the values and stream states that n resets, each with one draw per factor
or per step, would give.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .muscle import COLUMNS, refuse_nonpositive

RANDOMIZED_NAMES = COLUMNS[:6]


class SeededRng:
    """Counter-based deterministic random stream (Philox) with named splitting.

    Identical seed gives an identical draw sequence on every platform. Child
    streams are derived by hashing the parent key with a label, so each
    consumer (parameter sampling, each noise channel, policy sampling, ...)
    owns an independent stream.
    """

    def __init__(self, seed: int, _key: bytes | None = None):
        self.seed = int(seed)
        if _key is None:
            _key = hashlib.sha256(b"musclerl:" + str(int(seed)).encode()).digest()[:16]
        self._key = _key
        self.gen = np.random.Generator(np.random.Philox(key=int.from_bytes(_key, "little")))

    def split(self, label: str) -> "SeededRng":
        """Derive an independent child stream named by label."""
        child = hashlib.sha256(self._key + b"/" + label.encode()).digest()[:16]
        return SeededRng(self.seed, _key=child)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        return self.gen.uniform(lo, hi, size=size)

    def normal(self, mean=0.0, sd=1.0, size=None):
        return self.gen.normal(mean, sd, size=size)

    def standard_normal(self, size=None):
        return self.gen.standard_normal(size=size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self.gen.choice(n, size=k, replace=False)

    def get_state(self) -> dict:
        return {"key_hex": self._key.hex(), "bitgen": self.gen.bit_generator.state}

    def set_state(self, state: dict) -> None:
        self._key = bytes.fromhex(state["key_hex"])
        self.gen = np.random.Generator(np.random.Philox(key=int.from_bytes(self._key, "little")))
        self.gen.bit_generator.state = state["bitgen"]


# Each randomized constant's (lo, hi) factor interval at multiplier 1, in
# RANDOMIZED_NAMES order, and the observation-noise SDs (deg, deg/s).
INTERVALS = np.array([(0.8, 1.2), (0.9, 1.1), (0.85, 1.15), (0.8, 1.2), (0.85, 1.15),
                      (0.9, 1.1)])
INTERVALS.flags.writeable = False
ANGLE_NOISE_SD = 0.1
VELOCITY_NOISE_SD = 0.05


@dataclass(frozen=True)
class RandomizationSpec:
    """How widely episodes vary: one variance multiplier m, and whether muscles share factors.

    m rescales the half-widths of INTERVALS about 1 and the noise SDs
    jointly, for robustness-vs-variance sweeps; interval ends are clamped
    below at 0.05 to keep parameters positive, and m = 0 draws the nominal
    plant without noise. m must be finite and nonnegative.
    env.TrackingEnv refuses an m whose widest draw makes the RK4 substep
    unstable (above about 270 on the eye, 2,380 on the wrist).
    """

    variance_multiplier: float = 1.0
    shared_across_muscles: bool = False

    def __post_init__(self):
        if not 0.0 <= self.variance_multiplier < math.inf:  # false for NaN too
            raise ValueError(f"variance_multiplier must be finite and nonnegative, "
                             f"got {self.variance_multiplier!r}")

    def effective_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The (6,) low and high ends of the factor intervals, in RANDOMIZED_NAMES order."""
        lo, hi = INTERVALS.T
        m = self.variance_multiplier
        return np.maximum(1.0 - m * (1.0 - lo), 0.05), 1.0 + m * (hi - 1.0)

    def effective_noise_sds(self) -> tuple[float, float]:
        m = self.variance_multiplier
        return (ANGLE_NOISE_SD * m, VELOCITY_NOISE_SD * m)


NO_RANDOMIZATION = RandomizationSpec(variance_multiplier=0.0)


def sample_muscle_set(
    nominal: np.ndarray, spec: RandomizationSpec, rng: SeededRng, rows: int = 1
) -> np.ndarray:
    """Sample all muscles of one robot for each of rows episodes: a (rows, m, 7) table.

    nominal is the robot's (m, 7) muscle table (muscle.COLUMNS order).
    Each row is the nominal table with its six randomized columns times
    drawn factors: by default each muscle draws its own, and with
    shared_across_muscles a single factor set scales every muscle of an
    episode. One uniform call draws every episode's factors, which gives
    the values, in the same row-major order, and leaves the stream state of
    one scalar call per factor, episode after episode. A drawn constant
    that is not positive and finite (an overflow at a huge multiplier)
    raises ValueError naming it.
    """
    lo, hi = spec.effective_intervals()
    per_row = 1 if spec.shared_across_muscles else len(nominal)
    table = np.repeat(nominal[None], rows, axis=0)
    drawn = table[:, :, :len(RANDOMIZED_NAMES)]  # a view: scaled in place
    drawn *= rng.gen.uniform(lo, hi, size=(rows, per_row, len(RANDOMIZED_NAMES)))
    refuse_nonpositive(drawn, RANDOMIZED_NAMES)
    return table


def draw_observation_noise(
    spec: RandomizationSpec, channel_rngs: list[SeededRng], steps: int, rows: int = 1
) -> tuple[list[int], np.ndarray]:
    """rows episodes' observation noise: the noisy channels and their (steps, rows, k) draws.

    The channels are the indices, in [angle1, rate1, angle2, rate2], whose
    SD is positive; a channel with SD 0 draws nothing. Each channel's stream
    draws every episode's steps values in one call, episode after episode,
    which gives the values and leaves the stream state of that many scalar
    draws in turn.
    """
    angle_sd, vel_sd = spec.effective_noise_sds()
    sds = [(i, sd) for i, sd in enumerate((angle_sd, vel_sd, angle_sd, vel_sd)) if sd > 0.0]
    noise = np.empty((steps, rows, len(sds)))
    for k, (i, sd) in enumerate(sds):
        noise[:, :, k] = channel_rngs[i].gen.normal(0.0, sd, size=(rows, steps)).T
    return [i for i, _ in sds], noise


def apply_observation_noise(obs: np.ndarray, channels: list[int], noise: np.ndarray) -> None:
    """Add one step's drawn noise to observation rows obs (B, 6), in place.

    Layout is [angle1, rate1, angle2, rate2, target1, target2]; noise
    (B, k) goes onto the k channels from draw_observation_noise, so targets
    and noiseless channels are never touched (not even by adding 0.0,
    which would turn -0.0 into +0.0). Non-finite observations raise
    ValueError.
    """
    if not np.isfinite(obs).all():
        raise ValueError("observation must be finite")
    if channels:
        obs[:, channels] += noise
