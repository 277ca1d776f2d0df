"""Discrete PID setpoint controller used to seed the replay buffer.

Per controlled axis, with error e in degrees and step dt in seconds:

    I <- clamp(I + e dt, +-output_limit / Ki)   (+-0 when Ki = 0)
    u  = Kp e + Ki I + Kd (e - e_prev) / dt

The eye takes u directly as its signed pair command. The wrist maps the
two axis commands to three nonnegative voltages through the pseudo-inverse
of the small-angle torque map, then clamps to [0, 10] per muscle. Gains are
deliberately mediocre: the controller only has to reach the neighbourhood
of the target, not track it well.

The controller runs on float64 arrays, one row per episode, so one call
acts for every row of a lockstep batch; each operation is elementwise, in
the order of the formulas above, so each row's values are the ones the
row gives alone, and the wrist's pseudo-inverse product is one np.matmul
that makes per row the gemv of a single row's product. Every clamp is
min(max(x, lo), hi) written out as the comparisons those builtins make
(np.where(lo > x, lo, x), then np.where(hi < x, hi, x)), which has
np.clip's semantics for scalar bounds: x is kept when it equals a bound
(-0.0 against a 0.0 bound stays -0.0) and NaN passes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .plant import PlantConfig


@dataclass(frozen=True)
class PidGains:
    """Per-axis gains (shared by both axes) with anti-windup and output clamps."""

    kp: float
    ki: float
    kd: float
    output_limit: float

    def __post_init__(self):
        if not all(0 <= g < math.inf for g in (self.kp, self.ki, self.kd)):
            raise ValueError("PID gains must be finite and nonnegative")

    @property
    def i_clamp(self) -> float:
        # the integral term alone can just saturate the output
        return self.output_limit / self.ki if self.ki > 0 else 0.0


# Stock gains for the two plants. The eye's axis command is already an
# action component (|u| <= 10). The wrist's axis command saturates where the
# mapped primary-muscle voltage hits the box edge: the pseudo-inverse divides
# by 1.5 r, so the limit is 15 r.
EYE_GAINS = PidGains(kp=2.1, ki=0.2, kd=0.5, output_limit=10.0)
WRIST_GAINS = PidGains(kp=3.3, ki=0.5, kd=0.3, output_limit=18.0)


def gains_for(preset: str, plant: PlantConfig, scale: float = 1.0) -> PidGains:
    """The preset's stock gains for plant (the wrist's output limit is 15 r), times scale."""
    g = EYE_GAINS if preset == "eye" else replace(WRIST_GAINS, output_limit=15.0 * plant.r)
    if scale == 1.0:
        return g
    return replace(g, kp=g.kp * scale, ki=g.ki * scale, kd=g.kd * scale)


class PidController:
    """Two-axis PID with clamped integral state, one row per episode.

    integral and prev_error are (rows, 2) float64 arrays.
    """

    def __init__(self, gains: PidGains, rows: int = 1):
        self.gains = gains
        self.reset(rows)

    def reset(self, rows: int = 1) -> None:
        self.integral = np.zeros((rows, 2))
        self.prev_error = np.zeros((rows, 2))

    def commands(self, error, dt: float) -> np.ndarray:
        """Axis commands (rows, 2) for the rows' current per-axis errors (deg)."""
        if not (dt > 0.0):
            raise ValueError("dt must be positive")
        g = self.gains
        i_hi, u_hi = g.i_clamp, g.output_limit
        i_lo, u_lo = -i_hi, -u_hi
        e = np.array(error, dtype=np.float64)
        i = self.integral + e * dt
        i = np.where(i_lo > i, i_lo, i)
        i = np.where(i_hi < i, i_hi, i)
        u = g.kp * e + g.ki * i + g.kd * (e - self.prev_error) / dt
        u = np.where(u_lo > u, u_lo, u)
        self.integral, self.prev_error = i, e
        return np.where(u_hi < u, u_hi, u)


class PidActionPolicy:
    """Adapter producing environment actions from observations.

    Reads the angle and target slots of each observation row, runs that
    row's PID on the per-axis error, and converts the axis commands to the
    preset's action. reset(n) starts n rows in one PidController; act
    takes the (n, 6) observations and returns (n, A) actions. The wrist's
    torque-map pseudo-inverse depends only on the routing, which muscle
    randomization leaves alone, so it is computed once here.
    """

    def __init__(self, preset: str, plant: PlantConfig, gains: PidGains | None = None):
        self.preset = preset
        self.gains = gains or gains_for(preset, plant)
        self._axis_to_volts = None if preset == "eye" else np.linalg.pinv(plant.routing.T)
        self.reset()

    def reset(self, n: int = 1) -> None:
        self.pid = PidController(self.gains, rows=n)

    def act(self, obs, dt: float = 0.5) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if len(obs) != len(self.pid.integral):
            raise ValueError(f"{len(obs)} observations for {len(self.pid.integral)} PID rows")
        u = self.pid.commands(obs[:, 4:6] - obs[:, [0, 2]], dt)
        if self._axis_to_volts is None:
            v, lo = u, -10.0
        else:  # per row the gemv of axis_to_volts @ u; BLAS may fuse multiply-adds
            v, lo = np.matmul(self._axis_to_volts, u[:, :, None])[:, :, 0], 0.0
        v = np.where(lo > v, lo, v)
        return np.where(10.0 < v, 10.0, v)
