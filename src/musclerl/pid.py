"""Discrete PID setpoint controller used to seed the replay buffer.

Per controlled axis, with error e in degrees and step dt in seconds:

    I <- clamp(I + e dt, +-integral_limit)
    u  = Kp e + Ki I + Kd (e - e_prev) / dt

The eye takes u directly as its signed pair command. The wrist maps the
two axis commands to three nonnegative voltages through the pseudo-inverse
of the small-angle torque map, then clamps to [0, 10] per muscle. Gains are
deliberately mediocre: the controller only has to reach the neighbourhood
of the target, not track it well.

The controller runs on Python floats, axis by axis, in the order of the
formulas above, so each value is the one elementwise float64 array
arithmetic gives. Every clamp is min(max(x, lo), hi) written out as the
comparisons those builtins make (lo if lo > x else x, then hi if hi < x
else x), which has np.clip's semantics for scalar bounds: x is kept when
it equals a bound (-0.0 against a 0.0 bound stays -0.0) and NaN passes
through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import PlantConfig


@dataclass(frozen=True)
class PidGains:
    """Per-axis gains (shared by both axes) with anti-windup and output clamps."""

    kp: float
    ki: float
    kd: float
    output_limit: float
    integral_limit: float | None = None

    def __post_init__(self):
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be nonnegative")

    @property
    def i_clamp(self) -> float:
        if self.integral_limit is not None:
            return self.integral_limit
        # default: integral term alone can just saturate the output
        return self.output_limit / self.ki if self.ki > 0 else 0.0


# Stock gains for the two plants. The eye's axis command is already an
# action component (|u| <= 10). The wrist's axis command saturates where the
# mapped primary-muscle voltage hits the box edge: the pseudo-inverse divides
# by 1.5 r, so the limit is 15 r.
EYE_GAINS = PidGains(kp=2.1, ki=0.2, kd=0.5, output_limit=10.0)
WRIST_GAINS = PidGains(kp=3.3, ki=0.5, kd=0.3, output_limit=18.0)


def gains_for(preset: str, plant: PlantConfig | None = None, scale: float = 1.0) -> PidGains:
    if preset == "eye":
        g = EYE_GAINS
    elif plant is not None:
        g = PidGains(kp=WRIST_GAINS.kp, ki=WRIST_GAINS.ki, kd=WRIST_GAINS.kd,
                     output_limit=15.0 * plant.r)
    else:
        g = WRIST_GAINS
    if scale == 1.0:
        return g
    return PidGains(kp=g.kp * scale, ki=g.ki * scale, kd=g.kd * scale,
                    output_limit=g.output_limit, integral_limit=g.integral_limit)


class PidController:
    """Two-axis PID with clamped integral state; one instance per episode.

    integral and prev_error are lists of floats, one per axis.
    """

    def __init__(self, gains: PidGains):
        self.gains = gains
        self.reset()

    def reset(self) -> None:
        self.integral = [0.0, 0.0]
        self.prev_error = [0.0, 0.0]

    def commands(self, error, dt: float) -> list[float]:
        """Axis commands for the current per-axis error (deg), as floats."""
        if not (dt > 0.0):
            raise ValueError("dt must be positive")
        g = self.gains
        i_hi, u_hi = g.i_clamp, g.output_limit
        i_lo, u_lo = -i_hi, -u_hi
        u = []
        for k, e in enumerate(error):
            i = self.integral[k] + e * dt
            i = i_lo if i_lo > i else i
            i = i_hi if i_hi < i else i
            u_k = g.kp * e + g.ki * i + g.kd * (e - self.prev_error[k]) / dt
            u_k = u_lo if u_lo > u_k else u_k
            u.append(u_hi if u_hi < u_k else u_k)
            self.integral[k] = i
            self.prev_error[k] = e
        return u


class PidActionPolicy:
    """Adapter producing environment actions from observations.

    Reads the angle and target slots of each observation row, runs that
    row's PID on the per-axis error, and converts the axis commands to the
    preset's action. reset(n) starts n rows, one PidController each; act
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
        self.pids = [PidController(self.gains) for _ in range(n)]

    def act(self, obs, dt: float = 0.5) -> np.ndarray:
        rows = np.asarray(obs, dtype=np.float64).tolist()
        if len(rows) != len(self.pids):
            raise ValueError(f"{len(rows)} observations for {len(self.pids)} PID rows")
        flat = []
        for o, pid in zip(rows, self.pids):
            u = pid.commands((o[4] - o[0], o[5] - o[2]), dt)
            if self._axis_to_volts is None:
                v, lo = u, -10.0
            else:  # a numpy product, not float arithmetic: BLAS may fuse multiply-adds
                v, lo = (self._axis_to_volts @ np.array(u)).tolist(), 0.0
            for x in v:
                x = lo if lo > x else x
                flat.append(10.0 if 10.0 < x else x)
        return np.array(flat).reshape(len(rows), -1)
