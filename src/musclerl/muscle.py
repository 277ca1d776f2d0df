"""Thermo-mechanical model of a single string muscle (coiled-polymer or SMA-core).

The muscle is a linear spring-damper whose tension grows with temperature,
driven by Joule heating against first-order convective cooling:

    F(x, xdot, T) = k (x - x0) + b xdot + c (T - T_amb)
    C_th dT/dt    = V^2 / R - lambda_ (T - T_amb)

Sign convention: positive force is tension (contraction), pulling the anchor
toward the fixed end. Units are cm, N, degC, s, V, Ohm throughout. This
module holds the constants; the plant (plant.StepMap) integrates both
equations together with the joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MuscleParams:
    """Physical constants of one muscle string.

    k: stiffness N/cm, b: damping N*s/cm, c: temperature coefficient N/degC,
    C_th: thermal mass W*s/degC, lambda_: thermal conductivity W/degC,
    R: electrical resistance Ohm, x0: resting length cm, T_amb: ambient degC.
    """

    k: float
    b: float
    c: float
    C_th: float
    lambda_: float
    R: float
    x0: float
    T_amb: float = 25.0

    def __post_init__(self):
        for name in ("k", "b", "c", "C_th", "lambda_", "R", "x0"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"MuscleParams.{name} must be strictly positive, got {v}")


# Nominal parameter sets, from system identification of the two muscle types.
SCP_NOMINAL = MuscleParams(k=0.25, b=0.01, c=0.0055, C_th=0.28, lambda_=0.094, R=20.0, x0=14.5)
TCA_NOMINAL = MuscleParams(k=2.1, b=0.63, c=0.0707, C_th=3.06, lambda_=0.1189, R=10.0, x0=6.0)
