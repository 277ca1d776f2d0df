"""Thermo-mechanical model of a single string muscle (coiled-polymer or SMA-core).

The muscle is a linear spring-damper whose tension grows with temperature,
driven by Joule heating against first-order convective cooling:

    F(x, xdot, T) = k (x - x0) + b xdot + c (T - T_amb)
    C_th dT/dt    = V^2 / R - lambda_ (T - T_amb)

Sign convention: positive force is tension (contraction), pulling the anchor
toward the fixed end. Units are cm, N, degC, s, V, Ohm throughout. This
module holds the constants: a validated MuscleParams per nominal muscle,
and the float64 table the plant (plant.StepMap) reads, whose last axis
holds one muscle's constants in COLUMNS order; a reset draws its rows as
one (rows, m, 7) table. The rest length x0 is no column: the linearized
routing cancels it. The plant integrates both equations with the joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COLUMNS = ("k", "b", "c", "C_th", "lambda_", "R", "T_amb")


def refuse_nonpositive(values, names) -> None:
    """Raise ValueError naming the first constant of values that is not positive and finite.

    values is an array of constants whose last axis runs over names; NaN
    and infinities are refused too.
    """
    values = np.asarray(values, dtype=np.float64)
    ok = (values > 0.0) & (values < math.inf)
    if not ok.all():
        where = tuple(np.argwhere(~ok)[0])
        raise ValueError(f"muscle constant {names[where[-1]]} must be strictly positive "
                         f"and finite, got {values[where]}")


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
        names = ("k", "b", "c", "C_th", "lambda_", "R", "x0")
        refuse_nonpositive([getattr(self, name) for name in names], names)


def muscle_table(muscles) -> np.ndarray:
    """The (len(muscles), 7) float64 table of muscles' constants, in COLUMNS order."""
    return np.array([[getattr(p, name) for name in COLUMNS] for p in muscles])


# Nominal parameter sets, from system identification of the two muscle types.
SCP_NOMINAL = MuscleParams(k=0.25, b=0.01, c=0.0055, C_th=0.28, lambda_=0.094, R=20.0, x0=14.5)
TCA_NOMINAL = MuscleParams(k=2.1, b=0.63, c=0.0707, C_th=3.06, lambda_=0.1189, R=10.0, x0=6.0)
