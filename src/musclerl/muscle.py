"""Thermo-mechanical model of a single string muscle (coiled-polymer or SMA-core).

The muscle is a linear spring-damper whose tension grows with temperature,
driven by Joule heating against first-order convective cooling:

    F(x, xdot, T) = k (x - x0) + b xdot + c (T - T_amb)
    C_th dT/dt    = V^2 / R - lambda_ (T - T_amb)

Sign convention: positive force is tension (contraction), pulling the anchor
toward the fixed end. Units are cm, N, degC, s, V, Ohm throughout. A
muscle's constants are one float64 row in COLUMNS order: k stiffness N/cm,
b damping N*s/cm, c temperature coefficient N/degC, C_th thermal mass
W*s/degC, lambda_ thermal conductivity W/degC, R electrical resistance Ohm,
T_amb ambient degC. A plant holds an (m, 7) table of its muscles, and a
reset draws (rows, m, 7). The linearized routing cancels the rest length
x0, so it is no column. The plant integrates both laws with the joints.
"""

from __future__ import annotations

import math

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


# Nominal constants (read-only rows in COLUMNS order), from system
# identification of the two muscle types.
SCP_NOMINAL = np.array([0.25, 0.01, 0.0055, 0.28, 0.094, 20.0, 25.0])
TCA_NOMINAL = np.array([2.1, 0.63, 0.0707, 3.06, 0.1189, 10.0, 25.0])
SCP_NOMINAL.flags.writeable = TCA_NOMINAL.flags.writeable = False
