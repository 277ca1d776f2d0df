"""Rigid-body plants driven by string muscles: 2-DOF eye and parallel wrist.

Both plants are two independent rotational DOFs with small-angle linearized
muscle routing. A constant routing matrix G (muscles x 2) maps joint angles
to muscle lengths and, transposed, muscle tensions to joint torques:

    x_i    = x0_i - (G @ alpha_rad)_i        length of muscle i, cm
    xdot_i = -(G @ omega_rad)_i              length rate, cm/s
    tau    = G.T @ F                         joint torques, N*cm

Eye: four muscles in two antagonistic pairs, (m1, m2) on pitch and (m3, m4)
on yaw, signs chosen so that the second muscle of each pair pulls the axis
positive. Wrist: three muscles at 120 deg azimuthal spacing. The x0 cancel
from the torques, so a plant's muscles are an (m, 7) table without them.

Joint dynamics per DOF: J alphaddot = tau - d alphadot - kappa alpha, with
angles hard-clamped at the travel limits (rate zeroed on contact). Angle and
rate units are degrees, in the integration state too; G acts on radians.

Integration is explicit RK4 with the voltages held over an action step.
The dynamics are then linear, so StepMap, built once per muscle draw,
holds the substep matrix and its powers' angle rows: one product gives
every substep's angles and the end state. A randomized reset of n
episodes builds one StepMap of n rows from its drawn (n, m, 7) muscle
table (muscle.COLUMNS), every row's matrices in one batched pass that
keeps two substep powers in flight, and whose every value is the one a
single plant's build gives (tests/reference.py keeps that build, and
tests/test_plant.py compares the bytes row by row).
PlantRows holds B plants that step in lockstep, their states in one
(B, n) array, and advance() steps all of them with one np.matmul, which
makes per row the gemv that the row's stack @ z makes. A row whose
substep angle passes the travel limit falls back to its substeps one at
a time with the clamp after each; otherwise that clamp never fires and
both agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .muscle import COLUMNS, SCP_NOMINAL, TCA_NOMINAL, refuse_nonpositive

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PlantConfig:
    """Geometry and rigid-body constants of one plant.

    J: inertia per DOF (torque-consistent units, N*cm*s^2/rad); d: viscous
    damping N*cm*s/rad; kappa: restoring stiffness N*cm/rad; r: moment arm cm;
    routing: (muscles x 2) matrix described above; muscles: the (m, 7)
    muscle.COLUMNS table, stored as a read-only copy whose six randomized
    constants must be positive and finite; angle_limit: travel limit, deg.
    """

    name: str
    J: float
    d: float
    kappa: float
    r: float
    routing: np.ndarray
    muscles: np.ndarray
    angle_limit: float = 25.0

    def __post_init__(self):
        if not (self.J > 0 and self.r > 0 and self.d >= 0 and self.kappa >= 0):
            raise ValueError("require J > 0, r > 0, d >= 0, kappa >= 0")
        muscles = np.array(self.muscles, dtype=np.float64)
        routing = np.asarray(self.routing, dtype=np.float64)
        if muscles.shape != (len(routing), len(COLUMNS)) or routing.shape[1:] != (2,):
            raise ValueError("require muscles (m, 7) and routing (m, 2), "
                             f"got {muscles.shape} and {routing.shape}")
        refuse_nonpositive(muscles[:, :6], COLUMNS[:6])
        muscles.flags.writeable = False
        object.__setattr__(self, "muscles", muscles)
        object.__setattr__(self, "routing", routing)

    @property
    def n_muscles(self) -> int:
        return len(self.muscles)


def eye_routing(r: float) -> np.ndarray:
    # rows: m1 (pitch -), m2 (pitch +), m3 (yaw -), m4 (yaw +)
    return np.array([[-r, 0.0], [r, 0.0], [0.0, -r], [0.0, r]])


def wrist_routing(r: float) -> np.ndarray:
    azimuths = np.array([90.0, 210.0, 330.0]) * DEG
    return np.stack([r * np.sin(azimuths), r * np.cos(azimuths)], axis=1)


# Default rigid-body constants are calibrated (scripts/ and the
# `calibrate-plant` CLI verb) so the stock PID gains give barely acceptable
# tracking: eye rise ~5 s, wrist rise ~10 s at a (5, 5) deg target.
def eye_config() -> PlantConfig:
    """2-DOF eyeball on two antagonistic coiled-polymer pairs."""
    r = 1.2
    return PlantConfig(
        name="eye", J=0.6, d=1.4, kappa=0.05, r=r,
        routing=eye_routing(r), muscles=np.tile(SCP_NOMINAL, (4, 1)),
    )


def wrist_config() -> PlantConfig:
    """Parallel wrist plate on three SMA-core muscles at 90/210/330 deg."""
    r = 1.2
    return PlantConfig(
        name="wrist", J=2.4, d=1.3, kappa=1.0, r=r,
        routing=wrist_routing(r), muscles=np.tile(TCA_NOMINAL, (3, 1)),
    )


def configured_plant(
    cfg: PlantConfig,
    inertia: float | None = None,
    damping: float | None = None,
    stiffness: float | None = None,
    moment_arm: float | None = None,
    angle_limit: float | None = None,
) -> PlantConfig:
    """A preset plant with selected constants overridden (config-file knobs).

    Changing the moment arm rebuilds the routing matrix.
    """
    kw = {}
    if inertia is not None:
        kw["J"] = inertia
    if damping is not None:
        kw["d"] = damping
    if stiffness is not None:
        kw["kappa"] = stiffness
    if angle_limit is not None:
        kw["angle_limit"] = angle_limit
    if moment_arm is not None:
        kw["r"] = moment_arm
        builder = eye_routing if cfg.name == "eye" else wrist_routing
        kw["routing"] = builder(moment_arm)
    return replace(cfg, **kw) if kw else cfg


class StepMap:
    """The action step of plants of one geometry, each with its muscles fixed, as matrices.

    Between two actions the dynamics are linear and time-invariant on the
    augmented state

        z = [a1, a2, w1, w2, T_1 - T_amb,1 .. T_m - T_amb,m, q_1 .. q_m, e1, e2]

    (deg, deg/s, degC; q_i = V_i^2 / (R_i C_th,i) the held heating rate,
    e the external torque), so one RK4 substep of h is z <- M z with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24. `one` is M; `stack` holds
    the angle rows of M^1 .. M^S and then all of M^S, so one product gives
    every substep's angles and the end state. Temperatures enter as rises
    above ambient, which makes the rest state map to itself exactly.

    One map holds `rows` plants: cfg's geometry with muscles, a (rows, m,
    7) muscle table in muscle.COLUMNS order (cfg.muscles[None], one row,
    by default). One build serves every row: A is a (rows, n, n) array whose
    every entry is computed as the block form
      A[2:4, 0:2] = -(kappa I + G^T diag(k) G) / J   (d and b for 2:4)
      A[2:4, 4:4+m] = G^T diag(c) / (J DEG),  A[2:4, n-2:] = I / (J DEG)
      A[4:4+m, 4:4+m] = diag(-lambda / C_th),  A[4:4+m, 4+m:4+2m] = I
    computes it, M comes from batched products, and each power M^s is one
    np.matmul(M, M^(s-1)) for every row: per row the cblas_dgemm that
    np.dot of the two matrices makes. The powers alternate between two
    (rows, n, n) buffers; each power's two angle rows are copied into the
    (rows, 2S+n, n) stack as it is made, and M^S into the stack's tail, so
    a build holds two powers at a time, not S. `one` is (rows, n, n);
    `t_amb` and `rc` = R C_th are the rows' (rows, m) arrays, which
    PlantRows reads; `muscles` is the table the map was built from.
    """

    def __init__(self, cfg: PlantConfig, dt: float, substeps: int, muscles=None):
        if not (dt > 0.0 and substeps >= 1):
            raise ValueError("require dt > 0 and substeps >= 1")
        m, n, J = cfg.n_muscles, 2 * cfg.n_muscles + 6, cfg.J
        muscles = cfg.muscles[None] if muscles is None else muscles
        if muscles.ndim != 3 or muscles.shape[1:] != (m, len(COLUMNS)) or not len(muscles):
            raise ValueError(f"expected a (rows, {m}, {len(COLUMNS)}) muscle table, "
                             f"got shape {muscles.shape}")
        rows = len(muscles)
        self.cfg, self.substeps, self.rows, self.muscles = cfg, substeps, rows, muscles
        # contiguous (rows, m) columns: advance() reads t_amb at every step
        k, b, c, cth, lam, res, self.t_amb = muscles.transpose(2, 0, 1).copy()
        self.rc = res * cth
        g, eye, idx = cfg.routing, np.eye(2), np.arange(4, 4 + m)
        a = np.zeros((rows, n, n))
        a[:, 0, 2] = a[:, 1, 3] = 1.0
        a[:, 2:4, 0:2] = -(cfg.kappa * eye + g.T @ (k[:, :, None] * g)) / J
        a[:, 2:4, 2:4] = -(cfg.d * eye + g.T @ (b[:, :, None] * g)) / J
        a[:, 2:4, 4:4 + m] = g.T * c[:, None, :] / (J * DEG)
        a[:, 2:4, n - 2:] = eye / (J * DEG)
        a[:, idx, idx] = -lam / cth
        a[:, idx, idx + m] = 1.0
        ha = dt * a
        one = term = np.eye(n)
        for j in (1, 2, 3, 4):
            term = term @ ha / j
            one = one + term
        self.one = one
        self.stack = np.empty((rows, 2 * substeps + n, n))
        angles = self.stack[:, :2 * substeps].reshape(rows, substeps, 2, n)
        spare = np.empty((2, rows, n, n))
        power = one
        angles[:, 0] = one[:, :2]
        for s in range(1, substeps):
            power = np.matmul(one, power, spare[s % 2])
            angles[:, s] = power[:, :2]
        self.stack[:, 2 * substeps:] = power


# the noiseless output [angle1, rate1, angle2, rate2] in z's columns
OUTPUT_COLUMNS = [0, 2, 1, 3]


class PlantRows:
    """B plants stepped in lockstep: their StepMap and their states.

    z (B, n) holds every row's augmented state in StepMap's layout, except
    that the temperatures are absolute (degC):

        z = [a1, a2, w1, w2, T_1 .. T_m, q_1 .. q_m, e1, e2]

    The q and e columns are advance()'s inputs, written at every step. The
    rows start at rest: zero angles and rates, every muscle at its ambient
    temperature. The map holds a plant per row, or one plant that every
    row shares (the field test, or no randomization); either way the
    product runs on the map's own stack, with no copy.
    """

    def __init__(self, sm: StepMap, n: int | None = None):
        n = sm.rows if n is None else n
        if sm.rows not in (1, n):
            raise ValueError(f"a map of {sm.rows} rows cannot step {n} rows")
        self.m = m = sm.cfg.n_muscles
        self.substeps = sm.substeps
        self.one, self.stack, self.tamb, self.rc = sm.one, sm.stack, sm.t_amb, sm.rc
        self.limit = sm.cfg.angle_limit
        self.z = np.zeros((n, 2 * m + 6))
        self.z[:, 4:4 + m] = self.tamb

    def outputs(self) -> np.ndarray:
        """Noiseless [angle1, rate1, angle2, rate2] of every row, a new (B, 4) array."""
        return self.z[:, OUTPUT_COLUMNS]


def _clamped_substeps(one: np.ndarray, z: np.ndarray, lim: float, substeps: int) -> np.ndarray:
    """One row's action step a substep at a time, clamping the angles after each.

    one is the row's substep matrix and z its augmented state with
    temperature rises; an angle past the travel limit lim is set to it and
    its outward rate zeroed.
    """
    for _ in range(substeps):
        z = one @ z
        for j in (0, 1):
            if abs(z[j]) > lim:
                z[j] = math.copysign(lim, z[j])
                if z[2 + j] * z[j] > 0.0:
                    z[2 + j] = 0.0
    return z


def advance(rows: PlantRows, voltages, external_torque=None) -> None:
    """Integrate every row's `substeps` RK4 steps with its voltages held, in place.

    voltages (B, m) must lie in [0, 10] (the action mapping clamps); NaN,
    out of range or a wrong shape raises ValueError before any row moves.
    Each step makes the temperatures' round trip, T - T_amb and then
    + T_amb, and writes q = V^2 / (R C_th) and the torque into z; one
    np.matmul then gives every row's substep angles and end state. A row
    whose largest substep |angle| passes its travel limit, or is NaN,
    takes the substep fallback alone; the other rows keep the product.
    external_torque (N*cm per DOF, broadcast to (B, 2)) is a test hook.
    """
    z, m = rows.z, rows.m
    v = np.asarray(voltages, dtype=np.float64)
    if v.shape != (len(z), m):
        raise ValueError(f"expected {len(z)} rows of {m} voltages, got shape {v.shape}")
    if not ((v >= 0.0) & (v <= 10.0)).all():  # false for NaN too
        raise ValueError(f"voltages out of range [0, 10]: {v}")
    z[:, 4 + 2 * m:] = 0.0 if external_torque is None else external_torque
    temps, q = z[:, 4:4 + m], z[:, 4 + m:4 + 2 * m]
    np.subtract(temps, rows.tamb, out=temps)
    np.multiply(v, v, out=q)
    np.divide(q, rows.rc, out=q)
    out = np.matmul(rows.stack, z[:, :, None])[:, :, 0]
    n_ang = 2 * rows.substeps
    within = np.abs(out[:, :n_ang]).max(axis=1) <= rows.limit
    if not within.all():
        for b in np.flatnonzero(~within).tolist():
            one = rows.one[b if len(rows.one) > 1 else 0]
            out[b, n_ang:] = _clamped_substeps(one, z[b], rows.limit, rows.substeps)
    z[:] = out[:, n_ang:]
    np.add(temps, rows.tamb, out=temps)
