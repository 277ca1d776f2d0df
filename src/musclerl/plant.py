"""Rigid-body plants driven by string muscles: 2-DOF eye and parallel wrist.

Both plants are two independent rotational DOFs with small-angle linearized
muscle routing. A constant routing matrix G (muscles x 2) maps joint angles
to muscle lengths and, transposed, muscle tensions to joint torques:

    x_i    = x0_i - (G @ alpha_rad)_i        length of muscle i, cm
    xdot_i = -(G @ omega_rad)_i              length rate, cm/s
    tau    = G.T @ F                         joint torques, N*cm

Eye: four muscles in two antagonistic pairs, (m1, m2) on pitch and (m3, m4)
on yaw, signs chosen so that the second muscle of each pair pulls the axis
positive. Wrist: three muscles at 120 deg azimuthal spacing.

Joint dynamics per DOF: J alphaddot = tau - d alphadot - kappa alpha, with
angles hard-clamped at the travel limits (rate zeroed on contact). Angle and
rate units are degrees, in the integration state too; G acts on radians.

Integration is explicit RK4 with the voltages held over an action step.
The dynamics are then linear, so StepMap, built once per muscle draw,
holds the substep matrix and its powers: one product gives every substep's
angles and the end state. PlantRows holds B plants that step in lockstep,
their states in one (B, n) array, and advance() steps all of them with
one np.matmul, which makes per row the gemv that the map's stack @ z
makes. A row whose substep angle passes the travel limit falls back to
its substeps one at a time with the clamp after each; otherwise that clamp
never fires and both agree. StepMap is built at every randomized reset, so
it builds its small arrays from Python floats rather than through numpy's
function wrappers; every value is the one the array forms give, and
tests/test_plant.py checks the bytes against those forms.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .muscle import MuscleParams, SCP_NOMINAL, TCA_NOMINAL

DEG = math.pi / 180.0


@dataclass(frozen=True)
class PlantConfig:
    """Geometry and rigid-body constants of one plant.

    J: inertia per DOF (torque-consistent units, N*cm*s^2/rad); d: viscous
    damping N*cm*s/rad; kappa: restoring stiffness N*cm/rad; r: moment arm cm;
    routing: (muscles x 2) matrix described above; muscles: per-muscle
    constants; angle_limit: travel limit, deg.
    """

    name: str
    J: float
    d: float
    kappa: float
    r: float
    routing: np.ndarray
    muscles: tuple[MuscleParams, ...]
    angle_limit: float = 25.0

    def __post_init__(self):
        if not (self.J > 0 and self.r > 0 and self.d >= 0 and self.kappa >= 0):
            raise ValueError("require J > 0, r > 0, d >= 0, kappa >= 0")
        routing = np.asarray(self.routing, dtype=np.float64)
        if routing.shape != (len(self.muscles), 2):
            raise ValueError("routing must be (n_muscles, 2)")
        object.__setattr__(self, "routing", routing)

    @property
    def n_muscles(self) -> int:
        return len(self.muscles)

    def with_muscles(self, muscles: tuple[MuscleParams, ...]) -> "PlantConfig":
        """This plant with another set of as many muscles.

        A copy with the muscles swapped: the routing is the validated one,
        so it is not checked again (a randomized reset calls this).
        """
        if len(muscles) != self.n_muscles:
            raise ValueError(f"expected {self.n_muscles} muscles, got {len(muscles)}")
        cfg = copy.copy(self)
        object.__setattr__(cfg, "muscles", muscles)
        return cfg


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
        routing=eye_routing(r), muscles=(SCP_NOMINAL,) * 4,
    )


def wrist_config() -> PlantConfig:
    """Parallel wrist plate on three SMA-core muscles at 90/210/330 deg."""
    r = 1.2
    return PlantConfig(
        name="wrist", J=2.4, d=1.3, kappa=1.0, r=r,
        routing=wrist_routing(r), muscles=(TCA_NOMINAL,) * 3,
    )


def configured_plant(
    cfg: PlantConfig,
    inertia: float | None = None,
    damping: float | None = None,
    stiffness: float | None = None,
    moment_arm: float | None = None,
    rest_length: float | None = None,
    angle_limit: float | None = None,
) -> PlantConfig:
    """A preset plant with selected constants overridden (config-file knobs).

    Changing the moment arm rebuilds the routing matrix; changing the rest
    length rebuilds the muscle set.
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
    if rest_length is not None:
        kw["muscles"] = tuple(replace(p, x0=rest_length) for p in cfg.muscles)
    return replace(cfg, **kw) if kw else cfg


class StepMap:
    """The action step of one plant with its muscles fixed, as matrices.

    Between two actions the dynamics are linear and time-invariant on the
    augmented state

        z = [a1, a2, w1, w2, T_1 - T_amb,1 .. T_m - T_amb,m, q_1 .. q_m, e1, e2]

    (deg, deg/s, degC; q_i = V_i^2 / (R_i C_th,i) the held heating rate,
    e the external torque), so one RK4 substep of h is z <- M z with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24. `one` is M; `stack` holds
    the angle rows of M^1 .. M^S and then all of M^S, so one product gives
    every substep's angles and the end state. Temperatures enter as rises
    above ambient, which makes the rest state map to itself exactly.

    A new map is built at every randomized reset. The powers are written
    by np.dot(M, M^(s-1), out=...) into one (S, n, n) buffer and the
    stack filled from it by two slice copies; hA is formed once. `t_amb`
    and `rc` = R C_th (lists of Python floats) serve PlantRows.
    """

    def __init__(self, cfg: PlantConfig, dt: float, substeps: int):
        if not (dt > 0.0 and substeps >= 1):
            raise ValueError("require dt > 0 and substeps >= 1")
        self.cfg = cfg
        self.substeps = substeps
        m, n, J = cfg.n_muscles, 2 * cfg.n_muscles + 6, cfg.J
        k, b, c, lam, cth, res, tamb = zip(
            *[(p.k, p.b, p.c, p.lambda_, p.C_th, p.R, p.T_amb) for p in cfg.muscles])
        self.t_amb = [float(t) for t in tamb]
        self.rc = [r * ct for r, ct in zip(res, cth)]
        # A as nested Python floats (rows: angles, rates, temperature rises;
        # q and e are held), each entry computed as the block form
        #   A[2:4, 0:2] = -(kappa I + G^T diag(k) G) / J   (d and b for 2:4)
        #   A[2:4, 4:4+m] = G^T diag(c) / (J DEG),  A[2:4, n-2:] = I / (J DEG)
        #   A[4:4+m, 4:4+m] = diag(-lambda / C_th),  A[4:4+m, 4+m:4+2m] = I
        # computes it; only the two G^T diag(.) G products run in numpy.
        g = cfg.routing
        gkg, gbg = ((g.T @ (np.array(w)[:, None] * g)).tolist() for w in (k, b))
        gt = g.T.tolist()
        a = [[0.0] * n for _ in range(n)]
        a[0][2] = a[1][3] = 1.0
        for r, eye in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            row = a[2 + r]
            for s in (0, 1):
                row[s] = -(cfg.kappa * eye[s] + gkg[r][s]) / J
                row[2 + s] = -(cfg.d * eye[s] + gbg[r][s]) / J
            for i in range(m):
                row[4 + i] = gt[r][i] * c[i] / (J * DEG)
            row[n - 2 + r] = 1.0 / (J * DEG)
        for i in range(m):
            a[4 + i][4 + i] = -lam[i] / cth[i]
            a[4 + i][4 + m + i] = 1.0
        ha = dt * np.array(a)
        one = term = np.eye(n)
        for j in (1, 2, 3, 4):
            term = term @ ha / j
            one = one + term
        powers = np.empty((substeps, n, n))
        powers[0] = one
        for prev, cur in zip(powers, powers[1:]):
            np.dot(one, prev, out=cur)  # matmul's cblas_dgemm call, less call overhead
        self.one = one
        self.stack = np.empty((2 * substeps + n, n))
        self.stack[:2 * substeps].reshape(substeps, 2, n)[...] = powers[:, :2]
        self.stack[2 * substeps:] = powers[-1]


# the noiseless output [angle1, rate1, angle2, rate2] in z's columns
OUTPUT_COLUMNS = [0, 2, 1, 3]


class PlantRows:
    """B plants stepped in lockstep: each row's StepMap and its state.

    z (B, n) holds every row's augmented state in StepMap's layout, except
    that the temperatures are absolute (degC):

        z = [a1, a2, w1, w2, T_1 .. T_m, q_1 .. q_m, e1, e2]

    The q and e columns are advance()'s inputs, written at every step. The
    rows start at rest: zero angles and rates, every muscle at its ambient
    temperature. The maps share one substep count and muscle count. When
    every row has the same map (the field test) the product runs on its
    (2S+n, n) stack; otherwise on the rows' stacks, copied into one
    (B, 2S+n, n) array here.
    """

    def __init__(self, maps: list[StepMap]):
        first = maps[0]
        self.maps = maps
        self.m = m = first.cfg.n_muscles
        self.substeps = first.substeps
        shared = all(sm is first for sm in maps)
        self.stack = first.stack if shared else np.stack([sm.stack for sm in maps])
        self.tamb = np.array([sm.t_amb for sm in maps], dtype=np.float64)
        self.rc = np.array([sm.rc for sm in maps], dtype=np.float64)
        self.limit = np.array([sm.cfg.angle_limit for sm in maps])
        self.z = np.zeros((len(maps), 2 * m + 6))
        self.z[:, 4:4 + m] = self.tamb

    def outputs(self) -> np.ndarray:
        """Noiseless [angle1, rate1, angle2, rate2] of every row, a new (B, 4) array."""
        return self.z[:, OUTPUT_COLUMNS]


def _clamped_substeps(sm: StepMap, z: np.ndarray) -> np.ndarray:
    """One row's action step a substep at a time, clamping the angles after each.

    z is the row's augmented state with temperature rises; an angle past
    the travel limit is set to it and its outward rate zeroed.
    """
    lim = sm.cfg.angle_limit
    for _ in range(sm.substeps):
        z = sm.one @ z
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
            out[b, n_ang:] = _clamped_substeps(rows.maps[b], z[b])
    z[:] = out[:, n_ang:]
    np.add(temps, rows.tamb, out=temps)
